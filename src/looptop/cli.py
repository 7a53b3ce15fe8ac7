"""Command-line front end.

Exit codes: 0 success, 1 verification failure or internal inconsistency,
2 usage error.  Reports go to stdout, diagnostics to stderr.  Each
subcommand sets its handler and `space_of`, the builder of its space: a
report command builds from its own flags, and every `--space` command
parses `--space` with `parse_space`.  `run` makes the window checks all
commands share, builds the space, and calls `handler(args, space, out)`.
Every handler prints through one writer, `_emit`: JSON in a canonical
field order (parse + re-emit is byte-identical), or else an aligned table
of plain UTF-8 columns, header row first, then lines of `label  text` with
the label padded to 18 columns.
"""

import argparse
import functools
import json
import os
import sys

from . import spaces
from .errors import IntegrityError, LooptopError, ValidationError, read_int
from .series import pbw_match_ungraded
from .cobar import verify_loop_homology

DEFAULT_MAX_DIM = 10
DEFAULT_MAX_DEGREE = 8


def parse_matrix(text):
    """Rows separated by ';', integer entries by ',': "0,2;2,0"."""
    rows = []
    for chunk in text.split(";"):
        row = []
        for entry in chunk.split(","):
            entry = entry.strip()
            try:
                row.append(read_int(entry))
            except ValueError:
                raise ValidationError(f"matrix entry {entry!r} is not an integer")
        rows.append(tuple(row))
    return tuple(rows)


def parse_space(text):
    """One-line space grammar.

    manifold:n:r | csum:p1xq1,p2xq2[:signs=+,-] | cw:n:g11,g12;g21,g22 | betti1:n:m
    """
    head, _, rest = text.partition(":")
    if head == "manifold":
        try:
            n, r = (read_int(x) for x in rest.split(":"))
        except ValueError:
            raise ValidationError(f"expected manifold:n:r, got {text!r}")
        return spaces.Manifold(n, r)
    if head == "csum":
        factors_text, *extras = rest.split(":")
        signs_text = None
        for extra in extras:
            if not extra.startswith("signs="):
                raise ValidationError(f"unknown csum option {extra!r}")
            if signs_text is not None:
                raise ValidationError(f"csum option 'signs=' given twice, again as {extra!r}")
            signs_text = extra[len("signs="):]
        return parse_connected_sum(factors_text, signs_text)
    if head == "cw":
        n_text, _, matrix_text = rest.partition(":")
        try:
            n = read_int(n_text)
        except ValueError:
            raise ValidationError(f"expected cw:n:matrix, got {text!r}")
        return spaces.TwoCellComplex(n, parse_matrix(matrix_text.strip('"')))
    if head == "betti1":
        try:
            n, m = (read_int(x) for x in rest.split(":"))
        except ValueError:
            raise ValidationError(f"expected betti1:n:m, got {text!r}")
        return spaces.BettiOne(n, m)
    raise ValidationError(f"unknown space family {head!r}")


def parse_connected_sum(factors_text, signs_text=None):
    """Factors "p1xq1,p2xq2" and optional signs "+,-", as in csum:...:signs=..."""
    factors = []
    for item in factors_text.split(","):
        p, _, q = item.partition("x")
        try:
            factors.append((read_int(p), read_int(q)))
        except ValueError:
            raise ValidationError(f"expected pxq factors, got {item!r}")
    signs = None
    if signs_text is not None:
        signs = tuple(1 if s.strip() == "+" else -1 if s.strip() == "-" else None
                      for s in signs_text.split(","))
        if None in signs:
            raise ValidationError("signs must be a comma list of + and -")
    return spaces.ConnectedSum(tuple(factors), signs)


def canonical_json(payload):
    return json.dumps(payload, ensure_ascii=False, indent=2)


def _emit(args, out, payload, table=(), lines=()):
    """The one writer: `payload` as canonical JSON, or else `table` (header
    row first) as aligned columns and then the (label, text) `lines`.

    A reader that closes the stream early ends the output quietly: the rest
    goes to the null device and the command keeps the exit code it has for
    a reader that reads everything.  Integers print in full at any size:
    the digit limit that guards parsing input is lifted here only."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit to lift
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(canonical_json(payload), file=out)
        else:
            if table:
                widths = [max(len(str(row[i])) for row in table) for i in range(len(table[0]))]
                for row in table:
                    print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)
            for label, text in lines:
                print(f"{label:<18}{text}", file=out)
        out.flush()
    except BrokenPipeError:
        # the buffered rest would fail again at exit; send it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _flag(ok):
    return "ok" if ok else "FAIL"


def _shown(items, limit):
    """The first `limit` items joined by '; ', with the total if some are cut."""
    text = "; ".join(items[:limit])
    return f"{text}; ... ({len(items)} total)" if len(items) > limit else text


def _cell(value):
    """A check-table cell: a list joined by commas ('-' when empty), a flag as ok/FAIL."""
    if isinstance(value, bool):
        return _flag(value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value) or "-"
    return value


def _emit_check(args, out, payload, header, lines=()):
    """A check's payload.  Its table is the JSON rows under `header`, so the
    two formats cannot drift apart; a verdict line follows `lines`."""
    table = [header] + [[_cell(v) for v in row.values()] for row in payload["rows"]]
    _emit(args, out, payload, table, [*lines, ("verdict", _flag(payload["ok"]))])
    return 0 if payload["ok"] else 1


def _emit_rows(args, out, space, rows, header):
    """A check whose payload is {space, max_degree, rows, ok}."""
    ok = all(row["ok"] for row in rows)
    payload = {"space": spaces.space_to_json(space), "max_degree": args.max_degree, "rows": rows, "ok": ok}
    return _emit_check(args, out, payload, header)


def _cmd_report(args, space, out):
    """A family's decomposition report.  Its table and lines are read off
    the payload, so the two formats cannot drift apart.  betti-one takes no
    --max-dim: a Betti-one report's window is always 3n - 1."""
    payload = spaces.decomposition_report(space, getattr(args, "max_dim", DEFAULT_MAX_DIM))
    table = [("sphere", "count", "witnesses")] + [
        (f"S^{s['sphere_dim']}", s["multiplicity"], _shown(s["witnesses"], 6)) for s in payload["summands"]
    ]
    lines = [("classification", payload["classification"])]
    growth = payload["growth_rate"]
    if growth is not None:
        a, b, c = growth["surd"]
        lines.append(("growth rate", f"({a} + {b}*sqrt({c}))/2 = {growth['decimal']}"))
    lines += [
        ("inverted primes", ", ".join(str(p) for p in payload["inverted_primes"]) or "none"),
        ("loop space", payload["loop_decomposition"]),
        ("moore", payload["moore"]["verdict"]),
    ]
    _emit(args, out, payload, table, lines)
    return 0


def _cmd_verify(args, space, out):
    return {"cobar": _verify_cobar, "counts": _verify_counts}[args.what](args, space, out)


def _verify_cobar(args, space, out):
    payload = {"space": spaces.space_to_json(space), **verify_loop_homology(space, args.max_degree)}
    primes = ", ".join(str(p) for p in payload["torsion_primes"]) or "none"
    return _emit_check(
        args, out, payload, ("degree", "chain", "rank", "expected", "torsion", "ok"),
        [("torsion primes", primes), ("bigraded audit", _flag(payload["bigraded_ok"]))],
    )


def _verify_counts(args, space, out):
    from .lyndon import standard_lyndon_counts
    from .series import lie_ranks_from_denominator

    D = args.max_degree
    nr = spaces.normalized_relation(space)  # refuses models with no quadratic relation
    den = space.denominator(D)
    inversion = lie_ranks_from_denominator(den, D)
    matched = pbw_match_ungraded(den.inverse(), D)
    lyndon = standard_lyndon_counts(nr.alphabet, nr.forbidden_pair, D)
    rows = []
    for d in range(1, D + 1):
        a, b, c = inversion[d], matched[d], lyndon.get(d, 0)
        rows.append({"degree": d, "moebius": a, "pbw": b, "lyndon": c, "ok": a == b == c})
    return _emit_rows(args, out, space, rows, ("degree", "moebius", "pbw", "lyndon", "ok"))


def _cmd_hilbert(args, space, out):
    from .rewriting import irreducible_counts

    D = args.max_degree
    nr = spaces.normalized_relation(space)  # refuses models with no quadratic relation
    H = space.denominator(D).inverse()
    counts = irreducible_counts(nr.alphabet, nr.forbidden_pair, D)
    rows = []
    for d in range(D + 1):
        enum = 1 if d == 0 else counts.get(d, 0)
        rows.append({"degree": d, "enumerated": enum, "closed_form": H[d], "ok": enum == H[d]})
    return _emit_rows(args, out, space, rows, ("degree", "enumerated", "closed-form", "ok"))


def _cmd_lie_basis(args, space, out):
    from .lyndon import bracket_string, lie_basis, refuse_long_walk

    D = args.max_degree
    nr = spaces.normalized_relation(space)  # refuses models with no quadratic relation
    refuse_long_walk(nr.alphabet, D)  # before any series is expanded
    counts = {l - 1: c for l, c in space.sphere_counts(D + 1).items()}
    basis = [
        (d, [bracket_string(w, nr.alphabet) for w in words])
        for d, words in sorted(lie_basis(nr, D, counts).items())
    ]
    payload = {
        "space": spaces.space_to_json(space),
        "max_degree": D,
        "basis": [{"degree": d, "count": len(brackets), "brackets": brackets} for d, brackets in basis],
    }
    table = [("degree", "count", "brackets")] + [
        (d, len(brackets), _shown(brackets, 8)) for d, brackets in basis
    ]
    _emit(args, out, payload, table)
    return 0


def _cmd_moore(args, space, out):
    payload = {"space": spaces.space_to_json(space), **spaces.moore_report(space)}
    lines = [
        ("space", space.label), ("verdict", payload["verdict"]), ("justification", payload["justification"]),
    ]
    _emit(args, out, payload, lines=lines)
    return 0


def _add_shared(p, *flags, max_degree=None):
    """Add the shared `flags` to subparser `p` in the order given, which is
    the order of its usage line.  With `--space` the space is parsed from it."""
    options = {
        "--space": {"type": str, "required": True},
        "--max-degree": {"type": read_int, "default": max_degree},
        "--max-dim": {"type": read_int, "default": DEFAULT_MAX_DIM},
        "--format": {"choices": ("table", "json"), "default": "table"},
    }
    for flag in flags:
        p.add_argument(flag, **options[flag])
    if "--space" in flags:
        p.set_defaults(space_of=lambda args: parse_space(args.space))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="looptop",
        description="Sphere-summand decompositions of homotopy groups, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manifold", help="(n-1)-connected 2n-manifold report")
    p.set_defaults(handler=_cmd_report, space_of=lambda args: spaces.Manifold(
        args.n, args.betti, parse_matrix(args.matrix) if args.matrix else None))
    p.add_argument("--n", type=read_int, required=True)
    p.add_argument("--betti", type=read_int, required=True)
    p.add_argument("--matrix", type=str, default=None, help='intersection form, e.g. "0,1;1,0"')
    _add_shared(p, "--format", "--max-dim")

    p = sub.add_parser("connected-sum", help="connected sum of sphere products")
    p.set_defaults(handler=_cmd_report, space_of=lambda args: parse_connected_sum(args.factors, args.signs))
    p.add_argument("--factors", type=str, required=True, help='e.g. "2x3,2x3"')
    p.add_argument("--signs", type=str, default=None, help='e.g. "+,-"')
    _add_shared(p, "--format", "--max-dim")

    p = sub.add_parser("cw", help="wedge of n-spheres with one 2n-cell")
    p.set_defaults(
        handler=_cmd_report, space_of=lambda args: spaces.TwoCellComplex(args.n, parse_matrix(args.matrix)))
    p.add_argument("--n", type=read_int, required=True)
    p.add_argument("--matrix", type=str, required=True, help='cup form, e.g. "0,7;7,0"')
    _add_shared(p, "--format", "--max-dim")

    p = sub.add_parser("betti-one", help="Betti-number-one manifold report")
    p.set_defaults(handler=_cmd_report, space_of=lambda args: spaces.BettiOne(args.n, args.m))
    p.add_argument("--n", type=read_int, required=True, choices=(2, 4, 8))
    p.add_argument("--m", type=read_int, default=0)
    _add_shared(p, "--format")

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("what", choices=("cobar", "counts"))
    _add_shared(p, "--space", "--max-degree", max_degree=DEFAULT_MAX_DEGREE)
    _add_shared(p, "--format")

    p = sub.add_parser("moore", help="Moore-conjecture verdict for a space")
    p.set_defaults(handler=_cmd_moore)
    _add_shared(p, "--space", "--format")

    p = sub.add_parser("hilbert", help="loop-homology Hilbert series, two ways")
    p.set_defaults(handler=_cmd_hilbert)
    _add_shared(p, "--space", "--max-degree", "--format", max_degree=DEFAULT_MAX_DIM)

    p = sub.add_parser("lie-basis", help="standard Lyndon Lie basis with brackets")
    p.set_defaults(handler=_cmd_lie_basis)
    _add_shared(p, "--space", "--max-degree", "--format", max_degree=6)
    return parser


@functools.cache
def _parser():
    """The one parser of this process: parsing leaves it as it was."""
    return build_parser()


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise ValidationError(f"--max-degree must be >= 0, got {args.max_degree}")
        if args.command in ("verify", "lie-basis") and args.max_degree < 1:
            name = f"verify {args.what}" if args.command == "verify" else args.command
            raise ValidationError(f"--max-degree must be >= 1 for {name}, got {args.max_degree}")
        if getattr(args, "max_dim", 2) < 2:
            raise ValidationError(f"--max-dim must be >= 2 for {args.command}, got {args.max_dim}")
        return args.handler(args, args.space_of(args), out)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=err)
        return 1
    except (LooptopError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
