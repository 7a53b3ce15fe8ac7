"""Command-line front end.

Exit codes: 0 success, 1 verification failure or internal inconsistency,
2 usage error.  Reports go to stdout, diagnostics to stderr.  Tables are
plain aligned UTF-8 columns; JSON is emitted in a canonical field order
so that parse + re-emit is byte-identical.
"""

import argparse
import json
import sys

from . import spaces
from .errors import IntegrityError, LooptopError, ValidationError
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
                row.append(int(entry))
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
            n, r = (int(x) for x in rest.split(":"))
        except ValueError:
            raise ValidationError(f"expected manifold:n:r, got {text!r}")
        return spaces.Manifold(n, r)
    if head == "csum":
        factors_text, *extras = rest.split(":")
        signs_text = None
        for extra in extras:
            if not extra.startswith("signs="):
                raise ValidationError(f"unknown csum option {extra!r}")
            signs_text = extra[len("signs="):]
        return parse_connected_sum(factors_text, signs_text)
    if head == "cw":
        n_text, _, matrix_text = rest.partition(":")
        try:
            n = int(n_text)
        except ValueError:
            raise ValidationError(f"expected cw:n:matrix, got {text!r}")
        return spaces.TwoCellComplex(n, parse_matrix(matrix_text.strip('"')))
    if head == "betti1":
        try:
            n, m = (int(x) for x in rest.split(":"))
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
            factors.append((int(p), int(q)))
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


def _emit_report(report, fmt, out):
    if fmt == "json":
        print(canonical_json(spaces.report_to_json(report)), file=out)
        return
    rows = [("sphere", "count", "witnesses")]
    for s in report.summands:
        shown = "; ".join(s.witnesses[:6])
        if len(s.witnesses) > 6:
            shown += f"; ... ({len(s.witnesses)} total)"
        rows.append((f"S^{s.sphere_dim}", str(s.multiplicity), shown))
    _print_table(rows, out)
    print(f"classification    {report.classification}", file=out)
    if report.growth is not None:
        a, b, c = report.growth.surd
        print(f"growth rate       ({a} + {b}*sqrt({c}))/2 = {report.growth.decimal()}", file=out)
    inv = ", ".join(str(p) for p in report.inverted_primes) or "none"
    print(f"inverted primes   {inv}", file=out)
    print(f"loop space        {report.loop_decomposition_text}", file=out)
    print(f"moore             {report.moore.verdict}", file=out)


def _print_table(rows, out):
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


def _cmd_report(space, args, out):
    report = spaces.decomposition_report(space, args.max_dim)
    _emit_report(report, args.format, out)
    return 0


DEFAULT_DEGREE_CAP = 16


def _cmd_verify(args, out):
    space = parse_space(args.space)
    if args.what == "cobar":
        if args.max_degree > DEFAULT_DEGREE_CAP and not args.deep:
            raise ValidationError(
                f"chain complexes above degree {DEFAULT_DEGREE_CAP} grow exponentially; "
                f"pass --deep to override"
            )
        report = verify_loop_homology(space, args.max_degree)
        if args.format == "json":
            payload = {
                "space": spaces.space_to_json(space),
                "max_degree": report.max_degree,
                "rows": [
                    {
                        "degree": r.degree,
                        "chain_dim": r.chain_dim,
                        "rank": r.rank,
                        "expected_rank": r.expected_rank,
                        "torsion": list(r.torsion),
                        "ok": r.rank_ok and r.torsion_ok,
                    }
                    for r in report.rows
                ],
                "euler_ok": report.euler_ok,
                "ok": report.ok,
            }
            print(canonical_json(payload), file=out)
        else:
            rows = [("degree", "chain", "rank", "expected", "torsion", "ok")]
            for r in report.rows:
                torsion = ",".join(str(t) for t in r.torsion) or "-"
                rows.append((r.degree, r.chain_dim, r.rank, r.expected_rank, torsion,
                             "ok" if r.rank_ok and r.torsion_ok else "FAIL"))
            _print_table(rows, out)
            print(f"euler audit       {'ok' if report.euler_ok else 'FAIL'}", file=out)
            print(f"verdict           {'ok' if report.ok else 'FAIL'}", file=out)
        return 0 if report.ok else 1
    if args.what == "counts":
        return _verify_counts(space, args, out)
    raise ValidationError(f"unknown verify target {args.what!r}")


def _verify_counts(space, args, out):
    from .algebra import normalize_relation, relation_from_space
    from .lyndon import standard_lyndon_counts
    from .series import lie_ranks_from_denominator

    D = args.max_degree
    alphabet, rel = relation_from_space(space)  # refuses models with no quadratic relation
    den = space.denominator(D)
    inversion = lie_ranks_from_denominator(den, D)
    matched = pbw_match_ungraded(den.inverse(), D)
    nr = normalize_relation(alphabet, rel)
    lyndon_counts = standard_lyndon_counts(nr.alphabet, nr.forbidden_pair, D)
    ok = True
    rows = [("degree", "moebius", "pbw", "lyndon", "ok")]
    for d in range(1, D + 1):
        a, b, c = inversion[d], matched[d], lyndon_counts.get(d, 0)
        good = a == b == c
        ok = ok and good
        rows.append((d, a, b, c, "ok" if good else "FAIL"))
    if args.format == "json":
        payload = {
            "space": spaces.space_to_json(space),
            "max_degree": D,
            "rows": [
                {"degree": r[0], "moebius": r[1], "pbw": r[2], "lyndon": r[3], "ok": r[4] == "ok"}
                for r in rows[1:]
            ],
            "ok": ok,
        }
        print(canonical_json(payload), file=out)
    else:
        _print_table(rows, out)
        print(f"verdict           {'ok' if ok else 'FAIL'}", file=out)
    return 0 if ok else 1


def _cmd_hilbert(args, out):
    space = parse_space(args.space)
    from .algebra import normalize_relation, relation_from_space
    from .rewriting import irreducible_counts

    D = args.max_degree
    alphabet, rel = relation_from_space(space)  # refuses models with no quadratic relation
    H = space.denominator(D).inverse()
    nr = normalize_relation(alphabet, rel)
    counts = irreducible_counts(nr.alphabet, nr.forbidden_pair, D)
    ok = True
    rows = [("degree", "enumerated", "closed-form", "ok")]
    data = []
    for d in range(D + 1):
        enum = 1 if d == 0 else counts.get(d, 0)
        closed = int(H[d])
        good = enum == closed
        ok = ok and good
        rows.append((d, enum, closed, "ok" if good else "FAIL"))
        data.append({"degree": d, "enumerated": enum, "closed_form": closed, "ok": good})
    if args.format == "json":
        print(canonical_json({"space": spaces.space_to_json(space), "max_degree": D,
                              "rows": data, "ok": ok}), file=out)
    else:
        _print_table(rows, out)
        print(f"verdict           {'ok' if ok else 'FAIL'}", file=out)
    return 0 if ok else 1


def _cmd_lie_basis(args, out):
    space = parse_space(args.space)
    from .algebra import normalize_relation, relation_from_space
    from .lyndon import bracket_string, lie_basis

    alphabet, rel = relation_from_space(space)
    nr = normalize_relation(alphabet, rel)
    basis = lie_basis(nr, args.max_degree)
    if args.format == "json":
        payload = {
            "space": spaces.space_to_json(space),
            "max_degree": args.max_degree,
            "basis": [
                {
                    "degree": d,
                    "count": len(elements),
                    "brackets": [bracket_string(e.word, nr.alphabet) for e in elements],
                }
                for d, elements in sorted(basis.items())
            ],
        }
        print(canonical_json(payload), file=out)
    else:
        rows = [("degree", "count", "brackets")]
        for d, elements in sorted(basis.items()):
            shown = "; ".join(bracket_string(e.word, nr.alphabet) for e in elements[:8])
            if len(elements) > 8:
                shown += f"; ... ({len(elements)} total)"
            rows.append((d, len(elements), shown))
        _print_table(rows, out)
    return 0


def _cmd_moore(args, out):
    space = parse_space(args.space)
    report = spaces.moore_report(space)
    if args.format == "json":
        print(canonical_json({"space": spaces.space_to_json(space),
                              "verdict": report.verdict,
                              "justification": report.justification}), file=out)
    else:
        print(f"space             {space.label}", file=out)
        print(f"verdict           {report.verdict}", file=out)
        print(f"justification     {report.justification}", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="looptop",
        description="Sphere-summand decompositions of homotopy groups, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_dim=True):
        p.add_argument("--format", choices=("table", "json"), default="table")
        if max_dim:
            p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, dest="max_dim")

    p = sub.add_parser("manifold", help="(n-1)-connected 2n-manifold report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--betti", type=int, required=True)
    p.add_argument("--matrix", type=str, default=None, help='intersection form, e.g. "0,1;1,0"')
    add_common(p)

    p = sub.add_parser("connected-sum", help="connected sum of sphere products")
    p.add_argument("--factors", type=str, required=True, help='e.g. "2x3,2x3"')
    p.add_argument("--signs", type=str, default=None, help='e.g. "+,-"')
    add_common(p)

    p = sub.add_parser("cw", help="wedge of n-spheres with one 2n-cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", type=str, required=True, help='cup form, e.g. "0,7;7,0"')
    add_common(p)

    p = sub.add_parser("betti-one", help="Betti-number-one manifold report")
    p.add_argument("--n", type=int, required=True, choices=(2, 4, 8))
    p.add_argument("--m", type=int, default=0)
    add_common(p, max_dim=False)

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.add_argument("what", choices=("cobar", "counts"))
    p.add_argument("--space", type=str, required=True)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE, dest="max_degree")
    p.add_argument("--deep", action="store_true", help="allow cobar cutoffs above 16")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("moore", help="Moore-conjecture verdict for a space")
    p.add_argument("--space", type=str, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("hilbert", help="loop-homology Hilbert series, two ways")
    p.add_argument("--space", type=str, required=True)
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DIM, dest="max_degree")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("lie-basis", help="standard Lyndon Lie basis with brackets")
    p.add_argument("--space", type=str, required=True)
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise ValidationError(f"--max-degree must be >= 0, got {args.max_degree}")
        if args.command == "manifold":
            matrix = parse_matrix(args.matrix) if args.matrix else None
            space = spaces.Manifold(args.n, args.betti, matrix)
            return _cmd_report(space, args, out)
        if args.command == "connected-sum":
            return _cmd_report(parse_connected_sum(args.factors, args.signs), args, out)
        if args.command == "cw":
            space = spaces.TwoCellComplex(args.n, parse_matrix(args.matrix))
            return _cmd_report(space, args, out)
        if args.command == "betti-one":
            report = spaces.betti_one_report(args.n, args.m)
            _emit_report(report, args.format, out)
            return 0
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "moore":
            return _cmd_moore(args, out)
        if args.command == "hilbert":
            return _cmd_hilbert(args, out)
        if args.command == "lie-basis":
            return _cmd_lie_basis(args, out)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=err)
        return 1
    except LooptopError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
