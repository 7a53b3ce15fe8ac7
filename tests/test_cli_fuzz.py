"""Random command lines never crash the front end.

Argument lists are drawn from the space grammar and the command flags.
Most pieces are well formed, so that the pipelines run; malformed ones are
mixed in: bad integers, unknown families, ragged or asymmetric matrices,
mismatched factors, sign lists that do not match the factors, stray flags
and left-out values.  Whatever comes in, `run` returns instead of raising,
the exit code is 0 (success) or 2 (usage error), and no traceback reaches
stderr.  Exit 1 means two pipelines disagree, which no input may cause.
When a report or `moore` succeeds, it is run again in the other format,
and its table must read the same fields as its JSON payload.

Sizes are bounded so that the test stays fast: `LOOPTOP_MAX_CELLS=20000`,
Betti numbers and matrix sizes up to 6 (a `manifold` report's `--betti`
up to 40 one time in ten), windows up to 8 for the reports, `verify
counts` and `hilbert`.  `verify cobar` cutoffs go up to 10^6,
because the cell cap alone bounds its work and refuses at once at any
cutoff.  `lie-basis` builds a bracket for every basis word, so its window
stops at 5; a report lists witnesses only while there are at most 2000 of
them.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from looptop.cli import run

JUNK = st.sampled_from(["", "x", "1.5", "-", ":", ";", ",", "--bogus", "2x", "+,x"])


def mostly(good, bad):
    """`good` most of the time, else `bad`: one value of twenty, drawn from
    mid-range.  Hypothesis draws the low end of a range far more often than
    the rest (with `bad` on 0 it came a quarter of the time), so over 3,000
    command lines `bad` comes about one time in thirty."""
    return st.integers(0, 19).flatmap(lambda k: bad if k == 10 else good)


def small_int(lo, hi):
    """An integer in [lo, hi] as text, or now and then a malformed token."""
    return mostly(st.integers(lo, hi).map(str), JUNK)


@st.composite
def forms(draw, n):
    """A form of the parity n asks for (symmetric for even n, skew for odd n)."""
    size = draw(st.integers(1, 6))
    skew = n % 2 == 1
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + skew, size):
            m[i][j] = draw(st.integers(-3, 3))
            m[j][i] = -m[i][j] if skew else m[i][j]
    return ";".join(",".join(str(v) for v in row) for row in m)


@st.composite
def junk_matrices(draw):
    """Any shape (now and then ragged), any entries, some not integers."""
    size = draw(st.integers(1, 6))
    rows = []
    for _ in range(size):
        width = draw(mostly(st.just(size), st.integers(1, 6)))
        rows.append(",".join(draw(small_int(-4, 4)) for _ in range(width)))
    return ";".join(rows)


@st.composite
def cw_parts(draw):
    """(n, cup form) of a two-cell complex, mostly well formed."""
    n = draw(st.integers(1, 5))
    return str(n), draw(mostly(forms(n), junk_matrices()))


@st.composite
def good_factors(draw):
    total = draw(st.integers(4, 9))
    ps = draw(st.lists(st.integers(2, total - 2), min_size=1, max_size=3))
    return ",".join(f"{p}x{total - p}" for p in ps)


def factors():
    pair = st.tuples(small_int(1, 6), small_int(1, 6)).map("x".join)
    return mostly(good_factors(), st.lists(pair, min_size=1, max_size=3).map(",".join))


def signs(count=None):
    """`count` signs, or 1-3 when no count is given."""
    sign = mostly(st.sampled_from(["+", "-"]), st.sampled_from(["x", ""]))
    return st.lists(sign, min_size=count or 1, max_size=count or 3).map(",".join)


def factors_with_signs():
    """(factors, signs), with one sign per factor about nineteen times in
    twenty; else a list of 1-3 signs, now and then a ragged one."""
    return factors().flatmap(
        lambda text: st.tuples(st.just(text), mostly(signs(text.count(",") + 1), signs()))
    )


@st.composite
def csum_flags(draw):
    """The factors and signs flags of `connected-sum`, each now and then left
    out.  The signs go in one `--signs=` token, since argparse would read a
    list that starts with "-" as a flag."""
    text, sign_text = draw(factors_with_signs())
    return draw(option("--factors", st.just(text))) + draw(st.sampled_from([[], [f"--signs={sign_text}"]]))


def space_texts():
    return mostly(
        st.one_of(
            st.builds("manifold:{}:{}".format, small_int(2, 6), small_int(1, 6)),
            st.builds("csum:{}".format, factors()),
            factors_with_signs().map(lambda fs: "csum:{}:signs={}".format(*fs)),
            cw_parts().map(lambda nm: f"cw:{nm[0]}:{nm[1]}"),
            st.builds("betti1:{}:{}".format, st.sampled_from(["2", "4", "8", "3"]), small_int(-5, 200)),
        ),
        st.sampled_from(["torus:1:1", "manifold:2", "manifold:1:2", "cw:2:", "csum:", "csum:2x3:bogus", ""]),
    )


def option(flag, values):
    """`[flag, value]`, or now and then nothing (the flag left out)."""
    return mostly(values.map(lambda v: [flag, v]), st.just([]))


def argvs():
    window = small_int(-2, 8)
    # a report refuses --max-dim below 2, so those windows and junk stay rare
    report_window = mostly(st.integers(2, 8).map(str), st.one_of(st.integers(-2, 1).map(str), JUNK))
    cutoff = st.one_of(window, small_int(9, 10**6))
    # the relation path is linear in the Betti number, so one time in ten it goes up to 40
    betti = st.integers(0, 9).flatmap(lambda k: small_int(1, 6) if k else small_int(1, 40))
    cw = cw_parts().map(lambda nm: ["--n", nm[0], "--matrix", nm[1]])
    commands = st.one_of(
        st.tuples(
            st.just(["manifold"]), option("--n", small_int(2, 6)), option("--betti", betti),
            mostly(st.just([]), option("--matrix", junk_matrices())), option("--max-dim", report_window),
        ),
        st.tuples(st.just(["connected-sum"]), csum_flags(), option("--max-dim", report_window)),
        st.tuples(st.just(["cw"]), mostly(cw, st.just(["--n", "2"])), option("--max-dim", report_window)),
        st.tuples(
            st.just(["betti-one"]), option("--n", mostly(st.sampled_from(["2", "4", "8"]), JUNK)),
            option("--m", small_int(-5, 200)),
        ),
        st.tuples(st.just(["verify", "cobar"]), option("--space", space_texts()), option("--max-degree", cutoff)),
        st.tuples(
            st.just(["verify"]), mostly(st.just(["counts"]), st.just(["homology"])),
            option("--space", space_texts()), option("--max-degree", window),
        ),
        st.tuples(st.just(["moore"]), option("--space", space_texts())),
        st.tuples(st.just(["hilbert"]), option("--space", space_texts()), option("--max-degree", window)),
        st.tuples(
            st.just(["lie-basis"]), option("--space", space_texts()), option("--max-degree", small_int(-2, 5)),
        ),
    )
    stray = mostly(st.just([]), st.sampled_from([["--bogus"], ["extra"], ["--max-dim"], ["--format"]]))
    formats = mostly(st.sampled_from([[], ["--format", "json"]]), st.just(["--format", "yaml"]))
    return st.tuples(commands, stray, formats).map(lambda t: [a for part in t[0] for a in part] + t[1] + t[2])


REPORTS = ("manifold", "connected-sum", "cw", "betti-one", "moore")


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setenv("LOOPTOP_MAX_CELLS", "20000")
        code = run(argv, out=out, err=err)  # an exception here fails the test
    return code, out.getvalue(), err.getvalue()


def assert_table_reads_payload(command, table, payload):
    """The `S^l  count` rows and the labelled lines of a report's (or
    `moore`'s) table against the fields of its JSON payload."""
    lines = table.splitlines()
    labelled = {line[:18].rstrip(): line[18:] for line in lines if not line.startswith(("sphere  ", "S^"))}
    if command == "moore":
        assert labelled["verdict"] == payload["verdict"]
        assert labelled["justification"] == payload["justification"]
        return
    rows = [line.split()[:2] for line in lines if line.startswith("S^")]
    assert rows == [[f"S^{s['sphere_dim']}", str(s["multiplicity"])] for s in payload["summands"]]
    assert labelled["classification"] == payload["classification"]
    assert labelled["inverted primes"] == (", ".join(map(str, payload["inverted_primes"])) or "none")
    assert labelled["loop space"] == payload["loop_decomposition"]
    assert labelled["moore"] == payload["moore"]["verdict"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_random_command_lines_exit_cleanly(argv):
    code, out, err = _run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0 and argv[0] in REPORTS:
        # a success has no stray flag, so any --format is the last pair
        json_first = argv[-2:] == ["--format", "json"]
        other = _run(argv + ["--format", "table" if json_first else "json"])
        assert other[0] == 0, (argv, other)
        table, payload = (other[1], out) if json_first else (out, other[1])
        assert_table_reads_payload(argv[0], table, json.loads(payload))
