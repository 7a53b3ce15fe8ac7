"""Tests of the benchmark's own logic: span arithmetic, the plain-int
recurrence, the answer projector and the host-speed sampler."""

import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from looptop.cli import run  # noqa: E402


class TestSelfTime:
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
        trace = [
            ("a", 0.0, 10.0, None),
            ("b", 1.0, 4.0, 0),
            ("c", 5.0, 9.0, 0),
            ("d", 6.0, 7.0, 2),
        ]
        assert spans.self_times(trace) == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
        assert sum(spans.span_self_times(trace)) == 10.0

    def test_same_name_adds_up(self):
        trace = [("a", 0.0, 4.0, None), ("x", 1.0, 2.0, 0), ("a", 5.0, 6.0, None)]
        assert spans.self_times(trace) == {"a": 4.0, "x": 1.0}

    def test_overlapping_children_count_once(self):
        trace = [("a", 0.0, 10.0, None), ("b", 2.0, 6.0, 0), ("c", 4.0, 12.0, 0)]
        assert spans.self_times(trace)["a"] == pytest.approx(2.0)

    def test_time_under_an_ancestor(self):
        trace = [
            ("cobar.euler", 0.0, 5.0, None),
            ("cobar.rank", 1.0, 4.0, 0),
            ("linalg.snf", 2.0, 3.0, 1),
            ("cobar.rank", 6.0, 8.0, None),
        ]
        got = spans._self_time_under(trace, ("cobar.rank", "linalg.snf"), "cobar.euler")
        assert got == 3.0

    def test_recorder_collapses_recursion_and_counts_outside_the_span(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        seen = []

        def fact(n):
            return 1 if n == 0 else n * wrapped(n - 1)

        wrapped = rec.wrap(fact, "math.fact", after=lambda args, result: seen.append(result))
        assert wrapped(4) == 24
        assert [s[0] for s in rec.spans] == ["math.fact", "trace.count"]
        assert seen == [24]


class TestRecurrence:
    def test_manifold_series(self):
        # 1/(1 - 3t + t^2): every other Fibonacci number
        assert answers.hilbert_coefficients((2, 2, 2), 4, 7) == [1, 3, 8, 21, 55, 144, 377, 987]
        # 1/(1 - t)^2 for a rank-two form
        assert answers.hilbert_coefficients((2, 2), 4, 5) == [1, 2, 3, 4, 5, 6]

    def test_connected_sum_series(self):
        # 1/(1 - 2t - 2t^2 + t^3)
        assert answers.hilbert_coefficients((2, 3, 2, 3), 5, 4) == [1, 2, 6, 15, 40]

    def test_lie_ranks_of_free_algebra_are_necklace_counts(self):
        h = [2**d for d in range(9)]
        assert answers.lie_ranks(h)[1:] == [2, 1, 2, 3, 6, 9, 18, 30]

    def test_bad_primes(self):
        assert answers.bad_primes([[0, 49], [49, 0]]) == {7}
        assert answers.bad_primes([[2, 1], [1, 3]]) == {5}


def _respond(argv):
    out = io.StringIO()
    assert run(argv, out=out, err=io.StringIO()) == 0
    return out.getvalue()


SMALL_REQUESTS = [
    (["verify", "cobar", "--space", "cw:2:0,3;3,0", "--max-degree", "4", "--format", "json"],
     {"rows": [[0, 1, []], [1, 2, []], [2, 3, [3]], [3, 4, [3, 3, 3, 3]], [4, 5, [3] * 11]],
      "ok": True}),
    (["verify", "counts", "--space", "manifold:2:3", "--max-degree", "4", "--format", "json"],
     {"rows": [[1, 3, 3, 3], [2, 2, 2, 2], [3, 5, 5, 5], [4, 10, 10, 10]], "ok": True}),
    (["hilbert", "--space", "manifold:2:3", "--max-degree", "3", "--format", "json"],
     {"rows": [[0, 1, 1], [1, 3, 3], [2, 8, 8], [3, 21, 21]], "ok": True}),
    (["lie-basis", "--space", "manifold:2:3", "--max-degree", "3", "--format", "json"],
     {"basis": [[1, 3, 3], [2, 2, 2], [3, 5, 5]]}),
    (["manifold", "--n", "2", "--betti", "3", "--max-dim", "4", "--format", "json"],
     {"summands": [[2, 3, 3], [3, 2, 2], [4, 5, 5]], "inverted_primes": []}),
    (["connected-sum", "--factors", "2x3,2x3", "--signs=+,-", "--max-dim", "3", "--format", "json"],
     {"summands": [[2, 2, 2], [3, 3, 3]], "inverted_primes": []}),
    (["cw", "--n", "2", "--matrix", "0,7;7,0", "--max-dim", "4", "--format", "json"],
     {"summands": [[2, 2, 2]], "inverted_primes": [7]}),
    (["betti-one", "--n", "4", "--m", "1", "--format", "json"],
     {"summands": [[11, 1, 0]], "inverted_primes": [3]}),
    (["moore", "--space", "cw:2:0,7;7,0", "--format", "json"],
     {"verdict": "elliptic-with-finite-exponents"}),
]


@pytest.mark.parametrize(
    "argv, want", SMALL_REQUESTS, ids=[answers.command_of(argv) for argv, _ in SMALL_REQUESTS]
)
def test_projection_of_each_command(argv, want):
    stdout = _respond(argv)
    assert answers.project(argv, json.loads(stdout)) == want
    assert answers.check(argv, 0, stdout, want) == []


def test_checks_catch_wrong_answers():
    argv = SMALL_REQUESTS[0][0]
    want = SMALL_REQUESTS[0][1]
    payload = json.loads(_respond(argv))
    assert answers.check(argv, 2, "", want) == ["exit code 2"]

    payload["rows"][2]["rank"] = 4
    problems = answers.check(argv, 0, json.dumps(payload), want)
    assert "projection differs from the expected table" in problems
    assert "rank 4 at degree 2, recurrence gives 3" in problems

    payload["rows"][2]["rank"] = 3
    payload["rows"][2]["torsion"] = [5]
    payload["ok"] = False
    problems = answers.check(argv, 0, json.dumps(payload), want)
    assert "JSON ok is not true" in problems
    assert any("off the bad primes [3]" in p for p in problems)


def test_host_speed_samples_the_whole_pass():
    with worker.HostSpeed() as host:
        deadline = time.perf_counter() + 3 * worker.REF_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    # One sample at the start, at least two on the timer, one at the end.
    assert len(host.samples) >= 4
    assert host.total == sum(host.samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
