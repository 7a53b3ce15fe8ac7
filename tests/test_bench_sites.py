"""Every function the benchmark's traced pass rebinds must still exist.

The traced pass wraps looptop functions by (module, attribute) name, so a
refactor that deletes or renames one of them breaks the per-layer trace
without failing any other test.  perfbench/spans.py is loaded by path and
its SPAN_SITES are only resolved here; a caller that binds a site's name
at import time also escapes the trace, so one test installs the recorder
and runs two reports, a Lie basis and two cobar audits through it, in a
process of its own because `install` rebinds module attributes.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import looptop

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("where, attr, name", spans.SPAN_SITES)
def test_span_site_resolves(where, attr, name):
    owner = spans._resolve(where)
    assert callable(getattr(owner, attr, None)), f"{where}.{attr} ({name}) is gone"


TRACED_REPORTS = """
import importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from looptop.cli import run

recorder = spans.Recorder()
spans.install(recorder)
requests = (
    ["manifold", "--n", "2", "--betti", "3", "--max-dim", "6"],
    ["connected-sum", "--factors", "2x3,2x3", "--max-dim", "6"],
    ["lie-basis", "--space", "manifold:2:3", "--max-degree", "5"],
    ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "6"],
    ["verify", "cobar", "--space", "cw:2:0,3;3,0", "--max-degree", "5"],
)
for i, argv in enumerate(requests):
    recorder.request = i
    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0
print(json.dumps([sorted({s[0] for s in recorder.spans if s[4] == i}) for i in range(len(requests))]))
"""


def test_reports_record_the_series_spans():
    src = str(Path(looptop.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", TRACED_REPORTS, str(SPANS_PATH)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    manifold, connected_sum, lie_basis, unimodular, torsion = map(set, json.loads(done.stdout))
    assert {"series.log_moebius", "series.closed_form"} <= manifold
    assert "series.log_moebius" in connected_sum
    # the Lie basis is checked against the same series as the reports
    assert {"series.log_moebius", "lyndon.basis", "lyndon.bracket_expand"} <= lie_basis
    # the cobar audit, whose build hook reads the spots and the differentials
    cobar = {
        "cobar.verify", "cobar.build", "cobar.dd_check", "cobar.rank", "cobar.homology", "cobar.euler",
    }
    assert cobar <= unimodular
    assert cobar | {"spaces.bad_primes"} <= torsion
