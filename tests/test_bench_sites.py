"""Every function the benchmark's traced pass rebinds must still exist.

The traced pass wraps looptop functions by (module, attribute) name, so a
refactor that deletes or renames one of them breaks the per-layer trace
without failing any other test.  perfbench/spans.py is loaded by path and
its SPAN_SITES are only resolved, never installed.
"""

import importlib.util
from pathlib import Path

import pytest

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
