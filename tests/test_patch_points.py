"""The benchmark tracer's patch points name functions that exist.

``benchmark/tracing.py`` skips a patch point whose function is missing, so
that a removed function reports zero calls rather than failing a run.  A
rename would then zero a per-layer metric without a word; this test names
the rename instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARK_DIR = str(Path(__file__).resolve().parent.parent / "benchmark")

#: Its function is gone since the Sdp oracle decides definiteness with one
#: ``eigh``; the point is still listed and reports zero calls.
RETIRED = ("linalg.certifying_cholesky", "prfeas.oracle",
           "certifying_cholesky")


def live_patch_points():
    sys.path.insert(0, BENCHMARK_DIR)
    try:
        import tracing
    finally:
        sys.path.remove(BENCHMARK_DIR)
    return [p for p in tracing.PATCH_POINTS if p != RETIRED]


@pytest.mark.parametrize("name,module,attr", live_patch_points())
def test_patch_point_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{name}: {module}.{attr} is missing"
    assert callable(owner), f"{name}: {module}.{attr} is not callable"
