"""The benchmark tracer's patch points name functions that exist, and the
solver calls them.

``benchmark/tracing.py`` skips a patch point whose function is missing, so
that a removed function reports zero calls rather than failing a run.  A
rename would then zero a per-layer metric without a word; these tests name
the rename instead, and a solver that inlines or bypasses a traced
function, which would zero its metric just as silently.
"""

import importlib
import sys
from pathlib import Path

import pytest

import prfeas.solver
from prfeas.oracle import CustomOracle

from semicircle import make_semicircle

BENCHMARK_DIR = str(Path(__file__).resolve().parent.parent / "benchmark")

#: Its function is gone since the Sdp oracle decides definiteness with one
#: ``eigh``; the point is still listed and reports zero calls.
RETIRED = ("linalg.certifying_cholesky", "prfeas.oracle",
           "certifying_cholesky")


def import_tracing():
    sys.path.insert(0, BENCHMARK_DIR)
    try:
        import tracing
    finally:
        sys.path.remove(BENCHMARK_DIR)
    return tracing


def live_patch_points():
    return [p for p in import_tracing().PATCH_POINTS if p != RETIRED]


@pytest.mark.parametrize("name,module,attr", live_patch_points())
def test_patch_point_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{name}: {module}.{attr} is missing"
    assert callable(owner), f"{name}: {module}.{attr} is not callable"


def test_solver_and_linalg_patch_points_record_calls():
    # the open semicircle contracts 42 times, warm-starting each run, and
    # reduces its support, with rank-one updates of G: every solver and
    # linalg function the tracer wraps runs
    tracer = import_tracing().Tracer()
    with tracer.patched():
        out = prfeas.solver.main_algorithm(
            CustomOracle(2, make_semicircle(False)))
    assert out.counters.rescalings == 42
    metrics = tracer.metrics()
    names = {name for name, _, _ in live_patch_points()
             if name.startswith(("solver.", "linalg."))}
    assert len(names) == 11
    for name in sorted(names):
        assert metrics[f"{name}.calls"] > 0, f"{name} recorded no call"
