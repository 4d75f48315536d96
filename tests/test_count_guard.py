"""The count guard: outcome, oracle calls and inner runs of fixed solves.

Counts are deterministic, so any change in them is a change in what the
solver does.  The rows cover planted SOCP, SDP and LP instances, the
hyperplane LPs of ``tests/hyperplane.py`` (bit for bit the benchmark's)
and both semicircles of ``tests/semicircle.py``.
"""

import pytest

from prfeas.certify import generate_planted
from prfeas.oracle import CustomOracle
from prfeas.solver import InvariantViolated, main_algorithm
from blas import per_kernel
from hyperplane import hyperplane_lp
from semicircle import make_semicircle

# (kind, m, n, seed, target, expected): a number as an lp row's target is
# the lift of its hyperplane LP; a named target is a planted instance, or
# the open semicircle (0, pi) or closed one (0, pi], whose row holds the
# epsilon in the seed's place; a string expected is the exception raised.
# Three rows hold on the SkylakeX OpenBLAS kernel and move on Haswell's,
# whose BLAS products round otherwise (tests/blas.py); no status moves
ROWS = [
    ("socp", 60, 1000, 106, "feasible_d", ("feasible", 107, 1)),
    ("socp", 20, 200, 105, "feasible_d", ("feasible", 34, 1)),
    ("socp", 5, 40, 104, "feasible_p", ("dual_certificate", 6, 2)),
    ("socp", 20, 200, 1, "feasible_p", ("dual_certificate", 33, 11)),
    ("socp", 20, 200, 3, "feasible_p", per_kernel(
        ("dual_certificate", 21, 3), Haswell=("dual_certificate", 22, 4))),
    ("socp", 60, 1000, 2, "feasible_p", ("dual_certificate", 79, 17)),
    ("socp", 10, 100, 6, "feasible_p", per_kernel(
        ("dual_certificate", 13, 6), Haswell=("dual_certificate", 12, 5))),
    ("sdp", 8, 20, 1, "feasible_p", ("dual_certificate", 5, 1)),
    ("sdp", 20, 40, 2, "feasible_p", ("dual_certificate", 7, 2)),
    ("sdp", 20, 40, 104, "feasible_d", ("feasible", 29, 1)),
    ("sdp", 8, 20, 203, "feasible_d", ("feasible", 16, 1)),
    ("lp", 10, 200, 1, 1e-4, per_kernel(
        ("epsilon_declared", 345, 72), Haswell=("epsilon_declared", 348, 72))),
    ("lp", 10, 200, 1, 1e-5, ("epsilon_declared", 78, 72)),
    ("lp", 10, 200, 1, 0.0, ("dual_certificate", 11, 5)),
    ("lp", 10, 200, 3, 0.0, ("dual_certificate", 11, 4)),
    ("lp", 10, 20000, 1, 1e-5, ("epsilon_declared", 75, 72)),
    ("lp", 30, 2000, 1, "feasible_d", ("feasible", 55, 1)),
    ("lp", 60, 5000, 1, "feasible_d", ("feasible", 109, 1)),
    ("lp", 60, 5000, 1, "feasible_p", ("dual_certificate", 61, 13)),
    ("lp", 60, 20000, 1, "feasible_d", ("feasible", 87, 1)),
    ("custom", 2, None, 1e-6, "open semicircle", ("feasible", 809, 43)),
    ("custom", 2, None, 1e-4, "closed semicircle",
     ("epsilon_declared", 455, 48)),
    ("custom", 2, None, 1e-6, "closed semicircle",
     "InvariantViolated: 56 iterations exceed the bound 55"),
]


def row_id(row):
    kind, m, n, seed, target, _ = row
    if kind == "custom":
        return f"{target} epsilon {seed}"
    return f"{kind} m={m} n={n} {target} seed {seed}"


@pytest.mark.parametrize("kind, m, n, seed, target, expected", ROWS,
                         ids=[row_id(row) for row in ROWS])
def test_counts_hold(kind, m, n, seed, target, expected):
    eps = 1e-6
    if kind == "custom":
        inst = CustomOracle(m, make_semicircle(target[0] == "c"))
        eps = seed
    elif isinstance(target, float):
        inst = hyperplane_lp(m, n, seed, target)
    else:
        inst = generate_planted(kind, m, n, seed, target)[0]
    try:
        out = main_algorithm(inst, eps)
    except InvariantViolated as exc:
        got = f"{type(exc).__name__}: {exc}"
    else:
        c = out.counters
        got = (out.status, c.oracle_calls, c.bp_calls)
    assert got == expected
