"""The hyperplane LP shared by the solver, end-to-end and count-guard
tests.

It is bit for bit the instance that ``benchmark/workloads.py`` builds
under the same name, so a count pinned here is one the benchmark runs.
"""

import numpy as np

from prfeas.oracle import FiniteLp


def hyperplane_lp(m, n, seed, lift):
    """Gaussian columns projected onto ``y_perp``, plus ``lift * y``.

    ``y`` is a seeded unit vector, feasible with ``a_t^T y = lift`` for
    every column.  With ``lift = 0`` every column lies in the hyperplane
    and a finite dual certificate exists (the degenerate LP); with ``lift
    = 1e-5`` the feasible cone is thinner than epsilon (the thin LP).
    """
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m)
    y /= np.linalg.norm(y)
    cols = rng.standard_normal((m, n))
    cols -= np.outer(y, y @ cols)
    return FiniteLp(cols + lift * y[:, None])
