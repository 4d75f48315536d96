"""The semicircle separation oracle shared by the end-to-end and
acceptance tests.

Its columns are the unit directions ``(cos t, sin t)`` for ``t`` in the
half-open arc (0, pi] or the open arc (0, pi): the closed arc holds the
antipodal pair t -> 0 and t = pi only in the limit, so it has no finite
dual certificate, and the open arc is feasible only along (0, 1) itself.
"""

import math

import numpy as np

from prfeas.oracle import CustomWitness, WitnessedColumn

TWO_PI = 2.0 * math.pi


def make_semicircle(include_pi):
    """Separation oracle for unit directions (cos t, sin t), t in an arc.

    The arc is (0, pi] when ``include_pi`` else (0, pi).  The violating
    set of a query is a half-circle, so it suffices to test the sinusoid
    minimizer, the two zero crossings, and the closed endpoint.
    """

    def column(t):
        return np.array([math.cos(t), math.sin(t)])

    def in_domain(t):
        if include_pi:
            return 0.0 < t <= math.pi
        return 0.0 < t < math.pi

    def fn(y):
        y1, y2 = float(y[0]), float(y[1])
        phi = math.atan2(y2, y1)
        candidates = [
            (phi + math.pi) % TWO_PI,
            (phi + 0.5 * math.pi) % TWO_PI,
            (phi - 0.5 * math.pi) % TWO_PI,
        ]
        if include_pi:
            candidates.append(math.pi)
        # a zero crossing evaluates to rounding noise, not exactly 0; a
        # band this narrow stays inside the query soundness tolerance
        tol = 1e-14 * (abs(y1) + abs(y2))
        best = None
        for t in candidates:
            if not in_domain(t):
                continue
            val = y1 * math.cos(t) + y2 * math.sin(t)
            if val <= tol and (best is None or val < best[1]):
                best = (t, val)
        if best is None:
            return None
        return WitnessedColumn(CustomWitness(best[0]), column(best[0]))

    return fn
