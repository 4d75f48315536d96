"""The ``solve_probe`` fixture: observes solves from outside the solver.

The solver keeps no record of its steps.  The probe wraps five of its
functions with ``monkeypatch`` and records one thing from each call, so
the guarantee tests can check per-step, per-elimination and per-cycle
invariants without the solver carrying any instrumentation of its own.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

import prfeas.solver
from prfeas.solver import ConvexCombination, RescalingState


@dataclass(frozen=True)
class Elimination:
    """A support right after one elimination or minor cycle.

    The first five fields are the invariants the guarantee tests check.
    ``state`` holds the term order and the bytes of the weights, ``z`` and
    ``G``, so two supports can be compared bit for bit; ``support`` is the
    support that eliminated and takes no part in comparisons.
    """

    size: int
    min_weight: float
    weight_sum_error: float
    combination_error: float
    g_residual: float | None
    state: tuple = field(repr=False)
    support: object = field(compare=False, repr=False)


def observe(support) -> Elimination:
    """Compute an :class:`Elimination` from a support's current state."""
    weights = np.asarray(support.weights, dtype=float)
    return Elimination(
        size=len(support.entries),
        min_weight=float(weights.min()),
        weight_sum_error=abs(support.weight_sum() - 1.0),
        combination_error=float(
            np.linalg.norm(support.combination() - support.z)),
        g_residual=support.g_residual(),
        state=(tuple(e.witnessed for e in support.entries),
               weights.tobytes(), support.z.tobytes(),
               None if support.G is None else support.G.tobytes()),
        support=support,
    )


class SolveProbe:
    """What the wrapped solver functions did since the last :meth:`clear`.

    * ``runs``: ``iterations`` of each ``basic_procedure`` result;
    * ``steps``: ``(1/||z||^2, 1/||z_new||^2)`` of each ``step_alpha`` call;
    * ``eliminations``: an :class:`Elimination` after each
      ``_eliminate_one`` call;
    * ``rescales``: a copy of each direction ``RescalingState.rescale``
      contracts along;
    * ``cycles``: ``(record, mu, z_norm)`` for each minor cycle that moved
      the weights, with the :class:`Elimination` record of the support
      after it, the ``mu`` of its inner run and the ``||z||`` it returned.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._mu = None
        self.clear()
        basic_procedure = prfeas.solver.basic_procedure
        step_alpha = prfeas.solver.step_alpha
        rescale = RescalingState.rescale
        minor_cycle = ConvexCombination.minor_cycle

        def recording_basic_procedure(instance, state, mu):
            self._mu = mu
            result = basic_procedure(instance, state, mu)
            self.runs.append(result.iterations)
            return result

        def recording_step_alpha(z, a):
            alpha, z_new = step_alpha(z, a)
            self.steps.append((1.0 / float(z @ z),
                               1.0 / float(z_new @ z_new)))
            return alpha, z_new

        def recording_rescale(state, a_scaled):
            self.rescales.append(np.array(a_scaled, dtype=float))
            rescale(state, a_scaled)

        def recording_minor_cycle(support, z_norm, floor):
            after = minor_cycle(support, z_norm, floor)
            if after != z_norm:
                self.cycles.append((observe(support), self._mu, after))
            return after

        monkeypatch.setattr(prfeas.solver, "basic_procedure",
                            recording_basic_procedure)
        monkeypatch.setattr(prfeas.solver, "step_alpha", recording_step_alpha)
        monkeypatch.setattr(RescalingState, "rescale", recording_rescale)
        monkeypatch.setattr(ConvexCombination, "minor_cycle",
                            recording_minor_cycle)
        self.watch_support(ConvexCombination)

    def clear(self) -> None:
        """Start new record lists; lists taken earlier keep their contents."""
        self.runs = []
        self.steps = []
        self.eliminations = []
        self.rescales = []
        self.cycles = []

    def watch_support(self, cls) -> None:
        """Record the eliminations of every support of class ``cls``."""
        eliminate_one = cls._eliminate_one

        def recording_eliminate_one(support):
            eliminate_one(support)
            self.eliminations.append(observe(support))

        self._monkeypatch.setattr(cls, "_eliminate_one",
                                  recording_eliminate_one)


@pytest.fixture
def solve_probe(monkeypatch):
    return SolveProbe(monkeypatch)
