"""The ``solve_probe`` fixture: observes solves from outside the solver.

The solver keeps no record of its steps.  The probe wraps six of its
functions with ``monkeypatch`` and records one thing from each call, so
the guarantee tests can check per-step, per-reduction, per-cycle and
per-contraction invariants without the solver carrying any
instrumentation of its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import prfeas.solver
from prfeas.solver import (
    ConvexCombination,
    RescalingState,
    inverse_with_factorization,
)


@dataclass(frozen=True)
class Elimination:
    """A support right after one reduction or minor cycle.

    The first five fields are the invariants the guarantee tests check;
    ``g_residual`` is None only after a reduction that found no basis
    inverse and took its null vector from an SVD, which ``null_step``
    marks.
    ``state`` holds the term order and the bytes of the weights, ``z`` and
    ``G``, so two supports can be compared bit for bit; ``support`` is the
    support that reduced and takes no part in comparisons.
    """

    size: int
    min_weight: float
    weight_sum_error: float
    combination_error: float
    g_residual: float | None
    null_step: bool
    state: tuple = field(repr=False)
    support: object = field(compare=False, repr=False)


def observe(support, null_step=False) -> Elimination:
    """Compute an :class:`Elimination` from a support's current state."""
    weights = np.asarray(support.weights, dtype=float)
    return Elimination(
        size=len(support.entries),
        min_weight=float(weights.min()),
        weight_sum_error=abs(support.weight_sum() - 1.0),
        combination_error=float(
            np.linalg.norm(support.combination() - support.z)),
        g_residual=support.g_residual(),
        null_step=null_step,
        state=(tuple(support.entries),
               weights.tobytes(), support.z.tobytes(),
               None if support.G is None else support.G.tobytes()),
        support=support,
    )


class SolveProbe:
    """What the wrapped solver functions did since the last :meth:`clear`.

    * ``runs``: ``iterations`` of each ``basic_procedure`` result;
    * ``steps``: ``(1/||z||^2, 1/||z_new||^2)`` of each ``step_alpha`` call;
    * ``eliminations``: an :class:`Elimination` after each ``_reduce``
      call;
    * ``largest_support``: the most terms a ``ConvexCombination`` held
      after any ``add_term`` call;
    * ``contractions``: ``(||z||, mu, x_h)`` for each inner run that ended
      ``small_aggregate``, with ``mu = 1/sqrt(3m)`` the threshold the run
      derives for itself and ``x_h`` its heaviest weight;
    * ``rescales``: a copy of each direction ``RescalingState.rescale``
      contracts along;
    * ``cycles``: ``(record, mu, z_norm)`` for each minor cycle that moved
      the weights, with the :class:`Elimination` record of the support
      after it, the ``mu`` of its inner run (``1/sqrt(3m)``, as above) and
      the ``||z||`` it returned.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._mu = None
        self.clear()
        basic_procedure = prfeas.solver.basic_procedure
        step_alpha = prfeas.solver.step_alpha
        rescale = RescalingState.rescale
        minor_cycle = ConvexCombination.minor_cycle
        add_term = ConvexCombination.add_term

        def recording_basic_procedure(instance, state, *args):
            self._mu = mu = 1.0 / math.sqrt(3.0 * instance.m)
            result = basic_procedure(instance, state, *args)
            self.runs.append(result.iterations)
            if result.status == "small_aggregate":
                cc = result.combination
                self.contractions.append((float(np.linalg.norm(cc.z)), mu,
                                          float(np.max(cc.weights))))
            return result

        def recording_add_term(support, *args):
            add_term(support, *args)
            self.largest_support = max(self.largest_support,
                                       len(support.entries))

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
        monkeypatch.setattr(ConvexCombination, "add_term", recording_add_term)
        self.watch_support(ConvexCombination)

    def clear(self) -> None:
        """Start new record lists; lists taken earlier keep their contents."""
        self.runs = []
        self.steps = []
        self.eliminations = []
        self.largest_support = 0
        self.contractions = []
        self.rescales = []
        self.cycles = []

    def watch_support(self, cls) -> None:
        """Record the reductions of every support of class ``cls``.

        Whether a reduction takes the SVD path is decided before the call,
        as ``_reduce`` decides it: no ``G``, and none can be built over the
        first ``m + 1`` terms.  The inverse is the one imported here, so a
        test that counts or forbids the solver's rebuilds does not see the
        probe's.
        """
        reduce = cls._reduce

        def recording_reduce(support):
            null_step = support.G is None and \
                inverse_with_factorization(support.basis_matrix()) is None
            reduce(support)
            self.eliminations.append(observe(support, null_step))

        self._monkeypatch.setattr(cls, "_reduce", recording_reduce)


@pytest.fixture
def solve_probe(monkeypatch):
    return SolveProbe(monkeypatch)
