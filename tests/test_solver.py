import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import prfeas.certify
import prfeas.solver
from prfeas.certify import generate_planted, verify_p_certificate
from prfeas.cli import solve_report
from prfeas.oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    Sdp,
    SocpVector,
    WitnessedColumn,
    rescaled_scales,
    vector_norm,
)
from prfeas.solver import (
    DEGENERATE_COLUMN_TOL,
    G_RECHECK_INTERVAL,
    G_RESIDUAL_TOL,
    REFILL_PIVOT_RATIO,
    SMW_TOL,
    ConfigError,
    ConvexCombination,
    InvariantViolated,
    RescalingState,
    basic_procedure,
    inverse_with_factorization,
    main_algorithm,
    rescale_budget,
    smw_inverse_update,
    step_alpha,
)

from hyperplane import hyperplane_lp
from semicircle import make_semicircle

SQRT2 = math.sqrt(2.0)


def term(label, vec, weight):
    vec = np.asarray(vec, dtype=float)
    return WitnessedColumn(CustomWitness(label), vec), vec, weight


# ---------------------------------------------------------------------------
# list-backed reference support: one Python float per term, one loop per
# update, as the support was written before its weights became an array.
# It also counts which paths ran, so the comparison can show it covered
# them; a refill counts apart by the sign of the emptied slot's g_t, since
# with g_t <= 0 the plain ratio test would not have picked that slot.


@dataclass(eq=False)
class ListTerm:
    witnessed: WitnessedColumn
    a_scaled: np.ndarray
    scale_norm: float
    weight: float


class ListConvexCombination:
    def __init__(self, m):
        self.m = m
        self.terms = []
        self.z = np.zeros(m)
        self.G = None
        self._by_column = {}
        self._reductions = 0
        self._vacant = None
        self.events = Counter()

    @property
    def entries(self):
        return [e.witnessed for e in self.terms]

    @property
    def weights(self):
        return np.array([e.weight for e in self.terms], dtype=float)

    def weight_sum(self):
        return float(sum(e.weight for e in self.terms))

    def combination(self):
        out = np.zeros(self.m)
        for e in self.terms:
            out += e.weight * e.a_scaled
        return out

    def basis_matrix(self):
        k = self.m + 1
        B = np.ones((k, k))
        for j, e in enumerate(self.terms[:k]):
            B[: self.m, j] = e.a_scaled
        return B

    def g_residual(self):
        if self.G is None:
            return None
        R = self.G @ self.basis_matrix() - np.eye(self.m + 1)
        return float(np.max(np.abs(R)))

    def scale_weights(self, alpha):
        for e in self.terms:
            e.weight *= alpha

    def add_term(self, witnessed, a_scaled, scale_norm, add_weight):
        existing = self._by_column.get(witnessed.column.tobytes())
        if existing is not None:
            self.events["repeated"] += 1
            existing.weight += add_weight
            return
        term = ListTerm(witnessed, np.asarray(a_scaled, dtype=float).copy(),
                        scale_norm, add_weight)
        self.terms.append(term)
        self._by_column[witnessed.column.tobytes()] = term
        if len(self.terms) > self.m + 1:
            self._reduce()

    def _reduce(self):
        k = self.m + 1
        if self.G is None:
            self.G = inverse_with_factorization(self.basis_matrix())
        if self.G is None:
            self.events["null_step"] += 1
            B = np.ones((k, k + 1))
            for j, e in enumerate(self.terms):
                B[: self.m, j] = e.a_scaled
            g = np.linalg.svd(B)[2][-1].tolist()
            if g[-1] < 0.0:
                g = [-x for x in g]
        else:
            gamma = self.G @ np.append(self.terms[k].a_scaled, 1.0)
            g = [-x for x in gamma.tolist()] + [1.0]
        vacant, self._vacant = self._vacant, None
        if vacant is not None and self.terms[vacant].weight == 0.0:
            t, theta = vacant, 0.0
            self.events["refilled, g_t > 0" if g[t] > 0.0
                        else "refilled, g_t <= 0"] += 1
        else:
            t, theta = None, math.inf
            for j, e in enumerate(self.terms):
                if g[j] > 0.0 and e.weight / g[j] < theta:
                    t, theta = j, e.weight / g[j]
            if self.G is not None:
                self.events["absorbed" if t == k else "swapped"] += 1
        for j, e in enumerate(self.terms):
            e.weight -= theta * g[j]
        leaving = self.terms[t]
        del self._by_column[leaving.witnessed.column.tobytes()]
        if self.G is None or t == k:
            del self.terms[t]
        else:
            incoming = self.terms.pop()
            self.terms[t] = incoming
            self.G = smw_inverse_update(
                self.G, np.append(incoming.a_scaled - leaving.a_scaled, 0.0),
                t)
            if self.G is None \
                    or abs(g[t]) * REFILL_PIVOT_RATIO < max(map(abs, g)):
                self._check_residual()
        self._reductions += 1
        if self.G is not None and self._reductions % G_RECHECK_INTERVAL == 0:
            self._check_residual()

    def _check_residual(self):
        if self.G is None or self.g_residual() > G_RESIDUAL_TOL:
            self.G = inverse_with_factorization(self.basis_matrix())

    def minor_cycle(self, z_norm, floor):
        lam = self.G[:, self.m].tolist()
        t, theta = None, math.inf
        for j, e in enumerate(self.terms):
            gap = e.weight - lam[j]
            if gap > 0.0 and e.weight / gap < theta:
                t, theta = j, e.weight / gap
        if not (theta > 0.0 and (1.0 - theta) * z_norm > floor):
            return z_norm
        self.events["cycled"] += 1
        for j, e in enumerate(self.terms):
            e.weight -= theta * (e.weight - lam[j])
            if e.weight < 0.0:
                e.weight = 0.0
        self.terms[t].weight = 0.0
        self.z = (1.0 - theta) * self.z
        self._vacant = t
        return (1.0 - theta) * z_norm


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def support_sequence(rng, m, steps=160):
    """Seeded (witnessed column, a_scaled, scale_norm, alpha, cycle) steps.

    The first steps lie in a subspace where no m+1 columns are affinely
    independent, so the support reduces by null steps; about one step in
    six repeats an earlier witness (half of them as an equal, distinct
    witness object), and for m = 1 every column is +-1, so distinct
    witnesses repeat a column too; about one in twelve scales the old
    weights by 1e-17; about one in three asks for a minor cycle after the
    insertion.
    """
    flat = 4 + int(rng.integers(0, 4))
    seen = []
    out = []
    for i in range(steps):
        if seen and rng.random() < 1.0 / 6.0:
            wc, v = seen[int(rng.integers(len(seen)))]
            if isinstance(wc.witness, SocpVector) and rng.random() < 0.5:
                wc = WitnessedColumn(SocpVector(wc.witness.v), wc.column)
        else:
            if i < flat:
                v = np.zeros(m)
                v[0] = 1.0
                if m > 1:
                    v[: m - 1] = unit(rng.standard_normal(m - 1))
            else:
                v = unit(rng.standard_normal(m))
            witness = SocpVector(tuple(v.tolist())) if rng.random() < 0.5 \
                else CustomWitness(i)
            wc = WitnessedColumn(witness, v)
            seen.append((wc, v))
        alpha = 1e-17 if rng.random() < 1.0 / 12.0 \
            else float(rng.uniform(0.3, 0.95))
        out.append((wc, v, float(rng.uniform(0.5, 2.0)), alpha,
                    rng.random() < 1.0 / 3.0))
    return out


class TestStepAlpha:
    def test_orthogonal_pair(self):
        alpha, z_new = step_alpha(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert alpha == pytest.approx(0.5)
        assert_allclose(z_new, np.array([0.5, 0.5]), atol=0)
        assert 1.0 / (z_new @ z_new) == pytest.approx(2.0)

    def test_oblique_pair(self):
        z = np.array([0.6, 0.8])
        a = np.array([0.0, -1.0])
        alpha, z_new = step_alpha(z, a)
        assert alpha == pytest.approx(0.5, abs=1e-15)
        assert_allclose(z_new, np.array([0.3, -0.1]), atol=1e-15)
        assert 1.0 / (z_new @ z_new) == pytest.approx(10.0)

    def test_coincident_points_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(InvariantViolated, match="incoming column "
                           "coincides with the aggregate"):
            step_alpha(v, v.copy())

    def test_minimum_norm_property(self):
        # alpha* in [0,1] and f(alpha*) <= |a|^2 |z|^2 / (|a|^2 + |z|^2)
        # when a^T z <= 0; alpha* in [1/2, 1] whenever ||z|| <= 1 and
        # a^T z < ||z||^2, which admits the oracle band 0 < a^T z
        rng = np.random.default_rng(21)
        for _ in range(2000):
            m = int(rng.integers(1, 8))
            a = rng.standard_normal(m)
            a /= np.linalg.norm(a)
            z = rng.standard_normal(m) * rng.uniform(0.01, 2.0)
            band = m > 1 and rng.random() < 0.25
            if band:
                # 0 < a^T z <= ||z - (a^T z) a||^2 < ||z||^2 <= 1
                z -= (a @ z) * a
                z *= rng.uniform(0.01, 0.99) / np.linalg.norm(z)
                p2 = float(z @ z)
                z += rng.uniform(1e-3, 1.0) * min(p2, math.sqrt(1.0 - p2)) * a
                assert 0.0 < a @ z < z @ z <= 1.0 + 1e-15
            elif a @ z > 0:
                z -= 2.0 * (a @ z) * a  # reflect to enforce a^T z <= 0
            alpha, z_new = step_alpha(z, a)
            assert -1e-12 <= alpha <= 1.0 + 1e-12
            z2 = float(z @ z)
            if z2 <= 1.0:
                assert 0.5 - 1e-12 <= alpha
            if not band:
                assert float(z_new @ z_new) <= z2 / (1.0 + z2) + 1e-12


class TestRescaleMatrix:
    def test_worked_example(self):
        state = RescalingState(2)
        state.rescale(np.array([1.0, 1.0]) / SQRT2)
        assert_allclose(state.M, np.array([[0.75, -0.25], [-0.25, 0.75]]),
                        atol=1e-15)

    def test_determinant_and_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            a = rng.standard_normal(m)
            a /= np.linalg.norm(a)
            state = RescalingState(m)
            state.rescale(a)
            assert abs(np.linalg.det(state.M) - 0.5) <= 1e-12
            assert_allclose(state.M @ (np.eye(m) + np.outer(a, a)),
                            np.eye(m), atol=1e-12)


class TestRescaleBudget:
    @pytest.mark.parametrize("eps,expected", [
        (0.5, 4), (0.9, 1), (1e-2, 24), (1e-6, 72), (0.999999, 1),
    ])
    def test_values(self, eps, expected):
        assert rescale_budget(eps) == expected

    def test_matches_contraction_rate(self):
        # the budget is the first s with (sqrt(e)/2)^s <= eps: the declared
        # epsilon max(eps, rate^s) is eps exactly once the budget is spent.
        # At the least subnormal, rate^(s - 1) rounds to eps as well
        rate = math.sqrt(math.e) / 2.0
        tiny = [10.0**-k for k in range(1, 308)] + [1e-310, 5e-324]
        for eps in [0.5, 0.25] + tiny:
            s = rescale_budget(eps)
            assert rate**s <= eps
            assert s == 1 or rate ** (s - 1) > eps \
                or rate ** (s - 1) == eps == 5e-324
        assert rescale_budget(5e-324) == 3855

    def test_least_subnormal_epsilon_solves(self):
        # 1/eps overflows there, which the budget must not take
        out = main_algorithm(FiniteLp(np.eye(2)), 5e-324)
        assert (out.status, out.s_star) == ("feasible", 3855)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_budget_bounds_the_inner_runs(self, k):
        # epsilon = (sqrt(e)/2)^k allows k inner runs: a system that no run
        # decides spends them all and declares epsilon itself
        eps = (math.sqrt(math.e) / 2.0) ** k
        out = main_algorithm(hyperplane_lp(10, 200, 1, 1e-5), eps)
        assert (out.status, out.s_star, out.epsilon) == \
            ("epsilon_declared", k, eps)
        assert (out.counters.bp_calls, out.counters.rescalings) == (k, k)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_epsilon(self, eps):
        with pytest.raises(ConfigError):
            rescale_budget(eps)


class TestRescalingState:
    def test_factored_transpose_normalization(self):
        state = RescalingState(2)
        state.rescale(np.array([1.0, 0.0]))
        unit, _ = state.normalize(np.array([1.0, 1.0]))
        assert_allclose(unit, np.array([1.0, 2.0]) / math.sqrt(5.0),
                        atol=1e-15)

    def test_factored_apply(self):
        state = RescalingState(2)
        state.rescale(np.array([1.0, 0.0]))
        assert_allclose(state.apply(np.array([2.0, 3.0])),
                        np.array([1.0, 3.0]), atol=0)

    def test_dense_factored_agreement(self):
        # the dense map against the explicit product of its factors
        rng = np.random.default_rng(9)
        m = 6
        state = RescalingState(m)
        product = np.eye(m)
        for _ in range(10):
            a = rng.standard_normal(m)
            a /= np.linalg.norm(a)
            state.rescale(a)
            product = product @ (np.eye(m) - 0.5 * np.outer(a, a))
        assert state.s == 10
        for _ in range(20):
            z = rng.standard_normal(m)
            assert np.max(np.abs(state.apply(z) - product @ z)) <= 1e-12
            assert np.max(np.abs(state.apply_transpose(z)
                                 - product.T @ z)) <= 1e-12

    def test_degenerate_column(self):
        state = RescalingState(2)
        with pytest.raises(InvariantViolated,
                           match="rescaled column norm underflowed"):
            state.normalize(np.array([1e-308, 0.0]))

    def test_dimension_must_be_positive(self):
        with pytest.raises(ConfigError,
                           match="dimension m must be at least 1"):
            RescalingState(0)


class TestConvexCombinationElimination:
    def build(self, m, terms):
        cc = ConvexCombination(m)
        z = np.zeros(m)
        for label, vec, weight in terms:
            wc, v, wt = term(label, vec, weight)
            cc.add_term(wc, v, 1.0, wt)
            z += wt * v
        cc.z = z
        return cc

    def weights_by_label(self, cc):
        return {e.witness.label: x
                for e, x in zip(cc.entries, cc.weights.tolist())}

    def test_duplicate_direction_one_dim(self):
        # basis {+1, -1} with weights (0.3, 0.2); incoming +1 with 0.5:
        # gamma = (1, 0), no negative entries, the incoming term is absorbed.
        cc = self.build(1, [("p", [1.0], 0.3), ("q", [-1.0], 0.2)])
        wc, v, wt = term("r", [1.0], 0.5)
        cc.add_term(wc, v, 1.0, wt)
        w = self.weights_by_label(cc)
        assert set(w) == {"p", "q"}
        assert w["p"] == pytest.approx(0.8, abs=1e-12)
        assert w["q"] == pytest.approx(0.2, abs=1e-12)
        assert cc.combination()[0] == pytest.approx(0.6, abs=1e-12)
        assert cc.weight_sum() == pytest.approx(1.0, abs=1e-12)

    BASIS_2D = [
        ("a", [1.0, 0.0], None),
        ("b", [0.0, 1.0], None),
        ("c", [-1.0 / SQRT2, -1.0 / SQRT2], None),
    ]

    def basis_with_weights(self, w):
        return [(lbl, vec, wt) for (lbl, vec, _), wt in zip(self.BASIS_2D, w)]

    def test_incoming_absorbed_two_dim(self):
        # gamma = (2 - sqrt2, 1 - sqrt2, 2 sqrt2 - 2); ratio test passes
        cc = self.build(2, self.basis_with_weights([0.25, 0.25, 0.25]))
        wc, v, wt = term("d", [0.0, -1.0], 0.25)
        cc.z = cc.z + wt * v
        cc.add_term(wc, v, 1.0, wt)
        w = self.weights_by_label(cc)
        assert set(w) == {"a", "b", "c"}
        assert w["a"] == pytest.approx(0.25 * (3.0 - SQRT2), abs=1e-12)
        assert w["b"] == pytest.approx(0.25 * (2.0 - SQRT2), abs=1e-12)
        assert w["c"] == pytest.approx(0.25 * (2.0 * SQRT2 - 1.0), abs=1e-12)
        assert cc.weight_sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(cc.combination() - cc.z) <= 1e-12

    def test_residual_check_rebuilds_a_drifted_g(self):
        # the recovery a reduction runs after a small pivot and every
        # G_RECHECK_INTERVAL reductions: G drifted past G_RESIDUAL_TOL is
        # rebuilt, and nothing else of the support moves
        cc = self.build(2, self.basis_with_weights([0.25, 0.25, 0.5]))
        cc.G = np.linalg.inv(cc.basis_matrix()) + 1e-6
        assert cc.g_residual() > G_RESIDUAL_TOL
        entries = list(cc.entries)
        weights, z = cc.weights.tobytes(), cc.z.tobytes()
        cc._check_residual()
        assert cc.g_residual() <= G_RESIDUAL_TOL
        assert len(cc.entries) == len(entries)
        assert all(a is b for a, b in zip(cc.entries, entries))
        assert cc.weights.tobytes() == weights
        assert cc.z.tobytes() == z

    def test_blocking_term_swapped_out(self):
        # beta* = 0.05 (sqrt2 + 1) < 0.85: witness "b" leaves, the incoming
        # term takes its basis slot.
        cc = self.build(2, self.basis_with_weights([0.05, 0.05, 0.05]))
        wc, v, wt = term("d", [0.0, -1.0], 0.85)
        cc.z = cc.z + wt * v
        cc.add_term(wc, v, 1.0, wt)
        w = self.weights_by_label(cc)
        beta = 0.05 * (SQRT2 + 1.0)
        assert set(w) == {"a", "c", "d"}
        assert w["a"] == pytest.approx(beta, abs=1e-12)
        assert w["c"] == pytest.approx(0.15, abs=1e-12)
        assert w["d"] == pytest.approx(0.85 - beta, abs=1e-12)
        assert cc.weight_sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(cc.combination() - cc.z) <= 1e-12
        assert cc.g_residual() <= 1e-8

    def test_equal_columns_merge(self):
        # two witnesses of one column are one point of the hull: the
        # first witness keeps the summed weight
        cc = self.build(2, [("a", [1.0, 0.0], 0.25), ("b", [1.0, 0.0], 0.75)])
        assert self.weights_by_label(cc) == {"a": 1.0}
        assert_allclose(cc.z, cc.combination(), atol=0)

    def test_rank_deficient_insertions_take_null_steps(self, solve_probe):
        # distinct unit columns in the e1-e2 plane: no invertible basis
        # exists, so each insertion past m+1 terms drops one by a null
        # step, keeping z
        m = 3
        columns = [[math.cos(t), math.sin(t), 0.0] for t in
                   (0.0, math.pi, math.pi / 2, 3 * math.pi / 2,
                    math.pi / 4, 5 * math.pi / 4)] + [[0.0, 0.0, 1.0]]
        cc = ConvexCombination(m)
        for i, vec in enumerate(columns):
            wc, v, _ = term(i, vec, 0.0)
            if i == 0:
                cc.add_term(wc, v, 1.0, 1.0)
                cc.z = v.copy()
            else:
                alpha = 1.0 - 1.0 / (i + 1)
                cc.scale_weights(alpha)
                cc.z = alpha * cc.z + (1.0 - alpha) * v
                cc.add_term(wc, v, 1.0, 1.0 - alpha)
            assert len(cc.entries) <= m + 1
            assert cc.weight_sum() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(cc.combination() - cc.z) <= 1e-12
        # the six plane columns sum to zero
        assert_allclose(cc.z, np.array([0.0, 0.0, 1.0 / 7.0]), atol=1e-12)
        assert any(rec.null_step for rec in solve_probe.eliminations)

    def test_random_stress_keeps_invariants(self, solve_probe):
        rng = np.random.default_rng(5)
        m = 4
        cc = ConvexCombination(m)
        vecs = []
        for i in range(3):
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            vecs.append(v)
            cc.add_term(WitnessedColumn(CustomWitness(i), v), v, 1.0,
                        1.0 / 3.0)
        cc.z = cc.combination().copy()
        for i in range(3, 400):
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            alpha = rng.uniform(0.3, 0.95)
            cc.scale_weights(alpha)
            cc.z = alpha * cc.z + (1.0 - alpha) * v
            cc.add_term(WitnessedColumn(CustomWitness(i), v), v, 1.0,
                        1.0 - alpha)
        assert len(cc.entries) <= m + 1
        assert solve_probe.eliminations  # reductions actually happened
        for rec in solve_probe.eliminations:
            assert rec.size <= m + 1
            assert rec.min_weight >= -1e-12
            assert rec.weight_sum_error <= 1e-10
            assert rec.combination_error <= 1e-10
            if rec.g_residual is None:
                assert rec.null_step
            else:
                assert rec.g_residual <= 1e-8

    def test_matches_list_backed_reference(self, solve_probe):
        # the array-backed support must reproduce the list-backed one bit
        # for bit: weights, aggregate, basis inverse and term order after
        # every insertion, every minor cycle and every reduction
        solve_probe.watch_support(ListConvexCombination)
        events = Counter()

        def assert_same(cc, ref):
            assert cc.entries == ref.entries
            assert cc.weights.tobytes() == ref.weights.tobytes()
            assert cc.z.tobytes() == ref.z.tobytes()
            assert (cc.G is None) == (ref.G is None)
            if cc.G is not None:
                assert cc.G.tobytes() == ref.G.tobytes()
            assert cc.weight_sum() == ref.weight_sum()

        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = 1 + seed % 4
            ref, cc = ListConvexCombination(m), ConvexCombination(m)
            solve_probe.clear()
            for i, (wc, v, nrm, alpha, cycle) in enumerate(
                    support_sequence(rng, m)):
                if i == 0:
                    ref.add_term(wc, v, nrm, 1.0)
                    cc.add_term(wc, v, nrm, 1.0)
                    ref.z, cc.z = v.copy(), v.copy()
                else:
                    ref.scale_weights(alpha)
                    cc.scale_weights(alpha)
                    z = alpha * ref.z + (1.0 - alpha) * v
                    ref.z, cc.z = z, z.copy()
                    ref.add_term(wc, v, nrm, 1.0 - alpha)
                    cc.add_term(wc, v, nrm, 1.0 - alpha)
                assert_same(cc, ref)
                if cycle and cc.G is not None and len(cc.entries) == m + 1:
                    z_norm = float(np.linalg.norm(cc.z))
                    assert cc.minor_cycle(z_norm, 0.0) == \
                        ref.minor_cycle(z_norm, 0.0)
                    assert_same(cc, ref)
            # records compare term order and the bytes of weights, z and G
            ours = [r for r in solve_probe.eliminations if r.support is cc]
            theirs = [r for r in solve_probe.eliminations if r.support is ref]
            assert ours == theirs
            events += ref.events
        for path in ("repeated", "absorbed", "swapped", "null_step",
                     "cycled", "refilled, g_t > 0", "refilled, g_t <= 0"):
            assert events[path] > 0, path


class TestBasicProcedure:
    def test_immediate_feasible(self):
        inst = FiniteLp(np.eye(2))
        state = RescalingState(2)
        res = basic_procedure(inst, state)
        assert res.status == "feasible"
        assert_allclose(res.y, np.array([1.0, 1.0]), atol=0)
        assert res.iterations == 0
        # the accepted query and its re-check by verify_d_solution
        assert res.oracle_calls == 2
        assert res.verification.accepted

    def test_antipodal_columns_give_dual(self):
        inst = FiniteLp(np.array([[1.0, -1.0], [0.0, 0.0]]))
        state = RescalingState(2)
        res = basic_procedure(inst, state)
        assert res.status == "dual"
        # built-in witnesses stand alone, as in SolveOutcome.weights
        weights = dict(res.certificate)
        assert weights[LpIndex(0)] == pytest.approx(0.5)
        assert weights[LpIndex(1)] == pytest.approx(0.5)
        assert res.verification.accepted

    def test_terminates_within_bound_on_thin_instance(self, solve_probe):
        inst = FiniteLp(np.array([[1.0, -1.0], [1e-3, 1e-3]]))
        state = RescalingState(2)
        res = prfeas.solver.basic_procedure(inst, state)
        assert res.status in ("feasible", "dual", "small_aggregate")
        assert res.iterations <= 54  # ceil((m+1)^2 / mu^2) with m = 2
        assert solve_probe.runs == [res.iterations]
        assert len(solve_probe.steps) == res.iterations

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_steps_without_progress_break_the_iteration_bound(
            self, m, monkeypatch):
        # every step leaves z where it was, so ||z|| never reaches an exit
        # and the run passes the proven bound ceil((m+1)^2/mu^2)+1
        monkeypatch.setattr(prfeas.solver, "step_alpha",
                            lambda z, a: (1.0, z))
        inst = CustomOracle(m, lambda y: WitnessedColumn(
            CustomWitness("back"), -y / np.linalg.norm(y)))
        mu = 1.0 / math.sqrt(3.0 * m)
        bound = math.ceil((m + 1) ** 2 / mu**2) + 1
        with pytest.raises(InvariantViolated, match=f"^{bound + 1} "
                           f"iterations exceed the bound {bound}$"):
            basic_procedure(inst, RescalingState(m))

    def test_column_inside_the_oracle_band_stalls(self):
        # lambda_min = 1e-7 of diag(1e6, 1e-7) lies inside the Sdp oracle's
        # band, so its column's margin equals ||z||^2 = 1 and cuts nothing
        inst = Sdp(np.array([np.diag([1e6, 1e-7])]))
        res = basic_procedure(inst, RescalingState(1))
        assert res.status == "stalled"
        assert res.iterations == 1 and res.oracle_calls == 2

    def test_stalled_run_declares_the_certified_epsilon(self, monkeypatch):
        # a stalled run ends the solve with max(epsilon, (sqrt(e)/2)^s) for
        # the s contractions completed: 1 when the first run stalls
        out = main_algorithm(Sdp(np.array([np.diag([1e6, 1e-7])])), 1e-6)
        assert (out.status, out.epsilon, out.s_star) == \
            ("epsilon_declared", 1.0, 72)
        assert (out.counters.bp_calls, out.counters.rescalings) == (1, 0)

        # and (sqrt(e)/2)^3 when the fourth run stalls after 3 contractions
        statuses = []

        def stall_fourth(*args):
            result = basic_procedure(*args)
            statuses.append(result.status)
            if len(statuses) == 4:
                result.status = "stalled"
            return result

        monkeypatch.setattr(prfeas.solver, "basic_procedure", stall_fourth)
        out = main_algorithm(hyperplane_lp(10, 200, 1, 1e-5), 1e-6)
        assert statuses == ["small_aggregate"] * 4
        assert (out.status, out.s_star) == ("epsilon_declared", 72)
        assert (out.counters.bp_calls, out.counters.rescalings) == (4, 3)
        assert out.epsilon == (math.sqrt(math.e) / 2.0) ** 3

    def test_potential_increases_by_one_each_step(self, solve_probe):
        rng = np.random.default_rng(17)
        cols = rng.standard_normal((4, 12))
        y_star = rng.standard_normal(4)
        y_star /= np.linalg.norm(y_star)
        # tilt half the columns toward y_star so the instance is thin
        for j in range(0, 12, 2):
            cols[:, j] += 0.05 * y_star
        inst = FiniteLp(cols)
        state = RescalingState(4)
        basic_procedure(inst, state)
        steps = solve_probe.steps
        assert steps
        for before, after in steps:
            assert after - before >= 1.0 - 1e-9


class TestDeepestCut:
    def test_lp_pick_is_most_violated_rescaled_column(self, monkeypatch):
        rng = np.random.default_rng(23)
        # m = 10, so that the run after three contractions, which may end
        # at ||z|| <= mu x_h, still makes more than three picks
        m, n = 10, 40
        inst = FiniteLp(rng.standard_normal((m, n)))
        state = RescalingState(m)
        M = np.eye(m)
        scales = None
        for _ in range(3):
            a = rng.standard_normal(m)
            a /= np.linalg.norm(a)
            state.rescale(a)
            scales = rescaled_scales(inst, state.M, a, scales)
            M = M @ (np.eye(m) - 0.5 * np.outer(a, a))
        a_hat = M.T @ inst.columns
        a_hat /= np.linalg.norm(a_hat, axis=0)

        points, picks = [], []
        apply, query = state.apply, prfeas.solver.query

        def recording_apply(z):
            points.append(np.array(z))
            return apply(z)

        def recording_query(*args):
            picks.append(query(*args))
            return picks[-1]

        monkeypatch.setattr(state, "apply", recording_apply)
        monkeypatch.setattr(prfeas.solver, "query", recording_query)
        basic_procedure(inst, state, scales=scales)
        assert len(picks) == len(points) > 3
        for z, w in zip(points, picks):
            if w is not None:
                assert w.witness == LpIndex(int(np.argmin(z @ a_hat)))

    def test_socp_pick_is_deepest_cut_at_the_mapped_point(self, monkeypatch):
        # a Socp ranks its blocks in the original space at y = M z, on
        # the instance's own Gram data, in a run after contractions too
        rng = np.random.default_rng(31)
        # m = 10, as in the LP test above
        inst = generate_planted("socp", 10, 80, 3, "feasible_p")[0]
        state = RescalingState(inst.m)
        for _ in range(3):
            a = rng.standard_normal(inst.m)
            state.rescale(a / np.linalg.norm(a))
        M = state.M.copy()

        points, picks = [], []
        apply, query = state.apply, prfeas.solver.query

        def recording_apply(z):
            points.append(np.array(z))
            return apply(z)

        def recording_query(*args):
            picks.append(query(*args))
            return picks[-1]

        monkeypatch.setattr(state, "apply", recording_apply)
        monkeypatch.setattr(prfeas.solver, "query", recording_query)
        basic_procedure(inst, state)
        assert len(picks) == len(points) > 3
        for z, w in zip(points, picks):
            y = M @ z
            x = inst.A.T @ y
            depths = {}
            for b, sl in enumerate(inst.block_slices()):
                tail = x[sl][1:]
                norm = np.linalg.norm(tail)
                if x[sl][0] > norm:
                    continue
                v = np.zeros(inst.n)
                v[sl.start] = 1.0
                if norm > 0.0:
                    v[sl.start + 1 : sl.stop] = -tail / norm
                c = inst.A @ v
                depths[b] = y @ c / np.linalg.norm(c)
            if w is None:
                assert not depths
                continue
            picked = int(np.searchsorted(inst.starts, np.flatnonzero(
                np.asarray(w.witness.v))[0], side="right")) - 1
            assert depths[picked] <= min(depths.values()) + 1e-12

    def test_column_norms_match_per_column_normalization(self):
        rng = np.random.default_rng(29)
        inst = FiniteLp(rng.standard_normal((4, 9)))
        state = RescalingState(4)
        scales = None
        for _ in range(3):
            a = rng.standard_normal(4)
            a /= np.linalg.norm(a)
            state.rescale(a)
            scales = rescaled_scales(inst, state.M, a, scales)
        expected = [state.normalize(c)[1] for c in inst.columns.T]
        assert_allclose(scales, expected, rtol=1e-14)

    def test_contraction_updates_the_lp_scales(self):
        # ||M'^T c||^2 = ||M^T c||^2 - 3/4 ((M a)^T c)^2 for M' = M (I -
        # a a^T / 2), chained from the instance's own column norms over
        # the contraction budget at epsilon = 1e-2
        rng = np.random.default_rng(37)
        inst = FiniteLp(rng.standard_normal((10, 50)))
        state = RescalingState(10)
        scales = None
        for _ in range(rescale_budget(1e-2)):
            a = rng.standard_normal(10)
            a /= np.linalg.norm(a)
            state.rescale(a)
            scales = rescaled_scales(inst, state.M, a, scales)
            fresh = np.linalg.norm(state.M.T @ inst.columns, axis=0)
            assert_allclose(scales, fresh, rtol=1e-12)

    def test_repeated_contraction_keeps_the_lp_scales_in_band(self):
        # columns 0 and 1 are antipodal, and the map contracts along them
        # again and again, over the contraction budget at epsilon = 1e-6,
        # as main_algorithm updates the scales: each such update cancels
        # and multiplies a scale's relative error by about 4, until its
        # square would go below 0; every scale stays within [old/2, old]
        # of the one before, the instance's column norms first
        cols = np.random.default_rng(17).standard_normal((2, 4))
        cols[:, 0] = -cols[:, 1]
        inst = FiniteLp(cols)
        state = RescalingState(2)
        passed = [inst.column_norms]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(rescale_budget(1e-6)):
                a = state.normalize(inst.columns[:, k % 2])[0]
                state.rescale(a)
                passed.append(rescaled_scales(inst, state.M, a, passed[-1]))
        assert len(passed) > 40
        for old, new in zip(passed, passed[1:]):
            assert np.all(np.isfinite(new))
            assert np.all(new >= 0.5 * old * (1.0 - 2.0**-52))
            assert np.all(new <= old * (1.0 + 2.0**-52))

    def test_column_norms_survive_overflowing_squares(self):
        state = RescalingState(2)
        a = np.array([0.6, 0.8])
        state.rescale(a)
        # squares of 1e200 overflow; FiniteLp stores that column scaled
        # into range, so its rescaled norm needs no fallback
        inst = FiniteLp(np.array([[1e200, 1.0], [1e200, 0.0]]))
        expected = [state.normalize(c)[1] for c in inst.columns.T]
        norms = rescaled_scales(inst, state.M, a, None)
        assert np.all(np.isfinite(norms))
        assert_allclose(norms, expected, rtol=1e-14)

    def test_rescaled_scales_of_each_instance_kind(self):
        # only a FiniteLp's scales follow the map
        state = RescalingState(3)
        a = np.array([0.6, 0.8, 0.0])
        state.rescale(a)
        for inst in (generate_planted("socp", 3, 12, 5)[0],
                     Sdp(np.array([np.eye(2), np.diag([1.0, -1.0]),
                                   np.eye(2)])),
                     CustomOracle(3, lambda y: None)):
            assert rescaled_scales(inst, state.M, a, None) is None

    def test_dual_verification_is_the_inner_runs_report(self, monkeypatch):
        results = []
        run = prfeas.solver.basic_procedure

        def recording(instance, state, *args):
            results.append(run(instance, state, *args))
            return results[-1]

        monkeypatch.setattr(prfeas.solver, "basic_procedure", recording)
        out = main_algorithm(generate_planted("lp", 5, 50, 1, "feasible_p")[0])
        assert out.status == "dual_certificate"
        assert results[-1].status == "dual"
        assert out.verification is results[-1].verification
        assert out.verification.accepted

    def test_feasible_verification_is_the_inner_runs_report(
            self, monkeypatch):
        results, checks = [], []
        run = prfeas.solver.basic_procedure
        verify = prfeas.certify.verify_d_solution

        def recording(instance, state, *args):
            results.append(run(instance, state, *args))
            return results[-1]

        def counting(instance, y):
            checks.append(verify(instance, y))
            return checks[-1]

        monkeypatch.setattr(prfeas.solver, "basic_procedure", recording)
        monkeypatch.setattr(prfeas.certify, "verify_d_solution", counting)
        out = main_algorithm(generate_planted("lp", 5, 50, 1)[0])
        assert out.status == "feasible"
        assert results[-1].status == "feasible"
        assert len(checks) == 1
        assert out.verification is results[-1].verification is checks[0]
        assert out.verification.accepted
        assert out.y is results[-1].y
        assert out.counters.oracle_calls == \
            sum(r.oracle_calls for r in results)

    def test_oracle_call_count_guard(self):
        # planted-p LP m=10 n=200, seed 101: the support holds a verified
        # certificate after 5 rescalings and 85 oracle calls (the whole
        # 72-contraction budget and 2,111 calls without the extraction)
        inst = generate_planted("lp", 10, 200, 101, "feasible_p")[0]
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "dual_certificate"
        assert verify_p_certificate(inst, out.weights).accepted
        assert out.counters.oracle_calls <= 2 * 85

    def test_socp_feasible_count_guard(self):
        # planted-d socp m=60 n=1000, seed 106: 178 oracle calls with the
        # first violated block, 107 with the deepest one
        inst = generate_planted("socp", 60, 1000, 106, "feasible_d")[0]
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "feasible"
        assert out.counters.oracle_calls <= 120

    @pytest.mark.parametrize("m,n,seed,calls", [
        # 203 oracle calls with the first violated block, 14 with the
        # deepest one
        (5, 40, 104, 20),
        # 971 oracle calls with the first violated block, 83 with the
        # deepest one
        (20, 200, 1, 200),
    ])
    def test_socp_dual_count_guard(self, m, n, seed, calls):
        inst = generate_planted("socp", m, n, seed, "feasible_p")[0]
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "dual_certificate"
        assert verify_p_certificate(inst, out.weights).accepted
        assert out.counters.oracle_calls <= calls

    def test_full_budget_count_guard(self):
        # thin LP m=10 n=200, seed 106: Gaussian columns in the hyperplane
        # y^perp lifted by 1e-5 y leave a cone thinner than epsilon and no
        # finite certificate, so every candidate support must be rejected
        # and every contraction runs; 1,470 oracle calls
        out = main_algorithm(hyperplane_lp(10, 200, 106, 1e-5),
                             epsilon=1e-6)
        assert out.status == "epsilon_declared"
        assert out.counters.rescalings == 72
        assert out.counters.oracle_calls <= 2 * 1470


class TestMinorCycle:
    def full_support(self):
        # lam = (1, 1, -1) combines the three columns to zero
        cc = ConvexCombination(2)
        for label, vec, weight in [("a", [1.0, 0.5], 0.3),
                                   ("b", [-1.0, 0.5], 0.3),
                                   ("c", [0.0, 1.0], 0.4)]:
            wc, v, wt = term(label, vec, weight)
            cc.add_term(wc, v, 1.0, wt)
        cc.z = cc.combination()
        cc.G = np.linalg.inv(cc.basis_matrix())
        return cc

    def test_cycle_moves_to_the_blocking_weight(self):
        cc = self.full_support()
        z_norm = float(np.linalg.norm(cc.z))  # 0.7
        # theta = 0.4 / 1.4: x becomes (0.5, 0.5, 0) and z shrinks to 0.5
        after = cc.minor_cycle(z_norm, 0.1)
        assert after == pytest.approx(0.5, rel=1e-14)
        assert_allclose(cc.weights, [0.5, 0.5, 0.0], atol=1e-15)
        assert cc.weights[2] == 0.0
        assert_allclose(cc.z, [0.0, 0.5], atol=1e-15)
        assert np.linalg.norm(cc.combination() - cc.z) <= 1e-15

    def test_cycle_that_would_cross_the_floor_does_nothing(self):
        cc = self.full_support()
        weights, z = cc.weights.copy(), cc.z.copy()
        assert cc.minor_cycle(0.7, 0.6) == 0.7
        assert cc.weights.tobytes() == weights.tobytes()
        assert cc.z.tobytes() == z.tobytes()

    def test_next_column_takes_the_emptied_slot(self, monkeypatch):
        cc = self.full_support()
        cc.minor_cycle(float(np.linalg.norm(cc.z)), 0.1)

        def no_rebuild(B):
            raise AssertionError("G was rebuilt")

        monkeypatch.setattr(prfeas.solver, "inverse_with_factorization",
                            no_rebuild)
        wc, v, _ = term("d", [0.2, -1.0], 0.0)
        cc.scale_weights(0.75)
        cc.z = 0.75 * cc.z + 0.25 * v
        cc.add_term(wc, v, 1.0, 0.25)
        assert [e.witness.label for e in cc.entries] == \
            ["a", "b", "d"]
        assert_allclose(cc.weights, [0.375, 0.375, 0.25], atol=1e-15)
        assert cc.g_residual() <= 1e-14
        assert np.linalg.norm(cc.combination() - cc.z) <= 1e-15

    @pytest.mark.parametrize("kind,m,n,seed,target", [
        ("lp", 30, 2000, 101, "feasible_d"),
        ("sdp", 20, 40, 104, "feasible_d"),
        ("socp", 20, 200, 105, "feasible_d"),
        ("socp", 60, 1000, 106, "feasible_d"),
        ("lp", 10, 200, 101, "feasible_p"),
    ])
    def test_every_cycle_keeps_the_invariants(self, solve_probe, kind, m, n,
                                              seed, target):
        inst = generate_planted(kind, m, n, seed, target)[0]
        main_algorithm(inst, epsilon=1e-6)
        if target == "feasible_d":
            assert solve_probe.cycles
        for rec, mu, z_norm in solve_probe.cycles:
            assert rec.size == m + 1
            assert rec.min_weight >= 0.0
            assert rec.weight_sum_error <= 1e-10
            assert rec.combination_error <= 1e-10
            assert rec.g_residual <= G_RESIDUAL_TOL
            # no cycle ends an inner run: ||z|| stays above mu/(m+1)
            assert z_norm > mu / (m + 1)

    def test_cycles_keep_the_basis_inverse(self, monkeypatch, solve_probe):
        # the emptied slot is refilled by a rank-one update, so the whole
        # run inverts its basis once, however many cycles it takes
        rebuilds = []
        inverse = prfeas.solver.inverse_with_factorization

        def counting_inverse(B):
            rebuilds.append(B.shape)
            return inverse(B)

        monkeypatch.setattr(prfeas.solver, "inverse_with_factorization",
                            counting_inverse)
        # planted-d socp m=60 n=1000, seed 105: 24 cycles, one inversion
        inst = generate_planted("socp", 60, 1000, 105, "feasible_d")[0]
        assert main_algorithm(inst, epsilon=1e-6).status == "feasible"
        assert len(solve_probe.cycles) >= 15
        assert len(rebuilds) <= 2

    @pytest.mark.parametrize("kind,m,n,seed,most", [
        # 276 oracle calls without the minor cycle, 105 with it
        ("lp", 60, 5000, 102, 150),
        # 55 and 65 calls with the cycle floor at 8 mu/(m+1), 29 and 16
        # at 2 mu/(m+1)
        ("sdp", 20, 40, 104, 35),
        ("sdp", 8, 20, 203, 20),
    ])
    def test_oracle_call_count_guard(self, kind, m, n, seed, most):
        inst = generate_planted(kind, m, n, seed, "feasible_d")[0]
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "feasible"
        assert out.counters.bp_calls == 1
        assert out.counters.oracle_calls <= most

    def test_cycles_run_in_two_dimensions(self, solve_probe):
        # a floor of 8 mu/(m+1) lies above 1 >= ||z|| at m = 2, so no cycle
        # ever ran there; the open semicircle takes 7 at 2 mu/(m+1)
        out = main_algorithm(CustomOracle(2, make_semicircle(False)),
                             epsilon=1e-6)
        assert out.status == "feasible"
        assert solve_probe.cycles
        for rec, _, _ in solve_probe.cycles:
            assert rec.size == 3
            assert rec.min_weight >= 0.0
            assert rec.combination_error <= 1e-10


def lp_support(columns, weights, state=None):
    """The support of the columns of ``FiniteLp(columns)`` with the weights
    given, under ``state`` (the identity when None)."""
    columns = np.asarray(columns, dtype=float)
    state = RescalingState(columns.shape[0]) if state is None else state
    cc = ConvexCombination(columns.shape[0])
    for j, weight in enumerate(weights):
        a_scaled, nrm = state.normalize(columns[:, j])
        cc.add_term(WitnessedColumn(LpIndex(j), columns[:, j]), a_scaled,
                    nrm, weight)
    cc.z = cc.combination()
    return FiniteLp(columns), cc


class TestWarmStart:
    def test_remap_keeps_each_terms_weight_on_its_column(self):
        # x'_t is proportional to (x_t / ||M^T c_t||) ||M'^T c_t||, and a
        # term of weight 0 (a slot a minor cycle emptied) is left out
        cols = np.array([[2.0, 0.0, -1.0, 1.0], [0.0, 3.0, -1.0, 1.0]])
        state = RescalingState(2)
        state.rescale(np.array([0.6, 0.8]))
        _, cc = lp_support(cols, [0.5, 0.2, 0.3, 0.0], state)
        state.rescale(np.array([1.0, 0.0]))
        warm = cc.remapped(state)
        assert [e.witness for e in warm.entries] == \
            [LpIndex(0), LpIndex(1), LpIndex(2)]
        M = state.M
        unscaled = np.array([0.5, 0.2, 0.3]) / np.linalg.norm(
            (np.eye(2) - 0.5 * np.outer([0.6, 0.8], [0.6, 0.8])).T
            @ cols[:, :3], axis=0)
        mapped = M.T @ cols[:, :3]
        x = unscaled * np.linalg.norm(mapped, axis=0)
        x /= x.sum()
        assert_allclose(warm.weights, x, rtol=1e-14)
        for i, c in enumerate(mapped.T):
            assert_allclose(warm.basis[:-1, i], c / np.linalg.norm(c),
                            atol=1e-15)
            assert warm.scale_norms[i] == pytest.approx(np.linalg.norm(c),
                                                        rel=1e-14)
        assert_allclose(warm.z, warm.combination(), atol=0)
        # z' is M'^T times the old support's original-space combination
        assert_allclose(warm.z, M.T @ (cols[:, :3] @ unscaled)
                        / np.sum(unscaled * np.linalg.norm(mapped, axis=0)),
                        atol=1e-15)

    def test_vanishing_remapped_aggregate_gives_an_empty_support(self):
        # antipodal columns at weight 1/2 leave z = 0, and so z' = 0
        _, cc = lp_support([[1.0, -1.0], [0.0, 0.0]], [0.5, 0.5])
        assert not cc.z.any()
        state = RescalingState(2)
        state.rescale(np.array([1.0, 0.0]))
        assert cc.remapped(state).entries == []

    def test_run_after_a_vanishing_aggregate_starts_at_m_one(self,
                                                             monkeypatch):
        # querying M' z' = 0 would raise ValueError
        _, cc = lp_support([[1.0, -1.0], [0.0, 0.0]], [0.5, 0.5])
        state = RescalingState(2)
        state.rescale(np.array([1.0, 0.0]))
        points = []
        apply = state.apply

        def recording_apply(z):
            points.append(np.array(z))
            return apply(z)

        monkeypatch.setattr(state, "apply", recording_apply)
        res = basic_procedure(FiniteLp(np.eye(2)), state, cc)
        assert res.status == "feasible"
        assert_allclose(points[0], np.ones(2), atol=0)

    def test_warm_run_steps_before_its_first_exit_test(self):
        # the remapped aggregate (2e-9, 0) already lies below mu/(m+1),
        # yet the warm run first queries M' z' and steps to (1, 0) and
        # (-1, 0) at weight 1/2 each, a certificate
        inst, cc = lp_support([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]],
                              [0.5 + 1e-9, 0.5 - 1e-9])
        state = RescalingState(2)
        state.rescale(np.array([0.0, 1.0]))
        res = basic_procedure(inst, state, cc)
        assert res.status == "dual"
        assert res.iterations == res.oracle_calls == 1
        assert res.verification.accepted


def brute_force_nnls(A, b):
    """Least squares on every subset of columns; the best nonnegative."""
    best, best_res = np.zeros(A.shape[1]), np.linalg.norm(b)
    for r in range(1, A.shape[1] + 1):
        for subset in itertools.combinations(range(A.shape[1]), r):
            cols = list(subset)
            x_s = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
            if np.all(x_s >= 0.0):
                res = np.linalg.norm(A[:, cols] @ x_s - b)
                if res < best_res - 1e-13:
                    best = np.zeros(A.shape[1])
                    best[cols] = x_s
                    best_res = res
    return best, best_res


class TestNnls:
    @pytest.mark.parametrize("rows,k", [(3, 2), (4, 4), (6, 5), (8, 7)])
    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_matches_brute_force(self, rows, k, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rows, k))
        b = rng.standard_normal(rows)
        x = prfeas.solver._nnls(A, b)
        ref, ref_res = brute_force_nnls(A, b)
        assert np.all(x >= 0.0)
        assert_allclose(x, ref, atol=1e-10)
        assert np.linalg.norm(A @ x - b) == pytest.approx(ref_res, abs=1e-12)

    @pytest.mark.parametrize("k,rank,extra", [(4, 2, 2), (5, 2, 2),
                                              (6, 3, 2), (7, 3, 3),
                                              (7, 4, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_with_a_nonnegative_exact_solution(
            self, k, rank, extra, seed):
        # [B; 1^T] x = e for k columns in a subspace of dimension `rank`,
        # rank + 1 < k: the first k - extra lie in a hyperplane S of it
        # and combine to zero with positive weights, the others lie on one
        # side of S, so every nonnegative exact solution is zero on them.
        # lstsq's minimum-norm answer is exact but spreads over them, with
        # a negative entry; the NNLS answer is exact and nonnegative
        rng = np.random.default_rng(seed)
        m = 6
        Q = np.linalg.qr(rng.standard_normal((m, rank)))[0]
        p = k - extra
        B = Q[:, :rank - 1] @ rng.standard_normal((rank - 1, k))
        x_star = rng.uniform(0.1, 1.0, p)
        B[:, p - 1] = -(B[:, :p - 1] @ x_star[:-1]) / x_star[-1]
        B[:, p:] += np.outer(Q[:, rank - 1], rng.uniform(0.5, 1.0, extra))
        A = np.vstack([B, np.ones(k)])
        b = np.eye(m + 1)[-1]
        x_min, _, lstsq_rank, _ = np.linalg.lstsq(A, b, rcond=None)
        assert lstsq_rank < k and not np.all(x_min > 0.0)
        assert np.linalg.norm(A @ x_min - b) <= 1e-12
        x = prfeas.solver._nnls(A, b)
        _, ref_res = brute_force_nnls(A, b)
        assert ref_res <= 1e-12
        assert np.all(x >= 0.0) and not x[p:].any()
        assert np.linalg.norm(A @ x - b) <= 1e-12


class TestReweightToDual:
    def test_dependent_support_is_certified_by_nnls(self):
        # columns in a plane of R^3: the 4 x 4 system has rank 3, and its
        # minimum-norm solution is negative on the last two columns; the
        # only nonnegative one is 1/2 on each of the antipodal pair
        cols = np.array([[1.0, -1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0],
                         [0.0, 0.0, 0.0, 0.0]])
        inst, cc = lp_support(cols, [0.25, 0.25, 0.25, 0.25])
        A = np.vstack([cols / np.linalg.norm(cols, axis=0), np.ones(4)])
        x, _, rank, _ = np.linalg.lstsq(A, np.eye(4)[-1], rcond=None)
        assert rank == 3 and not np.all(x > 0.0)
        pairs, report = prfeas.solver._reweight_to_dual(inst, cc)
        assert report.accepted
        assert [w for w, _ in pairs] == [LpIndex(0), LpIndex(1)]
        assert [x for _, x in pairs] == pytest.approx([0.5, 0.5])

    def test_full_rank_support_never_reaches_nnls(self, monkeypatch):
        # (1, 0), (0, 1), (1, 1): full rank, lstsq's unique x is negative
        # on the third column, so there is no certificate to find
        def refused(A, b):
            raise AssertionError("a full-rank support reached the NNLS")

        monkeypatch.setattr(prfeas.solver, "_nnls", refused)
        inst, cc = lp_support([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                              [0.4, 0.4, 0.2])
        assert prfeas.solver._reweight_to_dual(inst, cc) == (None, None)
        # generic planted LP columns give full-rank supports, so these
        # solves never call it either and keep their bits
        for seed in range(3):
            out = main_algorithm(
                generate_planted("lp", 5, 50, seed, "feasible_p")[0])
            assert out.status == "dual_certificate"

    def test_small_antipodal_lps_end_in_a_verified_dual(self):
        # columns 0 and 1 antipodal among generic ones: a full-rank
        # support holding the pair has the exact solution 1/2 on the pair
        # and 0 elsewhere, which least squares returns with entries of
        # rounding size, either sign, in the zeros; those terms are
        # dropped, and the pair certifies
        for m, n, seed in itertools.product(range(2, 6), (4, 6, 8),
                                            range(10)):
            cols = np.random.default_rng(seed).standard_normal((m, n))
            cols[:, 0] = -cols[:, 1]
            out = main_algorithm(FiniteLp(cols), 1e-6)
            assert out.status == "dual_certificate", (m, n, seed)
            assert out.verification.accepted
            sizes = [x * np.linalg.norm(cols[:, w.i]) for w, x in out.weights]
            assert min(sizes) > 1e-12 * max(sizes), (m, n, seed)

    def test_rounding_size_positive_weight_is_no_atom(self):
        # least squares leaves a positive 1.1e-15 of the heaviest on
        # column 3, which no exact certificate holds
        cols = np.random.default_rng(3).standard_normal((2, 4))
        cols[:, 0] = -cols[:, 1]
        out = main_algorithm(FiniteLp(cols), 1e-6)
        assert out.status == "dual_certificate"
        assert out.verification.accepted
        assert sorted(w.i for w, _ in out.weights) == [0, 1]
        assert out.counters.oracle_calls == 5


def lstsq_counter(monkeypatch):
    """A list that gains one entry at each ``np.linalg.lstsq`` call."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def carried_lsq_solves():
    """Solves whose inner runs end on repeated supports, and some whose
    first run decides: (name, instance, epsilon)."""
    return [
        *[(f"hyperplane lift {lift}", hyperplane_lp(10, 200, 1, lift), 1e-6)
          for lift in (1e-5, 1e-4, 0.0)],
        *[(f"{kind} seed {seed}",
           generate_planted(kind, m, n, seed, "feasible_p")[0], 1e-6)
          for kind, m, n in (("lp", 10, 200), ("socp", 20, 200),
                             ("sdp", 8, 20))
          for seed in (1, 2, 3)],
        *[(f"semicircle closed={closed}",
           CustomOracle(2, make_semicircle(closed)), 1e-4)
          for closed in (False, True)],
    ]


class TestCarriedLeastSquares:
    def test_one_solve_per_run_of_equal_supports(self, monkeypatch):
        # the thin LP ends its 72 runs on 5 distinct consecutive supports
        supports = []
        test = prfeas.solver._reweight_to_dual

        def recording(instance, cc):
            supports.append(tuple(cc.keys))
            return test(instance, cc)

        calls = lstsq_counter(monkeypatch)
        monkeypatch.setattr(prfeas.solver, "_reweight_to_dual", recording)
        out = main_algorithm(hyperplane_lp(10, 200, 1, 1e-5))
        assert out.status == "epsilon_declared"
        distinct = 1 + sum(a != b for a, b in zip(supports, supports[1:]))
        assert len(supports) == 72 and distinct == 5
        assert len(calls) <= distinct

    def test_carried_solve_keeps_every_bit(self, monkeypatch):
        def solve_all():
            got = []
            for name, inst, eps in carried_lsq_solves():
                out = main_algorithm(inst, eps)
                got.append((name, json.dumps(solve_report(out, None)),
                            None if out.y is None else out.y.tobytes(),
                            None if out.weights is None
                            else [x.hex() for _, x in out.weights]))
            return got

        calls = lstsq_counter(monkeypatch)
        carried = solve_all()
        n_carried = len(calls)
        remapped = ConvexCombination.remapped

        def dropping(cc, state):
            out = remapped(cc, state)
            out._lsq = None
            return out

        monkeypatch.setattr(ConvexCombination, "remapped", dropping)
        calls.clear()
        dropped = solve_all()
        for a, b in zip(carried, dropped):
            assert a == b, a[0]
        # the thin LP alone saves 67 solves
        assert n_carried + 67 <= len(calls)


# ---------------------------------------------------------------------------
# the step's kernels against the one-expression forms they replace: each
# issues fewer numpy calls and must keep every bit

SEEDS = st.integers(0, 2**32 - 1)


def entries(size, bound=1.0):
    return arrays(np.float64, size, elements=st.floats(-bound, bound))


def random_map(m, seed, contractions):
    """A map of ``contractions`` seeded random factors."""
    rng = np.random.default_rng(seed)
    state = RescalingState(m)
    for _ in range(contractions):
        state.rescale(unit(rng.standard_normal(m)))
    return state


def step_alpha_one_expression(z, a):
    diff = a - z
    denom = float(diff @ diff)
    alpha = float(a @ diff) / denom
    return alpha, alpha * z + (1.0 - alpha) * a


def smw_one_expression(G, u, e_idx):
    Gu = G @ u
    denom = 1.0 + Gu[e_idx]
    scale = 1.0 + abs(G).sum(axis=1).max() * abs(u).max()
    if abs(denom) < SMW_TOL * scale:
        return None
    return G - np.outer(Gu, G[e_idx]) / denom


def remapped_by_add_term(cc, state):
    out = ConvexCombination(cc.m)
    for e, x, old in zip(cc.entries, cc.weights.tolist(),
                         cc.scale_norms.tolist()):
        if x > 0.0:
            a_scaled, nrm = state.normalize(e.column)
            out.add_term(e, a_scaled, nrm, x / old * nrm)
    out._w[: len(out.entries)] /= out.weight_sum()
    out.z = out.combination()
    return out if out.z.any() else ConvexCombination(cc.m)


#: the exponent ranges of the normalized columns: in range, entries up to
#: the 2^448 that a SOCP or SDP column reaches, and small enough that the
#: sum of squares of ``M^T a`` is subnormal, with m <= 8
NORMALIZE_EXPONENTS = {"in_range": (-383, 384), "near_2^448": (440, 448),
                       "subnormal_sum": (-990, -515)}


class TestLeanStepIsBitIdentical:
    @pytest.mark.parametrize("regime", list(NORMALIZE_EXPONENTS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_normalize_and_the_map_products(self, regime, data, seed):
        m = data.draw(st.integers(1, 8))
        state = random_map(m, seed, data.draw(st.integers(0, 6)))
        e = data.draw(st.integers(*NORMALIZE_EXPONENTS[regime]))
        column = np.ldexp(data.draw(entries(m)), e)
        z = data.draw(entries(m))
        v = state.M.T @ column
        # at m = 1, @ takes BLAS's dot and .dot its gemv, which differ in
        # the sign of a zero result only; the solver maps no zero vector
        if m > 1 or (state.M @ z).all():
            assert state.apply(z).tobytes() == (state.M @ z).tobytes()
        if m > 1 or v.all():
            assert state.apply_transpose(column).tobytes() == v.tobytes()
        if regime == "subnormal_sum":
            assert v @ v < 2.0**-1022
        nrm = vector_norm(v)
        if nrm < DEGENERATE_COLUMN_TOL:
            with pytest.raises(InvariantViolated):
                state.normalize(column)
            return
        a_scaled, got = state.normalize(column)
        assert a_scaled.tobytes() == (v / nrm).tobytes()
        assert float(got).hex() == nrm.hex()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_step_alpha(self, data):
        m = data.draw(st.integers(1, 60))
        z = data.draw(entries(m))
        a = data.draw(entries(m))
        assume(np.linalg.norm(a) >= 2.0**-20)
        a = unit(a)
        assume(float((a - z) @ (a - z)) >= 1e-28)
        alpha, z_new = step_alpha(z, a)
        ref_alpha, ref_z = step_alpha_one_expression(z, a)
        assert alpha.hex() == ref_alpha.hex()
        assert z_new.tobytes() == ref_z.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_smw_inverse_update(self, data, seed):
        # a singular update replaces column e by a multiple of another
        k = data.draw(st.integers(2, 12))
        B = np.random.default_rng(seed).standard_normal((k, k))
        G = np.linalg.inv(B)
        e_idx = data.draw(st.integers(0, k - 1))
        if data.draw(st.booleans()):
            u = data.draw(entries(k, 2.0))
        else:
            j = (e_idx + data.draw(st.integers(1, k - 1))) % k
            u = data.draw(st.floats(-2.0, 2.0)) * B[:, j] - B[:, e_idx]
        got = smw_inverse_update(G, u, e_idx)
        ref = smw_one_expression(G, u, e_idx)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_combination(self, data, seed):
        # the one reduction over the Fortran-ordered basis adds the terms
        # in order, from 0, as the loop does: signed zeros included, and
        # for the m + 2 terms an insertion holds before its reduction
        m = data.draw(st.integers(1, 60))
        k = data.draw(st.integers(0, m + 2))
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal((k, m)),
                     rng.integers(-60, 60, (k, m)))
        x = np.ldexp(rng.random(k), rng.integers(-60, 60, k))
        for v in (a, x):
            v[rng.random(v.shape) < 0.2] = 0.0
            v[rng.random(v.shape) < 0.2] = -0.0
        cc = ConvexCombination(m)
        for t in range(k):
            wc = WitnessedColumn(CustomWitness(t), np.array([t + 1.0]))
            cc._append(wc, a[t], 1.0, x[t], wc.column.tobytes())
        out = np.zeros(m)
        for t in range(k):
            out += float(x[t]) * a[t]
        assert cc.combination().tobytes() == out.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_remapped(self, data, seed):
        # a support of up to m + 1 seeded columns, some at weight 0, built
        # under a map that then takes one more contraction
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m + 1))
        rng = np.random.default_rng(seed)
        columns = np.ldexp(rng.standard_normal((m, k)),
                           rng.integers(-3, 4, k))
        weights = data.draw(arrays(np.float64, k, elements=st.one_of(
            st.just(0.0), st.floats(1e-12, 1.0))))
        assume(weights.any())
        state = random_map(m, seed, data.draw(st.integers(0, 4)))
        _, cc = lp_support(columns, weights.tolist(), state)
        state.rescale(unit(rng.standard_normal(m)))
        got = cc.remapped(state)
        ref = remapped_by_add_term(cc, state)
        assert got.entries == ref.entries
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert [c.tobytes() for c in got.basis.T] == \
            [c.tobytes() for c in ref.basis.T]
        assert got.scale_norms.tolist() == ref.scale_norms.tolist()
        assert got.z.tobytes() == ref.z.tobytes()
        assert got.keys == ref.keys
        assert got.keys == [e.column.tobytes() for e in got.entries]
