import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import prfeas.certify
import prfeas.solver
from prfeas import oracle
from prfeas.certify import (
    VerificationReport,
    generate_planted,
    verify_d_solution,
    verify_p_certificate,
)
from prfeas.cli import solve_report
from prfeas.oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    OracleContractViolation,
    Sdp,
    Socp,
    WitnessedColumn,
)
from prfeas.solver import (
    ConfigError,
    main_algorithm,
)
from blas import per_kernel
from hyperplane import hyperplane_lp
from semicircle import make_semicircle


def thin_cone(delta):
    # a triangular cone around the planted direction (0, 0, 1): each
    # column is delta along it; a two-column wedge is too easy, since
    # the first run's support points at its axis and the warm run after
    # one contraction queries a feasible y
    return FiniteLp(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0],
                              [delta, delta, delta]]))


class TestMainAlgorithmOutcomes:
    def test_identity_columns_feasible(self):
        out = main_algorithm(FiniteLp(np.eye(3)), epsilon=1e-2)
        assert out.status == "feasible"
        assert out.verification is not None and out.verification.accepted
        assert np.all(out.y > 0)
        assert out.counters.rescalings == 0

    def test_plus_minus_axes_dual(self):
        cols = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        out = main_algorithm(FiniteLp(cols), epsilon=1e-2)
        assert out.status == "dual_certificate"
        assert out.verification.accepted
        assert out.verification.residual <= 1e-9
        weights = dict(out.weights)
        assert all(x > 0 for x in weights.values())
        assert len(weights) <= 3
        total = np.zeros(2)
        for w, x in weights.items():
            assert isinstance(w, LpIndex)
            total += x * cols[:, w.i]
        assert np.linalg.norm(total) <= 1e-9 * sum(weights.values())

    @pytest.mark.parametrize("kind", ["lp", "sdp", "socp"])
    def test_planted_interior_instances(self, kind):
        inst, _ = generate_planted(kind, m=4, n=6, seed=11,
                                   target="feasible_d")
        out = main_algorithm(inst, epsilon=1e-2)
        assert out.status == "feasible"
        assert out.verification.accepted

    @pytest.mark.parametrize("kind", ["lp", "sdp", "socp"])
    def test_planted_degenerate_instances(self, kind):
        inst, _ = generate_planted(kind, m=3, n=6, seed=7,
                                   target="feasible_p")
        out = main_algorithm(inst, epsilon=1e-2)
        assert out.status in ("dual_certificate", "epsilon_declared")
        if out.status == "dual_certificate":
            assert out.verification.accepted

    def test_indefinite_matrix_pair_dual(self):
        from prfeas.oracle import Sdp
        mats = np.array([
            [[1.0, 0.0], [0.0, -1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
        ])
        out = main_algorithm(Sdp(mats), epsilon=1e-2)
        assert out.status in ("dual_certificate", "epsilon_declared")
        if out.status == "dual_certificate":
            assert out.verification.accepted

    def test_exactly_one_outcome_artifact(self):
        instances = [
            FiniteLp(np.eye(2)),
            FiniteLp(np.array([[1.0, -1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, -1.0]])),
            CustomOracle(2, make_semicircle(True)),
        ]
        for inst in instances:
            out = main_algorithm(inst, epsilon=0.5)
            assert (out.status == "feasible") == (out.y is not None)
            assert (out.status == "dual_certificate") == \
                (out.weights is not None)
            if out.status == "epsilon_declared":
                assert out.y is None and out.weights is None

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -1e-3])
    def test_invalid_epsilon_rejected(self, eps):
        with pytest.raises(ConfigError):
            main_algorithm(FiniteLp(np.eye(2)), epsilon=eps)

    def test_epsilon_is_the_only_bound(self):
        # no rescaling cap is taken, by keyword or by position
        for args, kwargs in (((0.5,), {"max_rescalings": 3}), ((0.5, 3), {})):
            with pytest.raises(TypeError):
                main_algorithm(FiniteLp(np.eye(2)), *args, **kwargs)

    def test_custom_dual_certificate_reverifies(self):
        # a custom oracle over the columns +-e1, +-e2: the returned
        # certificate keeps each custom witness's column, so it can be
        # checked again from the outcome alone
        cols = {"+e1": np.array([1.0, 0.0]), "-e1": np.array([-1.0, 0.0]),
                "+e2": np.array([0.0, 1.0]), "-e2": np.array([0.0, -1.0])}

        def fn(y):
            label = min(cols, key=lambda k: (cols[k] @ y, k))
            if cols[label] @ y > 0.0:
                return None
            return WitnessedColumn(CustomWitness(label), cols[label])

        inst = CustomOracle(2, fn)
        out = main_algorithm(inst, epsilon=1e-2)
        assert out.status == "dual_certificate"
        for wc, _ in out.weights:
            assert isinstance(wc, WitnessedColumn)
            assert_array_equal(wc.column, cols[wc.witness.label])
        report = verify_p_certificate(inst, out.weights)
        assert report.accepted
        assert report.residual == out.verification.residual

    def test_unhashable_custom_labels(self):
        # the support keys its terms by column, so a label may be any
        # value; list labels cannot be hashed
        def fn(y):
            if y[0] > 0.0:
                return WitnessedColumn(CustomWitness([1]),
                                       np.array([-1.0, 0.0]))
            return WitnessedColumn(CustomWitness([0]), np.array([1.0, 0.0]))

        inst = CustomOracle(2, fn)
        out = main_algorithm(inst, epsilon=1e-2)
        assert out.status == "dual_certificate"
        assert sorted(wc.witness.label for wc, _ in out.weights) == [[0], [1]]
        assert verify_p_certificate(inst, out.weights).accepted

    def test_rejected_reverification_raises(self):
        # the oracle accepts the first query, then rejects the same
        # direction when the solver re-verifies it
        calls = []

        def fn(y):
            calls.append(y)
            if len(calls) == 1:
                return None
            return WitnessedColumn(CustomWitness("flip"), -y)

        with pytest.raises(OracleContractViolation,
                           match="the final query rejected y"):
            main_algorithm(CustomOracle(2, fn), epsilon=1e-2)
        assert len(calls) == 2

    def test_rejected_zero_column_raises(self, monkeypatch):
        # x = (5, 3, 4) y lies on the cone's boundary, so the first query
        # returns a zero column; a verifier that rejects it is an
        # inconsistency, not a dual
        rejected = VerificationReport("p", False, math.inf, {})
        monkeypatch.setattr(prfeas.certify, "verify_p_certificate",
                            lambda instance, weights: rejected)
        with pytest.raises(OracleContractViolation,
                           match="the zero column was rejected"):
            main_algorithm(Socp(np.array([[5.0, 3.0, 4.0]]), (3,)))


class TestSdpScalingInvariance:
    """Scaling every matrix by 4**k scales X = sum_i y_i A_i and its
    eigenvalues exactly, so the SDP oracle decides the same and picks the
    same witnesses, and the scaled solve repeats the original one."""

    @staticmethod
    def solve_recording(inst, monkeypatch):
        witnesses = []
        sdp_query = oracle.sdp_query

        def recording(instance, y):
            w = sdp_query(instance, y)
            witnesses.append(None if w is None else w.witness)
            return w

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "sdp_query", recording)
            out = main_algorithm(inst, epsilon=1e-2)
        return out, witnesses

    @pytest.mark.parametrize("target", ["feasible_d", "feasible_p"])
    @pytest.mark.parametrize("k", [-1, 1, 2])
    def test_power_of_four_scaling(self, monkeypatch, target, k):
        base, _ = generate_planted("sdp", m=4, n=6, seed=3, target=target)
        scaled = Sdp(4.0 ** k * base.matrices)
        out, seen = self.solve_recording(base, monkeypatch)
        out_k, seen_k = self.solve_recording(scaled, monkeypatch)
        assert out_k.status == out.status
        assert out_k.counters == out.counters
        assert len(seen) == out.counters.oracle_calls
        assert seen_k == seen
        if out.y is not None:
            assert_array_equal(out_k.y, out.y)


class TestSocpScalingInvariance:
    """Scaling A by 2**k scales every column, margin and Gram entry
    exactly, and the per-block powers of two that Socp takes from A^T y
    and from its Gram data take the factor back out, so no square
    overflows near the float maximum and the scaled solve repeats the
    original one."""

    @pytest.mark.parametrize("seed,target,calls", [
        (1, "feasible_d", 11), (1, "feasible_p", 10),
        (2, "feasible_d", 14), (2, "feasible_p", 6)])
    @pytest.mark.parametrize("k", [531, 664, 996])
    def test_power_of_two_scaling_near_float_max(self, seed, target, calls,
                                                 k):
        base, _ = generate_planted("socp", m=5, n=40, seed=seed,
                                   target=target)
        out = main_algorithm(base)
        out_k = main_algorithm(Socp(np.ldexp(base.A, k), base.blocks))
        assert out.counters.oracle_calls == calls
        assert out_k.status == out.status
        assert out_k.counters == out.counters
        assert out_k.verification.accepted
        if out.status == "feasible":
            margin = out.verification.details["min_margin"]
            assert out_k.verification.details["min_margin"] == \
                math.ldexp(margin, k)

    def test_size_one_blocks_near_float_max_give_dual(self):
        # the witness column (1.5e308, 1.5e308) has a norm above the float
        # maximum; blocks 0 and 1 peak at 2^1023.7 and are stored times
        # 2^-640, block 2 as given; the same columns as a FiniteLp give a
        # verified 2-atom dual too
        A = np.array([[1.5e308, -1.5e308, 1.0], [1.5e308, -1.5e308, 0.0]])
        inst = Socp(A, (1, 1, 1))
        assert inst.exponents.tolist() == [640, 640, 0]
        assert np.ldexp(inst.A, np.repeat(inst.exponents, inst.blocks)
                        ).tobytes() == A.tobytes()
        assert inst.A[:, 2].tobytes() == A[:, 2].tobytes()
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert out.counters.oracle_calls == 2
        assert len(out.weights) == 2
        assert verify_p_certificate(inst, out.weights).accepted

    def test_only_blocks_whose_norms_overflow_are_scaled(self):
        # each block is scaled by its own power of two: block 0 peaks at
        # 1.5e308 and block 1 at 1e-306, both outside the range, and block
        # 2 is in range and kept; scaling all of A by block 0's power
        # would round block 1's column (1e-306, 0) to zero, a false
        # one-atom dual; y = (1, 0) gives margins 1.5e308, 1e-306 and 1
        A = np.array([[1.5e308, 0.0, 1e-306, 1.0], [0.0, 1.5e308, 0.0, 0.0]])
        inst = Socp(A, (2, 1, 1))
        assert inst.exponents[0] == 640 and inst.exponents[1] < 0
        assert inst.exponents[2] == 0
        assert np.ldexp(inst.A, np.repeat(inst.exponents, inst.blocks)
                        ).tobytes() == A.tobytes()
        assert inst.A[:, 3].tobytes() == A[:, 3].tobytes()
        assert main_algorithm(inst).status == "feasible"
        report = verify_d_solution(inst, np.array([1.0, 0.0]))
        assert report.accepted
        assert report.details["min_margin"] == 1e-306

    @pytest.mark.parametrize("kind,data,exponent", [
        ("lp", [[1e200], [1e-200]], 281),
        ("socp", [[1.5e308, 1e-100]], 640)])
    def test_units_with_entries_far_below_their_largest(self, kind, data,
                                                        exponent):
        # 1e200 = 2^664.4 and 1.5e308 = 2^1023.7 are stored just below
        # 2^384, where 1e-200 and 1e-100 stay normal floats: the data as
        # given is kept bit for bit and solves
        data = np.array(data)
        inst = FiniteLp(data) if kind == "lp" else Socp(data, (2,))
        assert inst.exponents.tolist() == [exponent]
        assert inst.as_given().tobytes() == data.tobytes()
        out = main_algorithm(inst)
        assert out.status == "feasible"
        assert out.verification.accepted

    def test_custom_columns_near_float_max_give_dual(self):
        # the columns of the size-one blocks above, handed out as given by
        # a custom oracle: the queries bring them into range, and the dual
        # is verified on the columns as given
        cols = np.array([[1.5e308, -1.5e308, 1.0], [1.5e308, -1.5e308, 0.0]])
        lp = FiniteLp(cols)

        def fn(y):
            w = oracle.query(lp, y)
            return None if w is None else WitnessedColumn(
                CustomWitness(w.witness.i), cols[:, w.witness.i])

        inst = CustomOracle(2, fn)
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert sorted(wc.witness.label for wc, _ in out.weights) == [0, 1]
        assert all(math.isfinite(x) for _, x in out.weights)
        assert verify_p_certificate(inst, out.weights).accepted

    def test_block_that_scaling_would_round_is_rejected(self):
        # (1e-306, 0) shares a block with 1.5e308; times 2^-640 it would
        # round to zero
        with pytest.raises(ValueError, match="scale exactly"):
            Socp(np.array([[1e-306, 0.0, 0.0],
                           [0.0, 1.5e308, 1.5e308]]), (3,))


def scaled_instance(inst, k):
    """``inst`` with its data as given times ``2^k``."""
    if isinstance(inst, FiniteLp):
        return FiniteLp(np.ldexp(inst.columns, k))
    if isinstance(inst, Sdp):
        return Sdp(np.ldexp(inst.matrices, k))
    return Socp(np.ldexp(inst.A, k), inst.blocks)


class TestLpScreenLeavesTheSolve:
    """At the size ``lp_query`` screens in float32, a solve with the screen
    repeats the solve without it bit for bit, and only the queries at the
    default scales are screened: those with rescaled scales rank in
    float64."""

    @pytest.mark.parametrize("target", ["feasible_d", "feasible_p", "thin"])
    def test_screened_solve_repeats_the_exact_one(self, monkeypatch, target):
        # the thin LP contracts after every run, so 71 of its 75 queries
        # carry rescaled scales
        inst = hyperplane_lp(10, 20000, 1, 1e-5) if target == "thin" \
            else generate_planted("lp", 60, 5000, 1, target)[0]
        assert inst.columns.size >= oracle.LP_SCREEN_MIN_ENTRIES
        lp_query, screen = oracle.lp_query, oracle._screened_pick
        scaled, answers = [], []

        def recorded_query(instance, y, scales=None):
            scaled.append(scales is not None)
            return lp_query(instance, y, scales)

        def recorded_screen(*args):
            # *args: whatever the screen's signature, the query that
            # reached it is the last one recorded
            t = screen(*args)
            answers.append((t is not None, scaled[-1]))
            return t

        monkeypatch.setattr(oracle, "lp_query", recorded_query)
        monkeypatch.setattr(oracle, "_screened_pick", recorded_screen)
        out = main_algorithm(inst)
        screened, queries = list(answers), list(scaled)
        monkeypatch.setattr(oracle, "LP_SCREEN_MIN_ENTRIES", math.inf)
        exact = main_algorithm(inst)
        assert answers == screened  # the second solve never screened
        # the screen decided nearly every query it saw, and it saw only
        # those at the default scales
        assert sum(d for d, _ in screened) >= 0.9 * len(screened)
        assert not any(s for _, s in screened)
        assert len(screened) == queries.count(False)
        assert sum(queries) == {"feasible_d": 0, "feasible_p": 12,
                                "thin": 71}[target]
        assert out.status == exact.status
        assert out.counters == exact.counters
        assert out.weights == exact.weights
        if out.y is not None:
            assert out.y.tobytes() == exact.y.tobytes()


class TestPowerOfTwoScalingInvariance:
    """Data times a power of two far outside the float range that the
    built-in instances keep, an SDP stack's too, odd or even, is stored
    scaled back into it, so the solve repeats the unscaled one step for
    step, and its margin is the unscaled one times that power."""

    @pytest.mark.parametrize("k", [531, 996, -600, -1000])
    @pytest.mark.parametrize("target", ["feasible_d", "feasible_p"])
    @pytest.mark.parametrize("kind,m,n", [("lp", 5, 40), ("sdp", 4, 10),
                                          ("socp", 5, 40)])
    def test_scaled_solve_repeats_the_unscaled_one(self, kind, m, n, target,
                                                   k):
        base, _ = generate_planted(kind, m, n, 1, target)
        out = main_algorithm(base)
        out_k = main_algorithm(scaled_instance(base, k))
        assert out_k.status == out.status
        assert out_k.counters == out.counters
        assert out_k.verification.accepted
        if out.status == "feasible":
            margin = out.verification.details["min_margin"]
            assert out_k.verification.details["min_margin"] == \
                math.ldexp(margin, k)

    @pytest.mark.parametrize("kind,m,n", [("lp", 5, 40), ("sdp", 1, 6),
                                          ("socp", 5, 40)])
    def test_subnormal_data_gives_a_verified_dual(self, kind, m, n):
        # at 2^-1040 most entries are subnormal, and the dual weights on
        # the data as given would exceed the float range; the solver
        # hands them back times one power of two
        base, _ = generate_planted(kind, m, n, 1, "feasible_p")
        out = main_algorithm(scaled_instance(base, -1040))
        assert out.status == "dual_certificate"
        assert out.verification.accepted
        assert all(0.0 < x < 2.0**384 for _, x in out.weights)


class TestSemiInfiniteOracles:
    def test_closed_half_arc_exhausts_budget(self):
        # neither a feasible direction nor a finite zero combination
        # exists, so the solver must run down the whole budget; at 1e-4,
        # after 28 contractions, the support holds (1, 4.4e-16) and
        # (-1, 1.2e-16): dependent in the original space to rounding, far
        # from it once mapped through M^T, so no certificate is extracted
        inst = CustomOracle(2, make_semicircle(True))
        for epsilon, s_star in [(1e-2, 24), (1e-4, 48)]:
            out = main_algorithm(inst, epsilon=epsilon)
            assert out.status == "epsilon_declared"
            assert out.epsilon == pytest.approx(epsilon)
            assert out.counters.rescalings == out.s_star == s_star

    def test_open_half_arc_never_dual(self):
        # (0, pi) admits y = (0, 1) but the feasible set has empty
        # interior, so a declaration is also a correct answer at 1e-2;
        # at 1e-6 the solver reaches y
        inst = CustomOracle(2, make_semicircle(False))
        for epsilon, allowed in [(1e-2, ("feasible", "epsilon_declared")),
                                 (1e-6, ("feasible",))]:
            out = main_algorithm(inst, epsilon=epsilon)
            assert out.status in allowed
            if out.status == "feasible":
                assert out.verification.accepted

    def test_epsilon_budget_reports_certified_epsilon(self):
        eps = (math.sqrt(math.e) / 2.0) ** 5
        out = main_algorithm(CustomOracle(2, make_semicircle(True)), eps)
        assert out.status == "epsilon_declared"
        assert out.counters.rescalings == 5
        assert out.s_star == 5
        assert out.epsilon == eps


def most_violated(columns):
    """A callback over ``columns`` that answers with the most violated
    normalized one, a fresh array at every call."""
    norms = np.linalg.norm(columns, axis=0)

    def fn(y):
        ratios = (y @ columns) / norms
        t = int(ratios.argmin())
        if ratios[t] > 0.0:
            return None
        return WitnessedColumn(CustomWitness(t), columns[:, t].copy())

    return fn


def reusing(fn, m):
    """``fn``'s answers, each written into the one array it hands out."""
    out = np.empty(m)

    def answer(y):
        w = fn(y)
        if w is None:
            return None
        out[:] = w.column
        return WitnessedColumn(w.witness, out)

    return answer


def holding(fn):
    """``fn``'s answers, each written into the one ``WitnessedColumn`` it
    hands out."""
    held = None

    def answer(y):
        nonlocal held
        w = fn(y)
        if w is None:
            return None
        if held is None:
            held = w
        held.column[:] = w.column
        held.witness = w.witness
        return held

    return answer


class TestCustomOracleMayReuseItsArray:
    # the support keeps every answer across queries, so each answer it
    # keeps must be an object with a column of its own
    @pytest.mark.parametrize("m, fn, epsilon", [
        (5, most_violated(generate_planted("lp", 5, 40, 3, "feasible_p")[0]
                          .columns), 1e-6),
        (2, make_semicircle(False), 1e-2),
        (2, make_semicircle(False), 1e-4),
        (2, make_semicircle(True), 1e-2),
        (2, make_semicircle(True), 1e-4),
    ], ids=["lp", "open 1e-2", "open 1e-4", "closed 1e-2", "closed 1e-4"])
    def test_same_solve_as_with_fresh_arrays(self, m, fn, epsilon):
        fresh = main_algorithm(CustomOracle(m, fn), epsilon)
        reused = main_algorithm(CustomOracle(m, reusing(fn, m)), epsilon)
        assert json.dumps(solve_report(reused, None)) == \
            json.dumps(solve_report(fresh, None))

    @pytest.mark.parametrize("m, fn, epsilon, status, calls", [
        (2, make_semicircle(False), 1e-2, "epsilon_declared", 466),
        (2, make_semicircle(False), 1e-4, "feasible", 809),
        (2, make_semicircle(True), 1e-2, "epsilon_declared", 234),
        (2, make_semicircle(True), 1e-4, "epsilon_declared", 455),
    ], ids=["open 1e-2", "open 1e-4", "closed 1e-2", "closed 1e-4"])
    def test_same_solve_as_with_fresh_answer_objects(self, m, fn, epsilon,
                                                     status, calls):
        fresh = main_algorithm(CustomOracle(m, fn), epsilon)
        held = main_algorithm(CustomOracle(m, holding(fn)), epsilon)
        assert (fresh.status, fresh.counters.oracle_calls) == (status, calls)
        assert json.dumps(solve_report(held, None)) == \
            json.dumps(solve_report(fresh, None))


class TestDualExtraction:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind,m,n", [("lp", 5, 50), ("sdp", 4, 10),
                                          ("socp", 5, 40)])
    def test_planted_p_returns_dual_certificate(self, kind, m, n, seed):
        inst, _ = generate_planted(kind, m, n, seed, "feasible_p")
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "dual_certificate"
        assert len(out.weights) <= m + 1
        assert verify_p_certificate(inst, out.weights).accepted

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_socp_support_stays_within_m_plus_one(self, solve_probe,
                                                          seed):
        # affinely dependent cone columns: the support never grows past
        # m+1 terms, so every contraction has ||z|| <= mu x_h with its
        # heaviest weight x_h >= 1/(m+1)
        m = 20
        inst, _ = generate_planted("socp", m, 200, seed, "feasible_p")
        out = main_algorithm(inst, epsilon=1e-6)
        assert solve_probe.largest_support <= m + 1
        for z_norm, mu, x_h in solve_probe.contractions:
            assert z_norm <= mu * x_h
        if seed == 1:
            assert out.status == "dual_certificate"
            assert len(out.weights) <= m + 1
            assert verify_p_certificate(inst, out.weights).accepted

    def test_relaxed_exit_run_resumes_its_support(self):
        # a run that ends at ||z|| <= mu x_h on fewer than m + 1 terms holds
        # no certificate; the next run starts from that support and
        # completes it: 6 oracle calls in 3 runs (65 in 12 when each run
        # started again from M 1)
        inst = generate_planted("lp", 5, 50, 200, "feasible_p")[0]
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert out.counters.oracle_calls <= 10
        assert len(out.weights) <= 6
        assert verify_p_certificate(inst, out.weights).accepted

    @pytest.mark.parametrize("seed", [1, 3])
    def test_degenerate_lp_gives_dual(self, seed):
        # columns in a hyperplane: the supports the warm runs reach are
        # affinely dependent, and only the NNLS finds their certificate
        # (without it both solves declare epsilon)
        m = 10
        inst = hyperplane_lp(m, 200, seed, 0.0)
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert len(out.weights) <= m + 1
        assert verify_p_certificate(inst, out.weights).accepted

    def test_solve_does_not_import_scipy_optimize(self, tmp_path):
        # no scipy module at all: not on import, not in a solve, not in
        # the CLI's solve and verify
        code = textwrap.dedent(f"""\
            import sys
            import prfeas
            from prfeas import generate_planted, main_algorithm
            from prfeas.cli import main
            inst = generate_planted('lp', 5, 50, 0, 'feasible_p')[0]
            out = main_algorithm(inst, epsilon=1e-6)
            assert out.status == 'dual_certificate', out.status
            prob = {str(tmp_path / "p.json")!r}
            cert = {str(tmp_path / "c.json")!r}
            assert main(['generate', '--kind', 'lp', '--m', '3', '--n', '10',
                         '--seed', '7', '--target', 'feasible_p',
                         '--output', prob]) == 0
            assert main(['solve', '--input', prob,
                         '--certificate', cert]) == 1
            assert main(['verify', '--input', prob,
                         '--certificate', cert]) == 0
            loaded = [name for name in sys.modules
                      if name == 'scipy' or name.startswith('scipy.')]
            assert not loaded, loaded
            """)
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


class TestSdpFaceStep:
    """A small-aggregate exit of an Sdp run whose support holds no
    vanishing combination tries the face its witnesses span."""

    @pytest.mark.parametrize("m,n,seed,rescalings", [
        (4, 10, 1, 0), (4, 10, 2, 0), (4, 10, 3, 0),
        (8, 20, 1, 0), (8, 20, 2, 0), (8, 20, 3, 0),
        (20, 40, 1, 0), (20, 40, 2, 1), (20, 40, 3, 0)])
    def test_planted_p_dual_in_first_runs(self, m, n, seed, rescalings):
        inst, _ = generate_planted("sdp", m, n, seed, "feasible_p")
        out = main_algorithm(inst)
        assert out.status == "dual_certificate"
        assert out.counters.rescalings == rescalings
        assert len(out.weights) <= m + 1
        assert verify_p_certificate(inst, out.weights).accepted

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m,n", [(8, 20), (20, 40)])
    def test_planted_d_never_dual(self, m, n, seed):
        inst, _ = generate_planted("sdp", m, n, seed, "feasible_d")
        assert main_algorithm(inst).status == "feasible"

    def test_shrunk_margin_feasible_sdp_never_dual(self, monkeypatch):
        # y* keeps lambda_min(sum_i y*_i A_i) at 1e-3 of its planted value,
        # so the solve contracts and the face step runs and finds nothing
        inst, cert = generate_planted("sdp", 8, 20, 1, "feasible_d")
        y = cert.y
        lam = np.linalg.eigvalsh(np.tensordot(y, inst.matrices, (0, 0)))[0]
        shrunk = Sdp(inst.matrices
                     - 0.999 * lam * y[:, None, None] * np.eye(20))
        found = []

        def recording(*args):
            found.append(oracle.face_atoms(*args))
            return found[-1]

        monkeypatch.setattr(prfeas.solver, "face_atoms", recording)
        out = main_algorithm(shrunk)
        assert out.status == "feasible"
        assert out.counters.rescalings > 0
        assert found and all(atoms is None for atoms in found)


class TestContractionProperties:
    def test_thin_wedge_eventually_feasible(self, solve_probe):
        out = main_algorithm(thin_cone(1e-3), epsilon=1e-6)
        assert out.status == "feasible"
        assert out.verification.accepted
        assert out.counters.rescalings >= 5
        assert len(solve_probe.rescales) == out.counters.rescalings

    def test_contraction_direction_nearly_orthogonal_to_feasible(
            self, solve_probe):
        # each chosen direction a satisfies 0 < a^T y <= mu |y| for every
        # feasible y of the current scaled system; checked at y = M^-1 y*
        m = 3
        mu = 1.0 / math.sqrt(3.0 * m)
        y_star = np.array([0.0, 0.0, 1.0])
        main_algorithm(thin_cone(1e-3), epsilon=1e-6)
        assert solve_probe.rescales
        y_tilde = y_star.copy()
        for a in solve_probe.rescales:
            n_y = np.linalg.norm(y_tilde)
            val = float(a @ y_tilde)
            assert val > 0.0
            assert val <= mu * n_y + 1e-9 * n_y
            y_tilde = y_tilde + a * (a @ y_tilde)  # (I - a a^T / 2)^-1

    @pytest.mark.parametrize("lift,calls", [
        (1e-2, 1087), (1e-3, per_kernel(1288, Haswell=1319))])
    def test_relaxed_exit_contracts_along_a_slab(self, solve_probe, lift,
                                                 calls):
        # Gaussian columns projected onto y_perp, plus lift * y: y is
        # feasible with a_t^T y = lift.  A run that ends at ||z|| <= mu x_h
        # contracts along a column a_hat with a_hat^T y' <= mu ||y'|| for
        # y' = M^-1 y under the map as it stood before that contraction
        m = 10
        y = np.random.default_rng(1).standard_normal(m)  # the LP's first draw
        y /= np.linalg.norm(y)
        out = main_algorithm(hyperplane_lp(m, 200, 1, lift))
        assert out.status == "feasible"
        assert out.counters.oracle_calls == calls
        assert len(solve_probe.rescales) == len(solve_probe.contractions) \
            == out.counters.rescalings > 0
        relaxed = 0
        for (z_norm, mu, x_h), a in zip(solve_probe.contractions,
                                        solve_probe.rescales):
            assert z_norm <= mu * x_h
            relaxed += z_norm > mu / (m + 1)
            n_y = np.linalg.norm(y)
            assert 0.0 < float(a @ y) <= mu * n_y * (1.0 + 1e-9)
            y = y + a * (a @ y)  # (I - a a^T / 2)^-1
        assert relaxed > 0

    def test_feasible_points_grow_slowly_under_inverse_contraction(
            self, solve_probe):
        # |(I + a a^T) y| <= |y| sqrt(1 + 1/m) along the chosen direction
        m = 3
        y_star = np.array([0.0, 0.0, 1.0])
        main_algorithm(thin_cone(1e-3), epsilon=1e-6)
        y_tilde = y_star.copy()
        for a in solve_probe.rescales:
            grown = y_tilde + a * (a @ y_tilde)
            bound = np.linalg.norm(y_tilde) * math.sqrt(1.0 + 1.0 / m)
            assert np.linalg.norm(grown) <= bound + 1e-9
            y_tilde = grown

    def test_potential_steps_recorded_per_inner_run(self, solve_probe):
        out = main_algorithm(thin_cone(1e-2), epsilon=1e-6)
        assert out.counters.bp_calls == len(solve_probe.runs)
        assert sum(solve_probe.runs) == out.counters.bp_iterations
        assert solve_probe.steps
        for before, after in solve_probe.steps:
            assert after - before >= 1.0 - 1e-9


class TestDeterminism:
    def test_repeat_solves_identical(self):
        inst, _ = generate_planted("lp", m=3, n=9, seed=5,
                                   target="feasible_d")
        a = main_algorithm(inst, epsilon=1e-2)
        b = main_algorithm(inst, epsilon=1e-2)
        assert a.status == b.status
        assert np.array_equal(a.y, b.y)
        assert a.counters == b.counters
