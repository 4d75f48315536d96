import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import prfeas.solver
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prfeas.certify import (
    generate_planted,
    resolve_witness_column,
    verify_d_solution,
    verify_p_certificate,
)
from prfeas import oracle
from prfeas.oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    OracleContractViolation,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    WitnessedColumn,
    face_atoms,
    lp_query,
    query,
    sdp_query,
    socp_query,
    unit_direction,
    vector_norm,
)
from prfeas.solver import main_algorithm
from semicircle import make_semicircle


class TestFiniteLpQuery:
    def test_interior(self):
        inst = FiniteLp(np.eye(2))
        assert lp_query(inst, np.array([1.0, 1.0])) is None

    def test_zero_margin_counts_as_violation(self):
        inst = FiniteLp(np.eye(2))
        w = lp_query(inst, np.array([1.0, 0.0]))
        assert w is not None
        assert w.witness == LpIndex(1)
        assert_allclose(w.column, np.array([0.0, 1.0]), atol=0)

    def test_most_violated_normalized_index(self):
        # normalized margins (1, -0.447, -1.342): column 1 is the first
        # violated one, column 2 the most violated
        cols = np.array([[1.0, -1.0, -1.0], [0.0, 0.5, -0.5]])
        w = lp_query(FiniteLp(cols), np.array([1.0, 1.0]))
        assert w.witness == LpIndex(2)

    def test_tie_takes_lowest_index(self):
        # normalized margins (1, -1, -1, -0.5): columns 1 and 2 tie
        cols = np.array([[1.0, -1.0, -2.0, -0.5], [0.0, 0.0, 0.0, 0.0]])
        cols[1, 3] = 0.5 * np.sqrt(3.0)
        w = lp_query(FiniteLp(cols), np.array([1.0, 0.0]))
        assert w.witness == LpIndex(1)

    def test_scales_replace_column_norms(self):
        cols = np.array([[1.0, -1.0, -1.0], [0.0, 0.5, -0.5]])
        inst = FiniteLp(cols)
        y = np.array([1.0, 1.0])
        # raw margins (1, -0.5, -1.5) divided by (1, 0.1, 1): column 1
        w = lp_query(inst, y, np.array([1.0, 0.1, 1.0]))
        assert w.witness == LpIndex(1)
        assert query(inst, y, np.array([1.0, 0.1, 1.0])).witness == LpIndex(1)
        with pytest.raises(ValueError, match=r"scales must have shape \(3,\)"):
            lp_query(inst, y, np.ones(2))

    def test_ratio_that_underflows_to_zero_is_not_picked(self):
        # ranked at y / 2, the margins are (5e-101, 0); over the scales
        # (1e300, 1) both ratios are 0.0, and the first belongs to a
        # column that is not violated
        inst = FiniteLp(np.diag([1e-100, 1.0]))
        y = np.array([1.0, 0.0])
        w = lp_query(inst, y, np.array([1e300, 1.0]))
        assert w.witness == LpIndex(1)

    def test_nan_margin_ranks_first(self):
        # at max|y_i| < 1 no product of stored columns overflows, so only
        # a NaN entry planted in them, bypassing construction, gives the
        # margins (-1, nan, 1)
        inst = FiniteLp(np.array([[-2.0, 1.0, 2.0], [0.0, 1.0, 0.0]]))
        inst.columns[1, 1] = np.nan
        w = lp_query(inst, np.array([1.0, 1.0]))
        assert w.witness == LpIndex(1)

    def test_positive_margins_give_none(self):
        # ranked at y / 2, the first ratio underflows to 0.0, yet its
        # margin is positive
        inst = FiniteLp(np.eye(2))
        y = np.array([1e-300, 1.0])
        assert lp_query(inst, y, np.array([1e300, 1.0])) is None
        assert lp_query(inst, y) is None

    def test_direction_near_float_max_picks_as_scaled(self):
        # at y = 1e308 (1, 1, 1, 1) column 0's margin is -3e307, and the
        # products of column 2 overflow with both signs, though its margin
        # is 1e307; ranked at 2^-1024 y, as lp_query ranks it, nothing
        # overflows and only column 0 is violated
        cols = np.array([[0.5, 1.0, 2.0], [-1.0, 0.0, -2.0],
                         [0.1, 0.0, 2.0], [0.1, 0.0, -1.9]])
        inst = FiniteLp(cols)
        y = np.full(4, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = lp_query(inst, y)
        assert w.witness == LpIndex(0)
        assert w.witness == lp_query(inst, np.ldexp(y, -1024)).witness

    def test_repeat_queries_identical(self):
        rng = np.random.default_rng(4)
        inst = FiniteLp(rng.standard_normal((3, 10)))
        y = rng.standard_normal(3)
        w1 = query(inst, y)
        w2 = query(inst, y)
        assert w1.witness == w2.witness
        assert_allclose(w1.column, w2.column, atol=0)

    def test_column_validation(self):
        with pytest.raises(ValueError):
            FiniteLp(np.array([[1.0, 0.0], [0.0, 0.0]]))  # zero column

    def test_columns_whose_norm_overflows_are_scaled(self):
        # columns 0 and 1 peak at 1.5e308 = 2^1023.7 and are stored times
        # 2^-640, just below 2^384; column 2 is in range and kept
        cols = np.array([[1.5e308, -1.5e308, 1.0], [1.5e308, -1.5e308, 0.0]])
        inst = FiniteLp(cols)
        w = lp_query(inst, np.array([1.0, 1.0]))
        assert inst.exponents.tolist() == [640, 640, 0]
        assert np.ldexp(inst.columns, inst.exponents).tobytes() == \
            cols.tobytes()
        assert inst.as_given().tobytes() == cols.tobytes()
        assert inst.columns[:, 2].tobytes() == cols[:, 2].tobytes()
        assert np.all(np.abs(inst.columns) < 2.0**384)
        assert np.all(np.isfinite(inst.column_norms))
        assert w.witness == LpIndex(1)
        assert w.exponent == 640

    def test_columns_with_finite_norms_are_kept(self):
        # 1e150 = 2^498.3 is out of range, -1 and 2 are not; the in-range
        # column keeps its bytes and its norm
        cols = np.array([[1e150, -1.0], [1e150, 2.0]])
        inst = FiniteLp(cols)
        assert inst.exponents.tolist() == [499 - 384, 0]
        assert np.ldexp(inst.columns, inst.exponents).tobytes() == \
            cols.tobytes()
        assert inst.columns[:, 1].tobytes() == cols[:, 1].tobytes()
        assert inst.column_norms[1] == np.linalg.norm(cols[:, 1])

    def test_tiny_columns_are_scaled_up(self):
        cols = np.array([[3e-300, 1.0], [4e-300, 0.0]])
        inst = FiniteLp(cols)
        assert inst.exponents[0] < 0 and inst.exponents[1] == 0
        assert 2.0**-384 <= np.max(np.abs(inst.columns[:, 0])) < 2.0**-383
        assert np.ldexp(inst.columns, inst.exponents).tobytes() == \
            cols.tobytes()

    def test_column_that_would_round_is_rejected(self):
        # 1e-300 shares a column with 1.5e308; times 2^-640 it would round
        with pytest.raises(ValueError, match="scale exactly"):
            FiniteLp(np.array([[1.5e308, 1.0], [1e-300, 0.0]]))

    def test_in_range_data_is_stored_as_given(self):
        # no copy, no rescan: the stored arrays are the given ones
        cols = np.random.default_rng(3).standard_normal((4, 9))
        inst = FiniteLp(cols)
        assert np.shares_memory(inst.columns, cols)
        assert not inst.exponents.any()
        A = np.random.default_rng(4).standard_normal((3, 7))
        socp = Socp(A, (3, 1, 3))
        assert np.shares_memory(socp.A, A)
        assert not socp.exponents.any()


class TestLpScreen:
    """The float32 screen (``oracle._screened_pick``), called directly on
    instances far below the size at which ``lp_query`` runs it: whenever
    it decides, with a column or with -1 for None, the float64 ranking
    (``oracle._exact_pick``) at the same direction and the default scales
    decides the same."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_a_decided_screen_is_the_exact_pick(self, data):
        draw = data.draw
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # small integers give exact zero margins and exact ties
        ints = draw(st.booleans())
        cols = rng.integers(-3, 4, (m, n)).astype(float) if ints \
            else rng.standard_normal((m, n))
        cols[0, ~cols.any(axis=0)] = 1.0
        for _ in range(draw(st.integers(0, 3))):
            # a copy of another column: the same, one ulp away, or moved
            # by about float32's resolution, which float32 may misorder
            j, k = rng.integers(0, n, 2)
            p = draw(st.sampled_from([0, 1, 20, 24, 28]))
            col = cols[:, j]
            if p == 1:
                col = np.nextafter(col, np.inf)
            elif p:
                col = col * (1.0 + rng.choice([-1.0, 1.0], m) * 2.0**-p)
            cols[:, k] = col
        if draw(st.booleans()):
            # columns stored by the range rule, with exponents != 0
            cols = np.ldexp(cols, rng.choice([-900, -500, 0, 500, 900], n))
        inst = FiniteLp(cols)

        y = rng.integers(-3, 4, m).astype(float) if ints \
            else rng.standard_normal(m)
        y[0] += not y.any()
        if draw(st.booleans()):
            # y orthogonal to a column up to rounding: a margin near 0
            a = inst.columns[:, rng.integers(0, n)]
            y -= (y @ a) / (a @ a) * a
            y[0] += not y.any()
        # entries that float32 flushes to zero, beside normal ones
        tiny = draw(st.sampled_from([1.0, 1e-50, 2.0**-160, 1e-300]))
        y[rng.random(m) < 0.5] *= tiny
        y = np.ldexp(y, -math.frexp(abs(y).max())[1])

        got = oracle._screened_pick(inst, y)
        if got is not None:
            assert got == oracle._exact_pick(inst, y, None)

    @staticmethod
    def screen_and_exact(cols, y):
        inst = FiniteLp(np.array(cols, dtype=float))
        y = np.array(y, dtype=float)
        assert 0.5 <= abs(y).max() < 1.0
        return (oracle._screened_pick(inst, y),
                oracle._exact_pick(inst, y, None))

    def test_float32_tie_is_left_to_the_exact_pick(self):
        # columns 1 and 3 are the same direction, 3 at twice the length:
        # their unit columns and float32 ratios are equal, so the screen
        # cannot order them, and the exact pick takes the lower index
        cols = [[1.0, -1.0, 0.5, -2.0], [0.0, 0.25, 1.0, 0.5]]
        assert self.screen_and_exact(cols, [0.75, 0.5]) == (None, 1)

    def test_float32_near_tie_is_left_to_the_exact_pick(self):
        # column 2 is column 1 turned by 2^-40 rad: float32 rounds both
        # unit columns alike, float64 ranks column 2 deeper
        t = math.atan2(0.25, -1.0) - 2.0**-40
        cols = [[1.0, -1.0, math.cos(t)], [0.0, 0.25, math.sin(t)]]
        assert self.screen_and_exact(cols, [0.75, -0.5]) == (None, 2)

    def test_least_interval_touching_zero_is_left_to_the_exact_pick(self):
        # column 1 . y = 0 exactly: its interval straddles 0, and a zero
        # margin counts as violated
        cols = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        assert self.screen_and_exact(cols, [0.75, 0.0]) == (None, 1)
        # a margin of -2^-41: negative, but within the float32 bound of 0
        cols = [[1.0, 1.0], [0.0, -(1.0 + 2.0**-40)]]
        assert self.screen_and_exact(cols, [0.5, 0.5]) == (None, 1)

    def test_positive_least_ratio_within_its_bound_is_left_open(self):
        # column 1 . y = 2^-23: its float32 ratio, about 9e-8, is positive
        # but within the bound (about 2.7e-7) of 0
        cols = [[1.0, 1.0], [1.0, -(1.0 - 2.0**-22)]]
        assert self.screen_and_exact(cols, [0.5, 0.5]) == (None, -1)

    def test_runner_up_within_twice_the_bound_is_left_open(self):
        # the ratios of columns 0 and 1 differ by about 4e-7: more than
        # one bound, less than the two that separate their intervals
        e = 8e-7
        cols = [[-1.0, -math.cos(e), 1.0], [0.0, math.sin(e), 0.0]]
        assert self.screen_and_exact(cols, [0.75, 0.5]) == (None, 0)

    def test_all_ratios_positive_give_none(self):
        cols = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        assert self.screen_and_exact(cols, [0.75, 0.5]) == (-1, -1)

    def test_unique_least_ratio_is_decided(self):
        # one column, whose runner-up is +inf, and three well apart
        assert self.screen_and_exact([[-1.0], [0.5]], [0.75, 0.5]) == (0, 0)
        cols = [[1.0, -1.0, -1.0], [0.0, 0.5, -0.5]]
        assert self.screen_and_exact(cols, [0.75, 0.75]) == (2, 2)

    def test_float32_copy_is_built_at_the_first_screened_query(self):
        # half the LP's storage, paid only by an LP that is screened
        n = oracle.LP_SCREEN_MIN_ENTRIES // 4
        inst = generate_planted("lp", 4, n, 1)[0]
        y = np.ones(4)
        lp_query(inst, y, np.ones(n))  # rescaled scales rank in float64
        assert "_unit32" not in vars(inst)
        lp_query(inst, y)
        assert vars(inst)["_unit32"].dtype == np.float32


    @pytest.mark.parametrize("m,n", [(60, 5000), (30, 2000), (3, 7)])
    def test_float32_copy_starts_on_a_64_byte_boundary(self, m, n):
        # sliced from one buffer 64 bytes larger, not copied to align
        inst = generate_planted("lp", m, n, 1)[0]
        unit = inst._unit32
        assert unit.ctypes.data % 64 == 0
        assert unit.flags.c_contiguous and unit.shape == (m, n)
        assert unit.base.size == m * n + 16
        expected = (inst.columns / inst.column_norms).astype(np.float32)
        assert unit.tobytes() == expected.tobytes()


class TestSdpQuery:
    def test_interior_identity_bundle(self):
        mats = np.array([np.eye(2), np.diag([1.0, -1.0])])
        inst = Sdp(mats)
        # X = 2 I + 0.5 diag(1,-1) = diag(2.5, 1.5) is PD
        assert sdp_query(inst, np.array([2.0, 0.5])) is None

    def test_separation_column_is_quadratic_form(self):
        mats = np.array([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
        inst = Sdp(mats)
        y = np.array([1.0, 2.0])  # X = [[1,2],[2,1]] is indefinite
        w = sdp_query(inst, y)
        assert w is not None
        v = np.asarray(w.witness.v)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        expected = np.array([v @ M @ v for M in mats])
        assert_allclose(w.column, expected, atol=1e-14)
        assert w.column @ y <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_eigencheck(self, n):
        rng = np.random.default_rng(50 + n)
        m = 4
        mats = np.array([0.5 * (B + B.T) for B in rng.standard_normal((m, n, n))])
        inst = Sdp(mats)
        for _ in range(100):
            y = rng.standard_normal(m)
            X = np.tensordot(y, mats, axes=(0, 0))
            min_eig = np.min(np.linalg.eigvalsh(X))
            scale = max(np.max(np.abs(X)), 1e-30)
            w = sdp_query(inst, y)
            if min_eig > 1e-10 * scale:
                assert w is None
            elif min_eig < -1e-10 * scale:
                assert w is not None

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_witness_is_minimum_eigenvector(self, n):
        rng = np.random.default_rng(80 + n)
        m = 3
        mats = np.array([0.5 * (B + B.T) for B in rng.standard_normal((m, n, n))])
        inst = Sdp(mats)
        rejected = 0
        for _ in range(100):
            y = rng.standard_normal(m)
            w = sdp_query(inst, y)
            if w is None:
                continue
            rejected += 1
            X = np.tensordot(y, inst.matrices, axes=(0, 0))
            tol = 1e-10 * (1.0 + np.max(np.abs(X)))
            v = np.asarray(w.witness.v)
            value = v @ X @ v
            assert abs(value - np.min(np.linalg.eigvalsh(X))) <= tol
            assert abs(w.column @ y - value) <= tol
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert v[np.argmax(np.abs(v))] > 0.0
            # no coordinate direction is deeper than the eigenvector
            assert value <= np.min(np.diag(X)) + tol
        assert rejected > 0

    def test_scales_rejected(self):
        # a Socp ranks on its own Gram data, so it takes no scales either
        for inst in (Sdp(np.array([np.eye(2)])),
                     Socp(np.array([[-1.0, 0.0]]), (2,))):
            with pytest.raises(ValueError, match="scales apply to FiniteLp "
                                                 "instances only"):
                query(inst, np.array([-1.0]), np.ones(1))

    def test_stack_out_of_range_is_stored_as_an_lp_column(self):
        # the peak 2^400 is stored times 2^-17, just inside 2^384, the
        # power an LP column with that peak gets, odd as it is: eigh's
        # answer scales by any power of two
        given = np.ldexp([[[1.0, 0.0], [0.0, -0.5]]], 400)
        inst = Sdp(given)
        assert inst.exponent == FiniteLp(given[0]).exponents[0] == 17
        assert inst.matrices[0, 0, 0] == 2.0**383
        assert inst.as_given().tobytes() == given.tobytes()
        w = sdp_query(inst, np.array([1.0]))
        assert w.witness.v == (0.0, 1.0)
        assert w.column.tolist() == [-2.0**382] and w.exponent == 17

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            Sdp(np.array([[[1.0, 2.0], [0.0, 1.0]]]))

    def test_zero_size_matrices_rejected(self):
        with pytest.raises(ValueError):
            Sdp(np.zeros((2, 0, 0)))

    def test_definiteness_threshold_scales_with_diagonal(self):
        # X is rejected when lambda_min(X) <= 1e-12 * max(diag(X), 0)
        for scale in (1e-6, 1.0, 1e6):
            inst = Sdp(np.array([scale * np.diag([1.0, 2e-12])]))
            assert sdp_query(inst, np.array([1.0])) is None
            inst = Sdp(np.array([scale * np.diag([1.0, 5e-13])]))
            w = sdp_query(inst, np.array([1.0]))
            assert w is not None
            assert w.witness.v == (0.0, 1.0)


class TestSocpQuery:
    def test_interior(self):
        # x = A^T y = (3, 1, 2) in one block: 3 > ||(1,2)||
        A = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        A[1, 0] = 1.0
        inst = Socp(A, (3,))
        y = np.array([1.0, 0.0])
        assert socp_query(inst, y) is None

    def test_witness_structure_and_value(self):
        A = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        inst = Socp(A, (3,))
        y = np.array([1.0, 1.0])  # x = (1, 2, 1), 1 <= ||(2,1)||
        w = socp_query(inst, y)
        assert w is not None
        v = np.asarray(w.witness.v)
        x = A.T @ y
        tail = x[1:]
        assert v[0] == 1.0
        assert_allclose(v[1:], -tail / np.linalg.norm(tail), atol=1e-15)
        assert_allclose(w.column, A @ v, atol=0)
        # the separation value is exactly x0 - ||x_tail||
        assert w.column @ y == pytest.approx(x[0] - np.linalg.norm(tail),
                                             abs=1e-14)

    def test_block_mapped_to_zero_gives_zero_column(self):
        # x = (5, 3, 4) is on the boundary, and A v = 0 for its witness
        inst = Socp(np.array([[5.0, 3.0, 4.0]]), (3,))
        w = socp_query(inst, np.array([1.0]))
        assert_allclose(np.asarray(w.witness.v), [1.0, -0.6, -0.8], atol=0)
        assert not w.column.any()

    def test_degenerate_tail_witness(self):
        # block value (0, 0): violated, with no tail direction to flip
        A = np.array([[0.0, 0.0], [0.0, 1.0]])
        A[1, 0] = 1.0
        inst = Socp(A, (2,))
        w = socp_query(inst, np.array([1.0, 0.0]))
        assert w is not None
        assert_allclose(np.asarray(w.witness.v), np.array([1.0, 0.0]), atol=0)

    def test_first_violated_block_and_zero_padding(self):
        # two blocks; first is fine, second violated
        A = np.zeros((2, 4))
        A[0, 0] = 5.0        # block 1 leading
        A[1, 1] = 1.0        # block 1 tail
        A[0, 2] = -1.0       # block 2 leading
        A[1, 3] = 0.5        # block 2 tail
        inst = Socp(A, (2, 2))
        y = np.array([1.0, 0.1])
        w = socp_query(inst, y)
        v = np.asarray(w.witness.v)
        assert np.all(v[:2] == 0.0)
        assert v[2] == 1.0

    def test_witness_is_padded_with_zeros_off_its_block(self):
        # blocks (2, 3, 2); only the middle one is violated at y
        A = np.zeros((2, 7))
        A[0, [0, 5]] = 4.0
        A[0, 2], A[1, 3], A[0, 4] = 1.0, 3.0, -4.0
        inst = Socp(A, (2, 3, 2))
        y = np.array([1.0, 1.0])
        w = socp_query(inst, y)
        x = A.T @ y
        v = np.zeros(7)
        v[2] = 1.0
        v[3:5] = -x[3:5] / np.linalg.norm(x[3:5])
        assert len(w.witness.v) == 7
        assert all(type(t) is float for t in w.witness.v)
        assert w.witness.v == tuple(v.tolist())
        assert np.array(w.witness.v).tobytes() == v.tobytes()
        assert w.column.tobytes() == (A @ v).tobytes()

    def test_size_one_blocks(self):
        A = np.array([[1.0, -1.0], [0.5, 0.5]])
        inst = Socp(A, (1, 1))
        w = socp_query(inst, np.array([1.0, 0.0]))
        assert w is not None
        assert np.asarray(w.witness.v)[1] == 1.0

    def test_block_validation(self):
        with pytest.raises(ValueError):
            Socp(np.ones((2, 3)), (2, 2))

    @pytest.mark.parametrize("blocks", [(1.5, 1.5), (2.9, 1), (True, 2),
                                        ("2", 1), (float("nan"), 1)])
    def test_block_sizes_must_be_integers(self, blocks):
        with pytest.raises(TypeError):
            Socp(np.ones((2, 3)), blocks)

    def test_integral_block_sizes_accepted(self):
        inst = Socp(np.ones((2, 3)), [2.0, np.int64(1)])
        assert inst.blocks == (2, 1)
        assert all(type(b) is int for b in inst.blocks)
        assert inst.starts.tolist() == [0, 2]


class TestSocpWitnessBuiltOnRead:
    """socp_query's witness keeps its block and builds ``v`` when read."""

    def fresh(self):
        """A query's witness, not yet read, and the same vector whole."""
        inst = random_socp(np.random.default_rng(5))
        y = np.eye(inst.m)[0]
        whole = loop_socp_query(inst, y).witness
        assert socp_query(inst, y).witness.v == whole.v
        return lambda: socp_query(inst, y).witness, whole, inst.n

    def test_v_is_built_when_first_read(self):
        query_witness, whole, n = self.fresh()
        w = query_witness()
        assert "v" not in vars(w)
        v = w.v
        assert vars(w)["v"] is v and w.v is v
        assert type(v) is tuple and len(v) == n
        assert all(type(t) is float for t in v)
        assert np.array(v).tobytes() == np.array(whole.v).tobytes()

    def test_equals_hashes_and_prints_as_the_whole_vector(self):
        query_witness, whole, _ = self.fresh()
        assert query_witness() == whole
        assert whole == query_witness()
        assert query_witness() != SocpVector(whole.v[:-1] + (2.0,))
        assert hash(query_witness()) == hash(whole)
        assert {query_witness(): 1}[whole] == 1
        assert repr(query_witness()) == repr(whole)
        assert dataclasses.asdict(query_witness()) == {"v": whole.v}
        assert pickle.loads(pickle.dumps(query_witness())) == whole

    def test_cannot_be_mutated(self):
        query_witness, whole, _ = self.fresh()
        for read in (False, True):
            w = query_witness()
            if read:
                w.v
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.v = whole.v
            with pytest.raises(dataclasses.FrozenInstanceError):
                del w.v
            assert w == whole
        with pytest.raises(AttributeError, match="no attribute 'u'"):
            query_witness().u


# Per-block loops for socp_query, Socp.min_margin and
# resolve_witness_column; the array passes must reproduce them.

#: Two depths this close, relative to ||y||, which bounds every depth
#: |margin_b / ||A v_b||| = |(A v_b)^T y| / ||A v_b||, count as a tie.
#: The kernel takes each block's norm from Gram entries, the loop from the
#: block's column, and both round with cancellation in ``A^T y`` and ``A
#: v``, so a tie is judged on depths recomputed exactly
#: (:func:`decimal_socp_depth`).
DEPTH_TIE_RTOL = 1e-12


def loop_slices(instance):
    out, start = [], 0
    for b in instance.blocks:
        out.append(slice(start, start + b))
        start += b
    return out


def loop_socp_depths(instance, y):
    """(depth, witnessed column, slice) of every violated block, in block
    order.

    The depth is ``margin_b / ||A_b v_b||``, with the norm taken from the
    block's own columns of ``A``, and ``-inf`` when that column vanishes.
    The witnessed column is ``A_b v_b``.  The tail norm is taken by
    ``vector_norm``, as the oracle's witness takes it, which neither
    overflows nor underflows.
    """
    x = instance.A.T @ y
    out = []
    for sl in loop_slices(instance):
        xb = x[sl]
        x0 = xb[0]
        tail = xb[1:]
        tail_norm = vector_norm(tail)
        if x0 > tail_norm:
            continue
        v = np.zeros(instance.n)
        v[sl.start] = 1.0
        if tail_norm > 0.0:
            v[sl.start + 1 : sl.stop] = -tail / tail_norm
        norm = float(np.linalg.norm(instance.A[:, sl] @ v[sl]))
        depth = (x0 - tail_norm) / norm if norm > 0.0 else -np.inf
        out.append((depth, WitnessedColumn(
            SocpVector(tuple(float(t) for t in v)),
            instance.A[:, sl] @ v[sl]), sl))
    return out


def decimal_socp_depth(instance, y, sl):
    """The depth of block ``sl`` at ``y``, as :func:`loop_socp_depths`
    takes it, recomputed from the float data of ``A`` and ``y`` in
    50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        A = [[Decimal(a) for a in row] for row in instance.A[:, sl].tolist()]
        yd = [Decimal(t) for t in y.tolist()]
        x = [sum(a * t for a, t in zip(col, yd)) for col in zip(*A)]
        tail = sum((t * t for t in x[1:]), Decimal(0)).sqrt()
        v = [Decimal(1)] + [-t / tail if tail else Decimal(0) for t in x[1:]]
        norm = sum(sum(a * t for a, t in zip(row, v)) ** 2 for row in A).sqrt()
        return (x[0] - tail) / norm if norm else Decimal("-Infinity")


def loop_socp_query(instance, y):
    """The deepest violated block, lowest index on ties."""
    depths = loop_socp_depths(instance, y)
    if not depths:
        return None
    return min(depths, key=lambda d: d[0])[1]


def assert_matches_loop(inst, y, w):
    """``w`` is the loop's pick, bit for bit, or a violated block whose
    exact depth (:func:`decimal_socp_depth`) ties that of the loop's pick
    within ``DEPTH_TIE_RTOL`` times ``||y||``, a bound on every depth."""
    depths = loop_socp_depths(inst, y)
    assert (w is None) == (not depths)
    if w is None:
        return
    _, ref, ref_slice = min(depths, key=lambda d: d[0])
    if w.witness != ref.witness:
        mine = [sl for _, r, sl in depths if r.witness == w.witness]
        assert len(mine) == 1
        gap = decimal_socp_depth(inst, y, mine[0]) \
            - decimal_socp_depth(inst, y, ref_slice)
        assert abs(gap) <= DEPTH_TIE_RTOL * vector_norm(y)
        return
    assert np.asarray(w.witness.v).tobytes() == \
        np.asarray(ref.witness.v).tobytes()
    assert w.column.tobytes() == ref.column.tobytes()


def loop_accepted_margin(instance, y):
    x = instance.A.T @ y
    margins = [x[sl][0] - float(np.linalg.norm(x[sl][1:]))
               for sl in loop_slices(instance)]
    return float(min(margins))


def loop_resolves(instance, v):
    active = 0
    for sl in loop_slices(instance):
        vb = v[sl]
        if not np.any(vb != 0.0):
            continue
        active += 1
        if abs(vb[0] - 1.0) > 1e-12 or \
                np.linalg.norm(vb[1:]) > 1.0 + 1e-12:
            return False
    return active > 0


def random_socp(rng):
    """Blocks of sizes 1-5 (at least one of size 1), some zero tails.

    Row 0 of ``A`` is ``x = A^T e_0``; it is filled so that most blocks
    are strictly feasible, some are violated (zero tails with ``x0 < 0``,
    or ``x0 = 0``) and one lies exactly on the boundary, ``(5, 3, 4)``.
    """
    blocks = [1, 3] + [int(b) for b in rng.integers(1, 6, rng.integers(1, 9))]
    rng.shuffle(blocks)
    m, n = int(rng.integers(2, 5)), sum(blocks)
    A = rng.standard_normal((m, n))
    row = np.empty(n)
    boundary = blocks.index(3)
    for b, sl in enumerate(loop_slices(Socp(A, blocks))):
        size = blocks[b]
        if b == boundary:
            row[sl] = (5.0, 3.0, 4.0)
            continue
        if size == 1 or rng.random() < 0.3:   # zero tail, x0 of either sign
            A[:, sl.start + 1 : sl.stop] = 0.0
            row[sl] = 0.0
            row[sl.start] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
            continue
        row[sl.start + 1 : sl.stop] = rng.standard_normal(size - 1)
        row[sl.start] = np.linalg.norm(row[sl.start + 1 : sl.stop]) \
            * (1.0 + rng.random()) if rng.random() < 0.8 else 0.0
    A[0] = row
    return Socp(A, blocks)


class TestSocpKernelMatchesLoop:
    @pytest.mark.parametrize("seed", range(40))
    def test_query_and_margin(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_socp(rng)
        ys = [np.eye(inst.m)[0]] + [rng.standard_normal(inst.m)
                                    for _ in range(5)]
        for y in ys:
            assert_matches_loop(inst, y, socp_query(inst, y))
            assert inst.min_margin(y) == loop_accepted_margin(inst, y)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_query_matches_loop_on_wide_and_scaled_blocks(self, data):
        # blocks wider than m + 1 and of size 1, zero tails, each block
        # and y times a power of two, so that the blocks of A^T y lie far
        # apart in size and y far from its unit direction
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = draw(st.integers(1, 4))
        blocks = draw(st.lists(st.integers(1, m + 4), min_size=1,
                               max_size=8))
        A = rng.standard_normal((m, sum(blocks)))
        inst = Socp(A, blocks)
        for sl in inst.block_slices():
            if rng.random() < 0.3:
                A[:, sl.start + 1 : sl.stop] = 0.0
        powers = draw(st.lists(st.sampled_from([-300, -40, 0, 40, 300]),
                               min_size=len(blocks), max_size=len(blocks)))
        A *= np.repeat(np.ldexp(1.0, powers), blocks)
        inst = Socp(A, blocks)
        assert not inst.exponents.any()
        ys = [np.ldexp(rng.standard_normal(m), draw(st.sampled_from(
            [-300, 0, 300]))) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for y in ys:
                assert_matches_loop(inst, y, socp_query(inst, y))
                x = inst.A.T @ y
                assert inst.min_margin(y) == min(
                    x[sl][0] - vector_norm(x[sl][1:])
                    for sl in inst.block_slices())

    def test_tie_is_judged_on_exact_depths(self):
        # m = 1 makes Cauchy-Schwarz tight, so every violated block's
        # exact depth is -|y|; rounded, the kernel's pick (block 1) lies
        # 1.14e-12 |y| above the loop's (block 3)
        rng = np.random.default_rng(37)
        blocks = (1, 3, 5, 2)
        A = rng.standard_normal((1, 11))
        for sl in Socp(A, blocks).block_slices():
            if rng.random() < 0.3:
                A[:, sl.start + 1 : sl.stop] = 0.0
        inst = Socp(np.ldexp(A, -300), blocks)
        y = np.ldexp(rng.standard_normal((3, 1))[2], -300)
        w = socp_query(inst, y)
        depths = loop_socp_depths(inst, y)
        best, ref, _ = min(depths, key=lambda d: d[0])
        mine = [d for d, r, _ in depths if r.witness == w.witness]
        assert w.witness != ref.witness
        assert mine[0] - best > DEPTH_TIE_RTOL * vector_norm(y)
        assert_matches_loop(inst, y, w)

    def test_shallower_block_is_no_tie(self):
        # depths -1 and -0.5/sqrt(1.25) at y = e_1
        inst = Socp(np.array([[-1.0, -0.5], [0.0, 1.0]]), (1, 1))
        y = np.array([1.0, 0.0])
        _, shallow, _ = max(loop_socp_depths(inst, y), key=lambda d: d[0])
        with pytest.raises(AssertionError):
            assert_matches_loop(inst, y, shallow)

    def test_boundary_block_is_violated(self):
        A = np.zeros((2, 5))
        A[0] = (1.0, 5.0, 3.0, 4.0, 2.0)   # blocks (1), (5, 3, 4), (2)
        A[1, 1] = 1.0
        inst = Socp(A, (1, 3, 1))
        y = np.array([1.0, 0.0])
        w = socp_query(inst, y)
        assert w.witness == SocpVector((0.0, 1.0, -0.6, -0.8, 0.0))
        assert w.witness == loop_socp_query(inst, y).witness

    def test_strictly_feasible_returns_none(self):
        A = np.zeros((1, 6))
        A[0] = (1.0, 2.0, 0.0, 5.0, 3.0, 3.9)   # blocks (1), (2, 0), (5, 3, 3.9)
        inst = Socp(A, (1, 2, 3))
        y = np.ones(1)
        assert socp_query(inst, y) is None
        assert loop_socp_query(inst, y) is None
        assert inst.min_margin(y) == loop_accepted_margin(inst, y)

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_validation(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_socp(rng)
        candidates = []
        for y in [np.eye(inst.m)[0], rng.standard_normal(inst.m)]:
            w = socp_query(inst, y)
            if w is not None:
                candidates.append(np.asarray(w.witness.v))
        v = np.zeros(inst.n)
        for sl in inst.block_slices():     # a witness on several blocks
            if rng.random() < 0.5:
                u = rng.standard_normal(sl.stop - sl.start - 1)
                v[sl.start] = 1.0
                v[sl.start + 1 : sl.stop] = u * rng.random() \
                    / max(np.linalg.norm(u), 1e-300)
        candidates.append(v)
        for v in list(candidates):
            for j, delta in [(0, 1e-9), (-1, 1e-9), (-1, 0.5)]:
                nz = np.flatnonzero(v)
                if nz.size:
                    bad = v.copy()
                    bad[nz[j]] += delta
                    candidates.append(bad)
            candidates.append(2.0 * v)
        candidates.append(np.zeros(inst.n))
        for v in candidates:
            try:
                _, column, _ = resolve_witness_column(
                    inst, SocpVector(tuple(v.tolist())))
                accepted = True
                assert_within_product_bound(inst, v, column)
            except ValueError as exc:
                assert str(exc).startswith("socp witness"), exc
                accepted = False
            assert accepted == loop_resolves(inst, v)


# A witness's column has one formula per kind, which the oracles and
# resolve_witness_column share: a SOCP's A[:, sl] @ v[sl] over its blocks
# from the first nonzero one to the last, an Sdp's product of the stack's
# (m, n^2) view with vec(v v^T).  Each column must lie within the error
# bound of any float64 sum of products of the exact column.


def gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u = 2^-53``."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def exact_column(rows, *factors):
    """``sum_j rows_ij prod_f factors_f[j]`` for each row ``i``, summed
    in exact arithmetic and rounded once."""
    fs = [[Fraction(t) for t in f.tolist()] for f in factors]
    out = []
    for r in rows:
        total = Fraction(0)
        for j, a in enumerate(r.tolist()):
            if a:
                term = Fraction(a)
                for f in fs:
                    term *= f[j]
                total += term
        out.append(float(total))
    return np.array(out)


def column_products(inst, v):
    """The rows and factors whose products sum to the column of a witness
    vector ``v``, and the ``k`` of their bound: ``A`` and ``v``, with ``k
    = n``, for a Socp; the stack's ``(m, n^2)`` view and ``vec(v v^T)``
    as two factors, with ``k = n^2 + 1``, for an Sdp."""
    v = np.asarray(v)
    if isinstance(inst, Socp):
        return inst.A, (v,), inst.n
    n = v.size
    return (inst.matrices.reshape(inst.m, -1),
            (np.repeat(v, n), np.tile(v, n)), n * n + 1)


def assert_within_product_bound(inst, v, *columns):
    """Each of ``columns`` lies within ``gamma_k`` times the sum of the
    products' magnitudes of the exact column of ``v``
    (:func:`column_products`): the bound on any float64 sum of products
    in which each product passes through at most ``k`` multiplications
    and additions (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1), whatever its order.  Two more units cover
    the rounding of the exact column and of the magnitudes, and ``k``
    times ``2^-1070`` products that underflow."""
    rows, factors, k = column_products(inst, v)
    exact = exact_column(rows, *factors)
    magnitude = np.abs(rows) @ np.prod(np.abs(factors), axis=0)
    bound = gamma(k + 2) * magnitude + k * 2.0**-1070
    for got in columns:
        assert np.all(np.abs(got - exact) <= bound), (got, exact, bound)


def scaled_socp(draw, rng, powers):
    """A Socp of 1 to 6 blocks of sizes 1 to 8, each times a power of two
    drawn from ``powers``."""
    m = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    scale = draw(st.lists(st.sampled_from(powers), min_size=len(blocks),
                          max_size=len(blocks)))
    A = rng.standard_normal((m, sum(blocks)))
    return Socp(A * np.repeat(np.ldexp(1.0, scale), blocks), blocks)


class TestWitnessColumnOrder:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_socp_query_column_is_the_resolved_one(self, data):
        # blocks each times a power of two, some outside the range; the
        # column A_b v_b of the picked block is the one
        # resolve_witness_column forms, at the block's exponent, and lies
        # within gamma_n of the exact column
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        inst = scaled_socp(data.draw, rng, [-500, -300, -40, 0, 40, 300, 500])
        for y in rng.standard_normal((4, inst.m)):
            w = socp_query(inst, y)
            if w is None:
                continue
            _, column, exponent = resolve_witness_column(inst, w.witness)
            assert column.tobytes() == w.column.tobytes()
            assert exponent == w.exponent
            assert_within_product_bound(inst, w.witness.v, w.column)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_socp_witness_on_several_blocks(self, data):
        # a (1, u) witness on a random set of blocks stored at mixed
        # exponents: its column is A v over the blocks from the first to
        # the last, each scaled to the largest exponent, which lies
        # within gamma_n of the exact column of that scaled v
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        inst = scaled_socp(data.draw, rng, [-500, -420, 0, 420, 500])
        v = np.zeros(inst.n)
        picked = data.draw(st.lists(st.integers(0, len(inst.blocks) - 1),
                                    min_size=1, unique=True))
        for b in picked:
            sl = inst.block_slice(b, b)
            u = rng.standard_normal(sl.stop - sl.start - 1)
            v[sl.start] = 1.0
            v[sl.start + 1 : sl.stop] = u * rng.random() \
                / max(vector_norm(u), 1e-300)
        _, column, top = resolve_witness_column(inst,
                                                SocpVector(tuple(v.tolist())))
        assert top == inst.exponents[picked].max()
        owner = np.repeat(np.arange(len(inst.blocks)), inst.blocks)
        scaled = np.ldexp(v, inst.exponents[owner] - top)
        assert np.array_equal(np.ldexp(scaled, top - inst.exponents[owner]),
                              v)
        assert_within_product_bound(inst, scaled, column)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sdp_query_column_is_the_resolved_one(self, data):
        # stacks times a power of two, odd or even, some outside the
        # range; the product with vec(v v^T) is the one
        # resolve_witness_column forms and lies within gamma_{n^2+1} of
        # the exact v^T A_i v, each term a product of three factors
        draw = data.draw
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        B = rng.standard_normal((m, n, n))
        power = draw(st.sampled_from([-501, -500, -401, -300, -40, -21, 0,
                                      21, 40, 300, 401, 500, 501]))
        inst = Sdp(np.ldexp(B + B.transpose(0, 2, 1), power))
        for y in rng.standard_normal((4, m)):
            w = sdp_query(inst, y)
            if w is None:
                continue
            _, column, exponent = resolve_witness_column(inst, w.witness)
            assert column.tobytes() == w.column.tobytes()
            assert exponent == w.exponent == inst.exponent
            assert_within_product_bound(inst, w.witness.v, w.column)

    @pytest.mark.parametrize("kind,m,n", [
        ("socp", 5, 40), ("socp", 10, 100), ("socp", 20, 200),
        ("sdp", 4, 10), ("sdp", 8, 20), ("sdp", 20, 40)])
    def test_planted_witnesses_match_certify(self, kind, m, n, monkeypatch):
        # every column a planted solve is handed is, bit for bit, the one
        # resolve_witness_column forms from the witness, at its exponent
        answers, query_ = [], prfeas.solver.query

        def recording_query(instance, y, scales=None):
            answers.append(query_(instance, y, scales))
            return answers[-1]

        monkeypatch.setattr(prfeas.solver, "query", recording_query)
        for seed, target in [(1, "feasible_p"), (2, "feasible_p"),
                             (104, "feasible_p"), (1, "feasible_d"),
                             (105, "feasible_d")]:
            inst = generate_planted(kind, m, n, seed, target)[0]
            main_algorithm(inst)
            assert any(answers)
            for w in filter(None, answers):
                _, column, exponent = resolve_witness_column(inst, w.witness)
                assert exponent == w.exponent
                assert column.tobytes() == w.column.tobytes()
            answers.clear()


class TestSocpDeepestCut:
    def test_pick_is_deepest_violated_block(self):
        # x = (-1, 3 | -1, 1 | 0.5, 2) at y = 1: every block is violated,
        # with margins -4, -2, -1.5 and depths -4/sqrt(10), -2/sqrt(2) and
        # -1.5/sqrt(4.25); neither the first block nor the largest margin
        A = np.array([[-1.0, 0.0, -1.0, 0.0, 0.5, 0.0],
                      [0.0, 3.0, 0.0, 1.0, 0.0, 2.0]])
        inst = Socp(A, (2, 2, 2))
        w = socp_query(inst, np.ones(2))
        assert w.witness == SocpVector((0.0, 0.0, 1.0, -1.0, 0.0, 0.0))
        assert_matches_loop(inst, np.ones(2), w)

    @pytest.mark.parametrize("seed", range(10))
    def test_power_of_two_block_scaling_keeps_the_pick(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_socp(rng)
        k = rng.integers(-3, 4, len(inst.blocks))
        scaled = Socp(inst.A * np.repeat(np.ldexp(1.0, k), inst.blocks),
                      inst.blocks)
        for y in [np.eye(inst.m)[0]] + [rng.standard_normal(inst.m)
                                        for _ in range(5)]:
            w, ws = socp_query(inst, y), socp_query(scaled, y)
            assert (w is None) == (ws is None)
            if w is None:
                continue
            assert ws.witness == w.witness
            b = int(np.searchsorted(inst.starts, np.flatnonzero(
                np.asarray(w.witness.v))[0], side="right")) - 1
            assert ws.column.tobytes() == \
                np.ldexp(w.column, k[b]).tobytes()

    def test_vanishing_block_ranks_first(self):
        # block 0 is violated with a nonzero column; block 1 holds the
        # column (1, 1) twice, so x = (s, s) and its witness (1, -1) maps
        # to zero: that block alone is a dual certificate
        A = np.array([[-1.0, 0.0, 1.0, 1.0], [0.0, 0.5, 1.0, 1.0]])
        inst = Socp(A, (2, 2))
        y = np.ones(2)
        assert len(loop_socp_depths(inst, y)) == 2
        with np.errstate(divide="raise", invalid="raise"):
            depths = inst.cut_depths(*inst.image(y))
            w = socp_query(inst, y)
        assert not np.isnan(depths).any()
        assert w.witness == SocpVector((0.0, 0.0, 1.0, -1.0))
        assert not w.column.any()
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "dual_certificate"
        assert out.verification.accepted
        assert out.weights == [(w.witness, 1.0)]

    def test_entries_near_float_max(self):
        # x = (3e308, 0 | 3, 4, 0) at y = 1: blocks 1 and 2 are violated,
        # and the Gram entry of block 0 would overflow unscaled; blocks 0
        # and 1 peak near the float maximum, so they are stored scaled
        # into range, and a 3-atom certificate on blocks 1 and 2
        # verifies
        A = np.array([[1.5e308, 1e308, 1.0, 3.0, 1.0],
                      [1.5e308, -1e308, 2.0, 1.0, -1.0]])
        inst = Socp(A, (1, 1, 3))
        assert np.all(np.isfinite(inst.gram))
        assert len(loop_socp_depths(inst, np.ones(2))) == 2
        out = main_algorithm(inst, epsilon=1e-6)
        assert out.status == "dual_certificate"
        assert len(out.weights) <= inst.m + 1
        assert out.verification.accepted
        assert verify_p_certificate(inst, out.weights).accepted

    def test_image_decides_the_range_before_squaring(self):
        # x = (1e200, 3e200, 4e200 | 2e200, 3e199, 4e199) at y = 1e200:
        # every square overflows at y as given, so the query and the
        # margin take y at its unit direction before any square, where
        # image scales no block
        inst = Socp(np.array([[1.0, 3.0, 4.0, 2.0, 0.3, 0.4]]), (3, 3))
        y = np.array([1e200])
        u, e = unit_direction(y, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = socp_query(inst, y)
            margin = inst.min_margin(y)
            x, x0, tails, exps = inst.image(u)
        assert w.witness == loop_socp_query(inst, u).witness
        assert w.witness.v[0] == 1.0 and not any(w.witness.v[3:])
        assert exps is None
        assert x0.tobytes() == x[inst.starts].tobytes()
        assert_allclose(np.ldexp(x0 - tails, e),
                        [-4e200, 1.5e200], rtol=1e-15)
        assert margin == pytest.approx(-4e200, rel=1e-15)

    def test_block_scale_follows_x_not_a(self):
        # x = (1, 2, 0) at y = (0, 1): the block is violated by 1 - 2 = -1,
        # although its largest entry of A is 1e200; scaled by a power of
        # two from that entry into [1/2, 1), the tail's squares would
        # underflow to 0
        inst = Socp(np.array([[0.0, 0.0, 1e200], [1.0, 2.0, 0.0]]), (3,))
        y = np.array([0.0, 1.0])
        w = query(inst, y)
        assert w is not None
        assert w.witness == SocpVector((1.0, -1.0, 0.0))
        assert np.ldexp(w.column, w.exponent).tolist() == [0.0, -1.0]
        report = verify_d_solution(inst, y)
        assert not report.accepted
        assert report.residual == -1.0

    def test_tiny_block_beside_a_normal_one_is_violated(self):
        # x = (1, 0 | 1e-200, 2e-200) at y = 1: block 1 is violated by
        # -1e-200, but its tail's square underflows to 0 unscaled
        inst = Socp(np.array([[1.0, 0.0, 1e-200, 2e-200]]), (2, 2))
        w = query(inst, np.ones(1))
        assert w is not None
        assert w.witness == SocpVector((0.0, 0.0, 1.0, -1.0))
        assert not verify_d_solution(inst, np.ones(1)).accepted

    def test_tiny_tail_gives_a_unit_witness(self):
        # x = (-1, 3e-170, 4e-170): the tail's squares underflow to 0, so
        # sqrt(xt @ xt) would read 0 and the witness would lose its tail
        inst = Socp(np.array([[-1.0, 3e-170, 4e-170]]), (3,))
        w = query(inst, np.ones(1))
        v = np.asarray(w.witness.v)
        assert v[0] == 1.0
        assert v[1:] == pytest.approx([-0.6, -0.8], rel=1e-15)
        assert np.linalg.norm(v[1:]) == pytest.approx(1.0, rel=1e-15)
        resolve_witness_column(inst, w.witness)

    def test_blocks_all_wider_than_m_plus_1(self):
        # with no block of at most m + 1 coordinates there are no Gram
        # pairs, and bincount's integer zeros truncated the wide blocks'
        # squared norms: block 0 (depth -0.83) was picked over block 1
        # (depth -0.93)
        A = np.random.default_rng(0).standard_normal((2, 8))
        inst = Socp(A, (4, 4))
        y = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = socp_query(inst, y)
        assert np.flatnonzero(np.asarray(w.witness.v))[0] == 4
        assert_matches_loop(inst, y, w)

    def test_wide_block_is_not_gram_expanded(self):
        # the Gram of the 2,000-coordinate block alone would take 32 MB
        rng = np.random.default_rng(7)
        blocks = (3, 2000, 1, 4, 2)
        A = rng.standard_normal((10, sum(blocks)))
        ys = [rng.standard_normal(10) for _ in range(3)]
        tracemalloc.start()
        try:
            inst = Socp(A, blocks)
            picks = [socp_query(inst, y) for y in ys]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for y, w in zip(ys, picks):
            assert_matches_loop(inst, y, w)


#: (m, n) of the planted instances of each kind that the scale property
#: draws from
PLANTED_SIZES = {"lp": (5, 40), "sdp": (4, 6), "socp": (5, 40)}


class TestOneScaleForEveryDirection:
    """Every built-in query and margin runs at the unit direction of ``y``
    (:func:`unit_direction`), so a power of two on ``y`` changes no
    witness and no column, and scales the margin exactly."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(PLANTED_SIZES)),
           target=st.sampled_from(["feasible_d", "feasible_p"]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_power_of_two_on_y_changes_no_answer(self, kind, target, seed,
                                                 data):
        inst, cert = generate_planted(kind, *PLANTED_SIZES[kind], seed,
                                      target)
        y = np.random.default_rng(seed).standard_normal(inst.m)
        if cert.y is not None and data.draw(st.booleans()):
            y = cert.y
        # every entry of 2^k y stays a normal float
        exps = np.frexp(abs(y))[1]
        k = data.draw(st.integers(-1021 - int(exps.min()),
                                  1024 - int(exps.max())))
        scaled = np.ldexp(y, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w, wk = query(inst, y), query(inst, scaled)
        assert (w is None) == (wk is None)
        if w is not None:
            assert wk.witness == w.witness
            assert wk.column.tobytes() == w.column.tobytes()
            assert wk.exponent == w.exponent
        # a margin may leave the float range where y does not
        with np.errstate(over="ignore"):
            assert inst.min_margin(scaled) == \
                np.ldexp(inst.min_margin(y), k)

    @pytest.mark.parametrize("k", [600, -600])
    def test_custom_callback_is_handed_the_unit_direction(self, k):
        # as every built-in kernel is, so no square or sum it takes of
        # the direction overflows or underflows, whatever the query's size
        seen = []

        def fn(y):
            seen.append(y)
            return WitnessedColumn(CustomWitness("c"), -y)

        y = np.ldexp(np.array([1.0, -0.75]), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = query(CustomOracle(2, fn), y)
        assert w.witness == CustomWitness("c")
        assert seen[0].tolist() == [0.5, -0.375]


#: one instance of each kind with m = 2
KINDS = [FiniteLp(np.eye(2)), Sdp(np.array([np.eye(2), np.diag([1.0, -1.0])])),
         Socp(np.array([[1.0, 0.0], [0.0, 1.0]]), (1, 1)),
         CustomOracle(2, lambda y: WitnessedColumn(CustomWitness("c"), -y))]


class TestInputsCheckedWhereTheyEnter:
    @pytest.mark.parametrize("build", [
        FiniteLp,
        lambda a: FiniteLp(a.tolist()),
        lambda a: Sdp(np.stack([a + a.T] * 2)),
        lambda a: Socp(a, (1, 1)),
    ], ids=["lp", "lp list", "sdp", "socp"])
    def test_complex_data_raise(self, build):
        # a conversion to float would keep the real parts alone, with only
        # a ComplexWarning, and solve another problem
        a = np.array([[1.0, -1.0], [0.5j, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                build(a)
            build(a.real)  # the same data, real, is an instance

    @pytest.mark.parametrize("build", [
        FiniteLp,
        lambda a: FiniteLp(a.tolist()),
        lambda a: Sdp(np.stack([a, a.T])),
        lambda a: Socp(a, (1, 1)),
    ], ids=["lp", "lp list", "sdp", "socp"])
    @pytest.mark.parametrize("a", [
        np.array([["1", "-1"], ["0.5", "2"]]),
        np.array([[True, False], [False, True]]),
        np.array([[1.0, None], [0.5, 2.0]], dtype=object),
    ], ids=["strings", "booleans", "objects"])
    def test_data_that_are_not_numbers_raise(self, build, a):
        # a conversion to float would read "1" and True as 1: an LP of
        # such columns used to build, and solve feasible
        with pytest.raises(ValueError, match="must be numbers"):
            build(a)

    @pytest.mark.parametrize("inst", KINDS, ids=["lp", "sdp", "socp",
                                                 "custom"])
    def test_direction_of_booleans_raises(self, inst):
        with pytest.raises(ValueError,
                           match="query direction must be numbers"):
            query(inst, np.array([True, True]))
        with pytest.raises(ValueError,
                           match="witnessed column must be numbers"):
            WitnessedColumn(CustomWitness(0), np.array([True, False]))

    @pytest.mark.parametrize("build", [
        lambda: FiniteLp([[True, 0.5]]),
        lambda: FiniteLp(((1.0, 0.5), [np.True_, 2.0])),
        lambda: Sdp([[[1.0, 0.0], [0.0, False]]]),
        lambda: Socp(((1.0, True),), (2,)),
        lambda: WitnessedColumn(LpIndex(0), [True, 1.0]),
    ], ids=["lp", "lp nested numpy bool", "sdp", "socp", "witnessed column"])
    def test_bool_among_numbers_raises(self, build):
        # numpy reads the list (True, 0.5) as the floats (1, 0.5), so a
        # bool among numbers is refused before the conversion reads it
        with pytest.raises(ValueError, match="must be numbers"):
            build()

    @pytest.mark.parametrize("inst", KINDS, ids=["lp", "sdp", "socp",
                                                 "custom"])
    def test_direction_with_a_bool_among_numbers_raises(self, inst):
        with pytest.raises(ValueError,
                           match="query direction must be numbers"):
            query(inst, [True, 0.5])

    def test_complex_column_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                WitnessedColumn(CustomWitness(0), np.array([1.0 + 2j, 0.0]))

    @pytest.mark.parametrize("inst", KINDS, ids=["lp", "sdp", "socp",
                                                 "custom"])
    def test_complex_direction_raises(self, inst):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                query(inst, np.array([1.0 + 5j, 1.0 - 9j]))

    @pytest.mark.parametrize("build, message", [
        (FiniteLp, "columns must be finite"),
        (lambda a: Sdp(np.stack([a + a.T] * 2)), "matrices must be finite"),
        (lambda a: Socp(a, (1, 2)), "A must be finite"),
    ], ids=["lp", "sdp", "socp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_raise(self, build, message, bad):
        # the third column is zero, which a FiniteLp also rejects: the
        # non-finite entry is reported first
        a = np.array([[1.0, -1.0, 0.0], [0.5, bad, 0.0], [2.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build(a)

    def test_custom_callback_with_a_complex_column_raises(self):
        # the callback's own ValueError goes through the query unchanged,
        # as any exception raised in the callback does, rather than a
        # contract violation on the real parts
        def fn(y):
            return WitnessedColumn(CustomWitness(0), np.array([-1 + 0j, 1j]))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="witnessed column must be"):
                main_algorithm(CustomOracle(2, fn))

    def test_custom_oracle_dimension_is_an_integer(self):
        # an integral float is taken as its integer, not left to fail
        # inside the solver; anything else is refused on construction
        def fn(y):
            return None

        inst = CustomOracle(2.0, fn)
        assert type(inst.m) is int
        assert main_algorithm(inst).y.tolist() == [1.0, 1.0]
        for bad in (2.5, True, "2", None):
            with pytest.raises(TypeError, match="m must be an integer"):
                CustomOracle(bad, fn)

    def test_lp_index_is_taken_as_its_integer(self):
        # where the witness is built; one that is not an integer raises
        # there (test_certify)
        for given in (2.0, np.int64(2)):
            i = LpIndex(given).i
            assert type(i) is int and i == 2

    @pytest.mark.parametrize("build, message", [
        (lambda: FiniteLp(np.zeros((3, 0))),
         r"columns must be a nonempty \(m, n\) array"),
        (lambda: Socp(np.zeros((0, 3)), (3,)),
         r"A must be a nonempty \(m, n\) array"),
        (lambda: Socp(np.ones((1, 3)), (3, 0)), "blocks must be positive"),
        (lambda: Socp(np.ones((1, 3)), (4, -1)), "blocks must be positive"),
        (lambda: CustomOracle(0, lambda y: None), "m must be at least 1"),
    ], ids=["lp without columns", "socp without rows", "empty block",
            "negative block", "custom m=0"])
    def test_empty_instance_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestQueryDispatch:
    def test_invalid_queries(self):
        for inst in KINDS:
            with pytest.raises(ValueError,
                               match="query direction must be nonzero"):
                query(inst, np.zeros(2))
            for bad in ([1.0, np.nan], [0.0, np.nan], [np.inf, 1.0],
                        [-np.inf, np.nan]):
                with pytest.raises(ValueError,
                                   match="query direction must be finite"):
                    query(inst, np.array(bad))
            with pytest.raises(ValueError, match=r"query direction must "
                               r"have shape \(2,\), got \(3,\)"):
                query(inst, np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("inst", KINDS)
    def test_list_direction_is_accepted(self, inst):
        y = [-0.5, 1.0]
        w = query(inst, y)
        assert w is not None and w.column @ np.array(y) <= 0.0

    def test_unknown_instance_type_raises(self):
        with pytest.raises(TypeError, match="unknown instance type object"):
            query(object(), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_custom_column_is_named(self, bad):
        oracle = CustomOracle(2, lambda y: WitnessedColumn(
            CustomWitness("c"), np.array([-1.0, bad])))
        with pytest.raises(OracleContractViolation, match="custom oracle "
                           "column has wrong shape or non-finite entries"):
            query(oracle, np.array([1.0, 0.0]))

    def test_custom_answer_zeroed_after_construction_breaks_the_contract(
            self):
        # a callback that reuses one WitnessedColumn and writes zeros into
        # its column hands out no column: the oracle's fault, not bad input
        answer = WitnessedColumn(CustomWitness("z"), np.array([-1.0, 0.0]))

        def fn(y):
            answer.column[:] = 0.0
            return answer

        oracle = CustomOracle(2, fn)
        for solve in (lambda: query(oracle, np.array([1.0, 0.0])),
                      lambda: main_algorithm(oracle, epsilon=1e-2)):
            with pytest.raises(OracleContractViolation, match="custom "
                               "oracle witnessed column must be a nonzero"):
                solve()

    def test_custom_column_rebound_since_construction(self):
        # a callback that rebinds the column of the one WitnessedColumn it
        # returns: a list answers as the equal array does, and a column
        # that is not numbers breaks the contract
        semicircle = make_semicircle(False)
        answer = WitnessedColumn(CustomWitness("held"), np.array([-1.0, 0.0]))

        def rebinding(convert):
            def fn(y):
                w = semicircle(y)
                if w is None:
                    return None
                answer.witness, answer.column = w.witness, convert(w.column)
                return answer
            return CustomOracle(2, fn)

        as_array = main_algorithm(CustomOracle(2, semicircle), epsilon=1e-6)
        as_list = main_algorithm(rebinding(np.ndarray.tolist), epsilon=1e-6)
        assert (as_list.status, as_list.counters, as_list.epsilon) == \
            (as_array.status, as_array.counters, as_array.epsilon)
        assert as_list.y.tobytes() == as_array.y.tobytes()
        for bad in ("ab", object()):
            with pytest.raises(OracleContractViolation,
                               match="^custom oracle"):
                query(rebinding(lambda column: bad), np.array([1.0, 0.0]))

    def test_direction_with_huge_entries_warns_nothing(self):
        # the soundness check of the answer takes no square of 2^512
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = query(FiniteLp(np.eye(2)), np.array([-1.0, 2.0**512]))
        assert w.witness == LpIndex(0)

    def test_soundness_check_at_a_huge_direction_warns_nothing(self):
        # column 0 . y = -5e307 at y = 1e308 (1, 1, 1, 1) is sound, but
        # its first product, 2e308, overflows: the check runs at y times
        # a power of two instead
        inst = FiniteLp(np.array([[2.0, 1.0], [-2.5, 1.0], [0.0, 1.0],
                                  [0.0, 1.0]]))
        y = np.full(4, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = query(inst, y)
            assert w.witness == LpIndex(0)
            honest = CustomOracle(4, lambda y: WitnessedColumn(
                CustomWitness("sound"), np.array([-1.0, 0.0, 0.0, 0.0])))
            assert query(honest, y).witness.label == "sound"

    @pytest.mark.parametrize("inst", [
        Socp(np.array([[1.0, 3.0, 4.0], [0.5, 0.0, 1.0]]), (3,)),
        Sdp(np.array([[[1.0, 0.0], [0.0, -1.0]],
                      [[0.5, 0.2], [0.2, -2.0]]]))])
    def test_cone_query_at_a_huge_direction_is_finite_and_sound(self, inst):
        # A^T y and sum_i y_i A_i overflow at y as given; the query takes
        # them at 2^-1024 y, where the answer is the same
        y = np.full(2, 1e308)
        scaled = np.ldexp(y, -1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = query(inst, y)
        assert np.isfinite(w.column).all()
        assert w.column @ scaled < 0.0
        assert w.witness == query(inst, scaled).witness

    @pytest.mark.parametrize("inst", KINDS[:3],
                             ids=["lp", "sdp", "socp"])
    def test_query_at_a_subnormal_direction_is_sound(self, inst):
        # the unit direction is 2^1074 y; the soundness tolerance, taken
        # times 2^1074 with it, stays a float
        y = np.array([-1e-310, 5e-311])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = query(inst, y)
        at_normal = query(inst, np.ldexp(y, 1074))
        assert w.witness == at_normal.witness
        assert w.column.tobytes() == at_normal.column.tobytes()
        rep = verify_d_solution(inst, y)
        assert not rep.accepted and rep.residual <= 0.0

    def test_unsound_answer_at_a_huge_direction_is_rejected(self):
        # (1, 1, 0, 0) . y = 2e308 overflowed to +inf, which the tolerance
        # (+inf too, from ||y||) let pass
        y = np.full(4, 1e308)
        lying = CustomOracle(4, lambda y: WitnessedColumn(
            CustomWitness("x"), np.array([1.0, 1.0, 0.0, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OracleContractViolation,
                               match=r"inner product 1.113e\+00 times 2\^1024"):
                query(lying, y)
        # columns near the float maximum against a direction there: the
        # one off the query's side by 1e-9 is sound, its mirror is not
        y = np.array([1e300, 1e300])
        for sign in (1.0, -1.0):
            column = sign * np.array([1e300 * (1.0 - 1e-9), -1e300])
            tilted = CustomOracle(2, lambda y: WitnessedColumn(
                CustomWitness("t"), column))
            if sign > 0.0:
                assert query(tilted, y).exponent > 0
                continue
            with pytest.raises(OracleContractViolation):
                query(tilted, y)

    def test_custom_oracle_contract_enforced(self):
        lying = CustomOracle(
            2, lambda y: WitnessedColumn(CustomWitness("x"), y.copy())
        )
        with pytest.raises(OracleContractViolation):
            query(lying, np.array([1.0, 0.5]))

    def test_custom_oracle_sound_answer_passes(self):
        honest = CustomOracle(
            2, lambda y: WitnessedColumn(CustomWitness("neg"), -y.copy())
        )
        w = query(honest, np.array([0.3, 0.4]))
        assert w is not None and w.witness.label == "neg"

    def test_sdp_band_is_sound_for_sdp_only(self):
        # lambda_min = 1e-7 lies inside sdp_query's band 1e-12 * 1e6
        inst = Sdp(np.array([np.diag([1e6, 1e-7])]))
        w = query(inst, np.array([1.0]))
        assert w is not None and w.witness.v == (0.0, 1.0)
        assert float(w.column[0]) == pytest.approx(1e-7)
        # the same positive margin from a custom oracle is still unsound
        echo = CustomOracle(
            1, lambda y: WitnessedColumn(CustomWitness("band"), w.column)
        )
        with pytest.raises(OracleContractViolation):
            query(echo, np.array([1.0]))

    def test_custom_oracle_bad_shape_rejected(self):
        bad = CustomOracle(
            2, lambda y: WitnessedColumn(CustomWitness("s"), np.array([-1.0]))
        )
        with pytest.raises(OracleContractViolation):
            query(bad, np.array([1.0, 1.0]))

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 4), honest=st.integers(0, 1),
           fault=st.sampled_from(["non-finite", "wrong shape",
                                  "not witnessed", "unsound", "flip"]),
           data=st.data())
    def test_misbehaving_custom_oracle_breaks_the_contract(
            self, m, honest, fault, data):
        # after `honest` sound answers the oracle misbehaves once: a NaN
        # or infinite entry, a column of another length, an answer that
        # is not a WitnessedColumn, a column on the query's side, or an
        # accepted y that the re-query then rejects; whatever the solver
        # is doing, that is an OracleContractViolation and nothing else
        calls = []

        def fn(y):
            calls.append(y)
            sound = WitnessedColumn(CustomWitness("sound"), -y)
            if len(calls) <= honest or len(calls) > honest + 1:
                return sound
            if fault == "flip":
                return None
            column = -y / np.linalg.norm(y)
            if fault == "non-finite":
                column[data.draw(st.integers(0, m - 1))] = data.draw(
                    st.sampled_from([math.nan, math.inf, -math.inf]))
            elif fault == "wrong shape":
                size = data.draw(st.integers(1, m + 3).filter(
                    lambda k: k != m))
                column = np.full(size, -1.0)
            elif fault == "not witnessed":
                return data.draw(st.sampled_from(
                    [column, column.tolist(), CustomWitness("c"),
                     (sound.witness, sound.column)]))
            else:
                column = -data.draw(st.floats(1e-3, 1e3)) * column
            return WitnessedColumn(CustomWitness("bad"), column)

        with pytest.raises(OracleContractViolation):
            main_algorithm(CustomOracle(m, fn), epsilon=1e-2)
        assert len(calls) == honest + 1 + (fault == "flip")

    def test_custom_column_is_handed_out_in_range(self):
        # a column as given near the float maximum is handed out times
        # 2^-640 with exponent 640, its label kept; one in range is
        # handed out with the oracle's bytes, in an object of its own
        big = WitnessedColumn(CustomWitness("big"),
                              np.array([-1.5e308, 1e-100]))
        w = query(CustomOracle(2, lambda y: big), np.array([1.0, 0.0]))
        assert w.witness == big.witness and w.exponent == 640
        assert np.ldexp(w.column, 640).tobytes() == big.column.tobytes()
        small = WitnessedColumn(CustomWitness("small"), np.array([-1.0, 0.0]))
        w = query(CustomOracle(2, lambda y: small), np.array([1.0, 0.0]))
        assert w is not small and w.column is not small.column
        assert w.witness is small.witness and w.exponent == 0
        assert w.column.tobytes() == small.column.tobytes()

    def test_witnessed_column_must_be_nonzero(self):
        with pytest.raises(ValueError):
            WitnessedColumn(LpIndex(0), np.zeros(2))

    def test_only_cone_witness_columns_may_vanish(self):
        with pytest.raises(ValueError):
            WitnessedColumn(CustomWitness("c"), np.zeros(2))
        for witness in (SdpVector((1.0, 0.0)), SocpVector((1.0, 0.0))):
            assert not WitnessedColumn(witness, np.zeros(2)).column.any()


class TestFaceAtoms:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_face_gives_verified_atoms(self, seed):
        # the planted C = sum x_t v_t v_t^T already has <A_i, C> = 0
        inst, cert = generate_planted("sdp", 4, 10, seed, "feasible_p")
        support = [WitnessedColumn(*resolve_witness_column(inst, v))
                   for v, _ in cert.weights]
        atoms = face_atoms(inst, support,
                           np.array([x for _, x in cert.weights]))
        assert atoms is not None and len(atoms) <= inst.m + 1
        for v, x in atoms:
            assert x > 0.0
            assert_allclose(np.linalg.norm(v.v), 1.0)
        assert verify_p_certificate(inst, atoms).accepted

    def test_feasible_face_gives_none(self):
        # <diag(1, 2), S> = 0 leaves no nonzero semidefinite S
        inst = Sdp(np.array([np.diag([1.0, 2.0])]))
        support = [WitnessedColumn(SdpVector(v), np.array([c]))
                   for v, c in [((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)]]
        assert face_atoms(inst, support, np.array([1.0, 1.0])) is None

    def test_other_kinds_give_none(self):
        support = [WitnessedColumn(LpIndex(0), np.array([1.0, 0.0])),
                   WitnessedColumn(LpIndex(1), np.array([-1.0, 0.0]))]
        for inst in (FiniteLp(np.array([[1.0, -1.0], [0.0, 0.0]])),
                     Socp(np.array([[1.0, -1.0], [0.0, 0.0]]), (1, 1)),
                     CustomOracle(2, lambda y: None)):
            assert face_atoms(inst, support, np.array([0.5, 0.5])) is None
