"""Dense linear-algebra kernels: the support's rank-one inverse update and
checked inverse (``prfeas.solver``), the overflow-safe norm
(``prfeas.oracle``) and the Sdp oracle's definiteness test."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prfeas.oracle import Sdp, sdp_query, vector_norm
from prfeas.solver import inverse_with_factorization, smw_inverse_update


class TestSmwInverseUpdate:
    def test_zero_update_is_identity(self):
        G = np.eye(2)
        out = smw_inverse_update(G, np.zeros(2), 0)
        assert_allclose(out, np.eye(2), atol=0)

    def test_column_replacement_matches_dense_inverse(self):
        # B has columns (1,1) and (-1,1); replace column 2 by (0,1).
        B = np.array([[1.0, -1.0], [1.0, 1.0]])
        G = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert_allclose(G @ B, np.eye(2), atol=1e-15)
        new_col = np.array([0.0, 1.0])
        u = new_col - B[:, 1]
        B_new = B.copy()
        B_new[:, 1] = new_col
        expected = np.linalg.inv(B_new)
        out = smw_inverse_update(G, u, 1)
        assert_allclose(out, expected, atol=1e-12)
        assert_allclose(out @ B_new, np.eye(2), atol=1e-12)

    def test_replacement_to_singular_matrix_is_rejected(self):
        # Replacing column 2 of [[1,-1],[1,1]] by (1,1) duplicates column 1,
        # so no inverse exists and the update denominator hits zero.
        G = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0]])
        u = np.array([2.0, 0.0])
        assert smw_inverse_update(G, u, 1) is None

    def test_near_singular_update_is_rejected(self):
        G = np.eye(2)
        u = np.array([-1.0 + 1e-14, 0.0])
        assert smw_inverse_update(G, u, 0) is None

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_random_replacements_match_dense_inverse(self, k):
        rng = np.random.default_rng(k)
        for _ in range(40):
            B = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
            G = np.linalg.inv(B)
            j = int(rng.integers(k))
            new_col = rng.standard_normal(k)
            B_new = B.copy()
            B_new[:, j] = new_col
            if abs(np.linalg.det(B_new)) < 1e-6:
                continue
            out = smw_inverse_update(G, new_col - B[:, j], j)
            assert np.max(np.abs(out @ B_new - np.eye(k))) <= 1e-9


def one_matrix_query(X):
    """sdp_query on the one-matrix instance Sdp([X]) at y = [1], where X is
    exactly the queried combination."""
    return sdp_query(Sdp(np.array([X])), np.array([1.0]))


class TestCertifyingCholesky:
    """The SDP oracle's certifying definiteness decision.

    A hand-written Cholesky once made this decision; one ``eigh`` in
    ``sdp_query`` makes it now, and these cases check it there.
    """

    def test_identity_is_pd(self):
        assert one_matrix_query(np.eye(3)) is None

    def test_known_indefinite_matrix_witness(self):
        # eigenvalues of [[1,2],[2,1]] are -1 along (1,-1) and 3 along (1,1)
        X = np.array([[1.0, 2.0], [2.0, 1.0]])
        w = one_matrix_query(X)
        assert w is not None
        v = np.asarray(w.witness.v)
        assert_allclose(np.linalg.norm(v), 1.0, atol=1e-14)
        assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)
        assert_allclose(v @ X @ v, -1.0, atol=1e-12)
        assert_allclose(w.column, [v @ X @ v], atol=0)

    def test_diagonal_indefinite_witness(self):
        w = one_matrix_query(np.diag([1.0, -1.0]))
        assert w is not None
        assert_allclose(w.witness.v, np.array([0.0, 1.0]), atol=0)

    def test_zero_matrix_is_not_pd(self):
        # X = I - I = 0: lambda_min = 0 sits on the boundary, a violation
        w = sdp_query(Sdp(np.array([np.eye(3), np.eye(3)])),
                      np.array([1.0, -1.0]))
        assert w is not None
        v = np.asarray(w.witness.v)
        assert v @ v == pytest.approx(1.0)
        assert w.column @ np.array([1.0, -1.0]) == 0.0

    def test_first_pivot_failure(self):
        X = np.array([[-2.0, 0.5], [0.5, 3.0]])
        w = one_matrix_query(X)
        assert w is not None
        v = np.asarray(w.witness.v)
        assert_allclose(v @ X @ v, np.min(np.linalg.eigvalsh(X)), atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            Sdp(np.array([[[1.0, 2.0], [0.0, 1.0]]]))
        with pytest.raises(ValueError):
            Sdp(np.ones((1, 2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_eigenvalue_check(self, n):
        # decision agrees with a brute-force eigencheck outside a 1e-10 band
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            B = rng.standard_normal((n, n))
            X = 0.5 * (B + B.T)
            w = one_matrix_query(X)
            min_eig = np.min(np.linalg.eigvalsh(X))
            scale = max(np.max(np.abs(X)), 1e-30)
            if min_eig > 1e-10 * scale:
                assert w is None
            elif min_eig < -1e-10 * scale:
                assert w is not None
            if w is not None:
                v = np.asarray(w.witness.v)
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
                assert v @ X @ v <= 1e-12 * scale


class TestSolveWithFactorization:
    """Solves through ``inverse_with_factorization``, the checked dense
    inverse the solver rebuilds its basis inverse with."""

    def test_solves_small_system(self):
        B = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([3.0, 5.0])
        x = inverse_with_factorization(B) @ rhs
        assert np.linalg.norm(B @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_singular_matrix_rejected(self):
        B = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert inverse_with_factorization(B) is None

    def test_tiny_last_pivot_rejected(self):
        # the last LU pivot is about 1e-15, below LU_PIVOT_TOL * max|B|,
        # although the matrix is not exactly singular
        B = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        assert inverse_with_factorization(B) is None

    def test_inverse_helper(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        G = inverse_with_factorization(B)
        assert np.max(np.abs(G @ B - np.eye(6))) <= 1e-10

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_random_well_conditioned_residual(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(25):
            B = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
            rhs = rng.standard_normal(k)
            x = inverse_with_factorization(B) @ rhs
            assert np.linalg.norm(B @ x - rhs) \
                <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


class TestVectorNorm:
    def test_matches_plain_norm_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 40)) \
                * 10.0 ** rng.uniform(-100, 100)
            assert vector_norm(v) == math.sqrt(v @ v)

    def test_entries_near_float_max_stay_finite(self):
        with np.errstate(over="ignore"):
            nrm = vector_norm(np.array([1.5e308, -1.5e308, 0.0]))
        assert nrm == pytest.approx(1.5e308 * math.sqrt(2.0), rel=1e-15)

    def test_tiny_entries_keep_an_accurate_norm(self):
        # the squares are subnormal: sqrt(v @ v) would be off by ~1e-4
        v = np.array([3e-165, 4e-165])
        assert vector_norm(v) == pytest.approx(5e-165, rel=1e-15)
        assert vector_norm(np.ldexp(v, 600)) == math.ldexp(vector_norm(v), 600)
        assert vector_norm(np.zeros(3)) == 0.0

    def test_decides_the_range_before_squaring(self):
        # the square of 2^512 overflows, so it is never taken
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert vector_norm(np.array([-1.0, 2.0**512])) == 2.0**512
            assert vector_norm(np.array([0.0, -2.0**600, 2.0**600])) \
                == math.ldexp(math.sqrt(2.0), 600)

    def test_non_finite_entries_stay_non_finite(self):
        # the scaling path takes them, and raises no floating-point error
        with np.errstate(all="raise"):
            assert vector_norm(np.array([math.inf, 1.0])) == math.inf
            assert math.isnan(vector_norm(np.array([math.nan, 1.0])))
