import numpy as np
import pytest
from numpy.testing import assert_allclose

from prfeas.certify import (
    UnresolvableWitness,
    _accepted_margin,
    resolve_witness_column,
)
from prfeas.linalg import certifying_cholesky
from prfeas.oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    InvalidQuery,
    LpIndex,
    OracleContractViolation,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    WitnessedColumn,
    lp_query,
    query,
    sdp_query,
    socp_query,
    witness_from_json,
    witness_to_json,
)


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
        with pytest.raises(InvalidQuery):
            lp_query(inst, y, np.ones(2))

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
            chol = certifying_cholesky(X).witness
            assert value <= chol @ X @ chol + tol
        assert rejected > 0

    def test_scales_rejected(self):
        inst = Sdp(np.array([np.eye(2)]))
        with pytest.raises(InvalidQuery):
            query(inst, np.array([-1.0]), np.ones(1))

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            Sdp(np.array([[[1.0, 2.0], [0.0, 1.0]]]))


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


# The per-block loops that socp_query, _accepted_margin and
# resolve_witness_column ran before the single array pass; the array pass
# must reproduce them bit for bit.

def loop_slices(instance):
    out, start = [], 0
    for b in instance.blocks:
        out.append(slice(start, start + b))
        start += b
    return out


def loop_socp_query(instance, y):
    x = instance.A.T @ y
    for sl in loop_slices(instance):
        xb = x[sl]
        x0 = xb[0]
        tail = xb[1:]
        tail_norm = float(np.linalg.norm(tail))
        if x0 > tail_norm:
            continue
        v = np.zeros(instance.n)
        v[sl.start] = 1.0
        if tail_norm > 0.0:
            v[sl.start + 1 : sl.stop] = -tail / tail_norm
        return WitnessedColumn(SocpVector(tuple(float(t) for t in v)),
                               instance.A @ v)
    return None


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
            w, ref = socp_query(inst, y), loop_socp_query(inst, y)
            assert (w is None) == (ref is None)
            if w is not None:
                assert w.witness == ref.witness
                assert np.asarray(w.witness.v).tobytes() == \
                    np.asarray(ref.witness.v).tobytes()
                assert w.column.tobytes() == ref.column.tobytes()
            assert _accepted_margin(inst, y) == loop_accepted_margin(inst, y)

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
        assert _accepted_margin(inst, y) == loop_accepted_margin(inst, y)

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
                _, column = resolve_witness_column(
                    inst, SocpVector(tuple(v.tolist())))
                accepted = True
                assert column.tobytes() == (inst.A @ v).tobytes()
            except UnresolvableWitness:
                accepted = False
            assert accepted == loop_resolves(inst, v)


class TestQueryDispatch:
    def test_invalid_queries(self):
        inst = FiniteLp(np.eye(2))
        with pytest.raises(InvalidQuery):
            query(inst, np.zeros(2))
        with pytest.raises(InvalidQuery):
            query(inst, np.array([1.0, np.nan]))
        with pytest.raises(InvalidQuery):
            query(inst, np.array([1.0, 1.0, 1.0]))

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

    def test_custom_oracle_bad_shape_rejected(self):
        bad = CustomOracle(
            2, lambda y: WitnessedColumn(CustomWitness("s"), np.array([-1.0]))
        )
        with pytest.raises(OracleContractViolation):
            query(bad, np.array([1.0, 1.0]))

    def test_witnessed_column_must_be_nonzero(self):
        with pytest.raises(ValueError):
            WitnessedColumn(LpIndex(0), np.zeros(2))


class TestWitnessJson:
    @pytest.mark.parametrize("w,col", [
        (LpIndex(3), None),
        (SdpVector((0.6, 0.8)), None),
        (SocpVector((1.0, -0.5, 0.0)), None),
        (CustomWitness(0.25), np.array([1.0, -1.0])),
    ])
    def test_round_trip(self, w, col):
        obj = witness_to_json(w, col)
        back, back_col = witness_from_json(obj)
        assert back == w
        if col is None:
            assert back_col is None
        else:
            assert_allclose(back_col, col, atol=0)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            witness_from_json({"type": "bogus"})
