import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prfeas.certify import (
    PLANTED_MARGIN,
    Certificate,
    _random_blocks,
    _random_unit,
    generate_planted,
    resolve_witness_column,
    verify_d_solution,
    verify_p_certificate,
)
from prfeas.oracle import (
    ConfigError,
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    WitnessedColumn,
)


def axes_lp():
    return FiniteLp(np.eye(2))


def antipodal_lp():
    return FiniteLp(np.array([[1.0, -1.0], [0.0, 0.0]]))


def indefinite_sdp():
    return Sdp(np.array([
        [[1.0, 0.0], [0.0, -1.0]],
        [[-1.0, 0.0], [0.0, 1.0]],
    ]))


class TestVerifyDSolution:
    def test_interior_accepted_with_margin(self):
        rep = verify_d_solution(axes_lp(), np.array([1.0, 2.0]))
        assert rep.kind == "d"
        assert rep.accepted
        assert rep.residual == pytest.approx(1.0)
        assert rep.details["min_margin"] == pytest.approx(1.0)

    def test_zero_margin_rejected(self):
        # strict inequality: touching a constraint is a violation
        rep = verify_d_solution(axes_lp(), np.array([1.0, 0.0]))
        assert not rep.accepted
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    def test_complex_direction_raises(self):
        # a cast to float would verify the real parts (1, 1), and accept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                verify_d_solution(axes_lp(), [1 + 5j, 1 - 9j])

    def test_negative_margin_rejected(self):
        rep = verify_d_solution(axes_lp(), np.array([-1.0, 1.0]))
        assert not rep.accepted
        assert rep.residual == pytest.approx(-1.0)

    def test_sdp_margin_is_smallest_eigenvalue(self):
        inst = Sdp(np.array([[[2.0, 0.0], [0.0, 0.5]]]))
        rep = verify_d_solution(inst, np.array([1.0]))
        assert rep.accepted
        assert rep.residual == pytest.approx(0.5)

    def test_socp_margin(self):
        inst = Socp(np.array([[1.0, 0.0, 0.0],
                              [0.0, 0.3, 0.0]]), blocks=(3,))
        rep = verify_d_solution(inst, np.array([1.0, 1.0]))
        # x = (1, 0.3, 0): margin 1 - 0.3
        assert rep.accepted
        assert rep.residual == pytest.approx(0.7)

    @pytest.mark.parametrize("inst", [
        FiniteLp(np.array([[1.5e308], [1.5e308]])),
        Socp(np.array([[1.5e308], [1.5e308]]), blocks=(1,)),
        Sdp(np.full((2, 1, 1), 1.5e308))], ids=["lp", "socp", "sdp"])
    @pytest.mark.parametrize("y", [0.6, 1.7e308])
    def test_margin_of_data_near_float_max_is_reported_finite(self, inst, y):
        # the margin overflows at y, and at its unit direction u = 2^-e y
        # too (||y|| overflows as well at y = 1.7e308); it is reported at
        # u times 2^-384, finite and exactly scaled
        u = math.ldexp(y, -math.frexp(y)[1])
        rep = verify_d_solution(inst, np.array([y, y]))
        assert rep.accepted
        assert rep.details["min_margin"] == rep.residual == \
            math.ldexp(1.5e308 * u, 1 - 384)

    @pytest.mark.parametrize("y", [0.6, 1.7e308])
    def test_violation_of_data_near_float_max_is_reported_finite(self, y):
        inst = FiniteLp(np.array([[-1.5e308], [-1.5e308]]))
        u = math.ldexp(y, -math.frexp(y)[1])
        rep = verify_d_solution(inst, np.array([y, y]))
        assert not rep.accepted
        assert rep.details["violation"] == rep.residual == \
            math.ldexp(-1.5e308 * u, 1 - 384)

    def test_json_payload_round_trips(self):
        rep = verify_d_solution(axes_lp(), np.array([1.0, 2.0]))
        d = rep.to_json_dict()
        assert d["schema"] == 1
        assert d["kind"] == "d"
        assert d["accepted"] is True


class TestVerifyPCertificate:
    def test_cancelling_pair_accepted(self):
        rep = verify_p_certificate(
            antipodal_lp(), [(LpIndex(0), 0.5), (LpIndex(1), 0.5)])
        assert rep.kind == "p"
        assert rep.accepted
        assert rep.residual == 0.0
        assert rep.details["support"] == 2

    def test_non_cancelling_rejected(self):
        rep = verify_p_certificate(axes_lp(), [(LpIndex(0), 1.0)])
        assert not rep.accepted
        assert rep.residual == pytest.approx(1.0)

    def test_empty_weights_raise(self):
        with pytest.raises(ValueError):
            verify_p_certificate(axes_lp(), [])

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf, True,
                                     "1", 1j, np.True_, [0.5]])
    def test_bad_weight_values_raise(self, bad):
        # a comparison would weigh True as 1 and raise TypeError on "1"
        with pytest.raises(ValueError):
            verify_p_certificate(
                antipodal_lp(), [(LpIndex(0), 0.5), (LpIndex(1), bad)])

    @pytest.mark.parametrize("x", [np.float64(0.5), np.float32(0.5),
                                   np.int64(2)])
    def test_numpy_scalar_weights_accepted(self, x):
        rep = verify_p_certificate(antipodal_lp(),
                                   [(LpIndex(0), x), (LpIndex(1), x)])
        assert rep.accepted and rep.residual == 0.0

    def test_oversized_support_raises(self):
        weights = [(LpIndex(0), 0.25)] * 4  # m + 1 = 3 allowed
        with pytest.raises(ValueError):
            verify_p_certificate(antipodal_lp(), weights)

    def test_sdp_rank_one_witnesses(self):
        rep = verify_p_certificate(indefinite_sdp(), [
            (SdpVector((1.0, 0.0)), 0.5),
            (SdpVector((0.0, 1.0)), 0.5),
        ])
        assert rep.accepted
        assert rep.residual <= 1e-15

    def test_socp_boundary_witnesses(self):
        inst = Socp(np.array([[1.0, -1.0]]), blocks=(1, 1))
        rep = verify_p_certificate(inst, [
            (SocpVector((1.0, 0.0)), 0.5),
            (SocpVector((0.0, 1.0)), 0.5),
        ])
        assert rep.accepted

    def test_vanishing_cone_column_is_a_certificate(self):
        # (1, -3/5, -4/5) is a nonzero cone vector that A maps to zero
        inst = Socp(np.array([[5.0, 3.0, 4.0]]), blocks=(3,))
        zero = SocpVector((1.0, -0.6, -0.8))
        _, column, _ = resolve_witness_column(inst, zero)
        assert not column.any()
        rep = verify_p_certificate(inst, [(zero, 1.0)])
        assert rep.accepted
        assert rep.residual == 0.0
        # beside a nonzero column the usual relative residual applies
        rep = verify_p_certificate(inst, [(zero, 1.0),
                                          (SocpVector((1.0, 0.0, 0.0)), 1.0)])
        assert not rep.accepted
        assert rep.residual == pytest.approx(1.0)

    @staticmethod
    def assert_finite_report(rep):
        assert math.isfinite(rep.residual)
        assert all(math.isfinite(v) for v in rep.details.values())

    @pytest.mark.parametrize("b,residual", [
        # the combination (0, 1.5e308) of the scale (sqrt 2 + 1) 1.5e308
        ((-1.5e308, 0.0), 1.0 / (1.0 + math.sqrt(2.0))),
        ((-1.5e308, -1.5e308), 0.0)])
    def test_custom_columns_near_float_max(self, b, residual):
        # custom columns are brought into range as built-in data is:
        # their norms overflow as given, which must neither hide the
        # combination of the pair nor cancel it
        inst = CustomOracle(2, lambda y: None)
        weights = [(WitnessedColumn(CustomWitness(label), np.array(c)), 1.0)
                   for label, c in [("a", (1.5e308, 1.5e308)), ("b", b)]]
        rep = verify_p_certificate(inst, weights)
        assert rep.accepted == (residual == 0.0)
        assert rep.residual == pytest.approx(residual, abs=1e-15)
        self.assert_finite_report(rep)

    def test_overflowing_sdp_column_is_retaken_scaled(self):
        # v^T A v = 3e308 overflows for v = (2^-1/2, 2^-1/2); Sdp stores
        # the matrices times 2^-640, and the weights 1 mapped to 2^640
        # are brought back into range by 2^-E
        mats = np.full((1, 2, 2), 1.5e308)
        weights = [(SdpVector((2**-0.5, 2**-0.5)), 1.0),
                   (SdpVector((1.0, 0.0)), 1.0)]
        rep = verify_p_certificate(Sdp(mats), weights)
        assert not rep.accepted
        assert rep.residual == 1.0
        self.assert_finite_report(rep)
        scaled = verify_p_certificate(Sdp(np.ldexp(mats, -1024)), weights)
        assert scaled.residual == rep.residual
        # both scales are those of the data as given, times 2^-E and
        # 2^-1024
        assert rep.details["scale"] == math.ldexp(
            scaled.details["scale"], 1024 - rep.details["scale_exponent"])
        assert "scale_exponent" not in scaled.details

    @pytest.mark.parametrize("n,small,atom", [
        # 1e-16 I rounds to zero at 2^-1024
        (5, 1e-16, (0.0,) * 4 + (1.0,)),
        # 2^-49 I scales exactly, but v^T A_2 v underflows to zero there
        (10, 2.0**-49, (0.0,) * 4 + (6**-0.5,) * 6)])
    def test_retake_that_rounds_rejects(self, n, small, atom):
        # the two huge columns cancel and the third would vanish if taken
        # at 2^-1024; the stack is stored times 2^-640, which keeps it,
        # and the tiny weights are kept beside the weight 1, so the true
        # residual is reported; y = (0, 1) is feasible, so no dual may be
        # accepted
        big = np.zeros((n, n))
        big[:2, :2], big[2:4, 2:4] = 1.5e308, -1.5e308
        inst = Sdp(np.array([big, small * np.eye(n)]))
        pad = (0.0,) * (n - 4)
        s = 2**-0.5
        weights = [(SdpVector((s, s, 0.0, 0.0) + pad), 5e-324),
                   (SdpVector((0.0, 0.0, s, s) + pad), 5e-324),
                   (SdpVector(atom), 1.0)]
        rep = verify_p_certificate(inst, weights)
        assert not rep.accepted
        assert rep.residual == pytest.approx({5: 0.0326, 10: 0.3747}[n],
                                             abs=5e-5)
        self.assert_finite_report(rep)
        assert verify_d_solution(inst, np.array([0.0, 1.0])).accepted

    def test_subnormal_weights_keep_their_columns(self):
        # 5e-324 * 0.1 underflows to 0, which would cancel the columns
        # (1, 0.1) and (-1, 0.1) exactly; brought into range first, the
        # weights leave (0, 0.2) of the scale 2 * sqrt(1.01), and y =
        # (0, 1) is feasible
        inst = FiniteLp(np.array([[1.0, -1.0], [0.1, 0.1]]))
        rep = verify_p_certificate(inst, [(LpIndex(0), 5e-324),
                                          (LpIndex(1), 5e-324)])
        assert not rep.accepted
        assert rep.residual == pytest.approx(0.1 / math.sqrt(1.01),
                                             rel=1e-15)
        assert verify_d_solution(inst, np.array([0.0, 1.0])).accepted

    @pytest.mark.parametrize("inst,x", [
        (Sdp(np.array([[[1.5e308, 0.0], [0.0, -1.5e308]],
                       [[1.5e308, 0.0], [0.0, -1.0e308]]])), 1.0),
        (Socp(np.array([[1e200, -1e200], [1e200, -0.5e200]]), (1, 1)),
         1e108)])
    def test_overflowing_scale_still_rejects(self, inst, x):
        # sum x_t ||a_t|| overflows while sum x_t a_t = (0, 5e307) does
        # not; a scale of inf would make any combination pass
        witness = SdpVector if isinstance(inst, Sdp) else SocpVector
        with np.errstate(over="ignore"):
            rep = verify_p_certificate(inst, [(witness((1.0, 0.0)), x),
                                              (witness((0.0, 1.0)), x)])
        assert not rep.accepted
        assert rep.residual > 0.1
        self.assert_finite_report(rep)

    def test_overflowing_scale_keeps_a_cancelling_pair(self):
        inst = Socp(np.array([[1e200, -1e200]]), (1, 1))
        weights = [(SocpVector((1.0, 0.0)), 1e108),
                   (SocpVector((0.0, 1.0)), 1e108)]
        rep = verify_p_certificate(inst, weights)
        assert rep.accepted
        assert rep.residual == 0.0
        self.assert_finite_report(rep)
        # the scaled terms are those of the weights 2^-E x_t
        e = rep.details["scale_exponent"]
        scaled = [(w, math.ldexp(x, -e)) for w, x in weights]
        assert verify_p_certificate(inst, scaled).details["scale"] == \
            rep.details["scale"]

    def test_custom_witness_needs_stored_column(self):
        inst = CustomOracle(2, lambda y: None)
        with pytest.raises(ValueError,
                           match="custom witness carries no column"):
            verify_p_certificate(inst, [(CustomWitness(0.5), 1.0)])
        wc1 = WitnessedColumn(CustomWitness(0.5), np.array([1.0, 0.0]))
        wc2 = WitnessedColumn(CustomWitness(1.5), np.array([-1.0, 0.0]))
        rep = verify_p_certificate(inst, [(wc1, 0.5), (wc2, 0.5)])
        assert rep.accepted


class TestResolveWitnessColumn:
    def test_lp_index_out_of_range(self):
        with pytest.raises(ValueError, match="column index 2 out of range"):
            resolve_witness_column(axes_lp(), LpIndex(2))

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_lp_index_that_is_not_an_integer(self, bad):
        # a fraction would reach numpy as an index, True as a boolean mask:
        # the index is refused where the witness is built
        with pytest.raises(TypeError, match="column index must be an "
                           "integer"):
            LpIndex(bad)

    def test_integral_float_lp_index_names_its_column(self):
        _, column, _ = resolve_witness_column(axes_lp(), LpIndex(1.0))
        assert column.tolist() == [0.0, 1.0]

    def test_cross_kind_witness_rejected(self):
        with pytest.raises(ValueError,
                           match="lp_index witness on a non-LP instance"):
            resolve_witness_column(indefinite_sdp(), LpIndex(0))
        with pytest.raises(ValueError,
                           match="sdp_vector witness on a non-SDP instance"):
            resolve_witness_column(axes_lp(), SdpVector((1.0, 0.0)))

    def test_sdp_vector_must_be_unit(self):
        with pytest.raises(ValueError,
                           match="sdp witness must be a unit vector"):
            resolve_witness_column(indefinite_sdp(), SdpVector((2.0, 0.0)))
        with pytest.raises(ValueError,
                           match="sdp witness has the wrong dimension"):
            resolve_witness_column(indefinite_sdp(), SdpVector((1.0,)))

    def test_sdp_column_is_quadratic_form(self):
        _, col, _ = resolve_witness_column(indefinite_sdp(),
                                        SdpVector((0.0, 1.0)))
        assert_allclose(col, np.array([-1.0, 1.0]), atol=0)

    def test_socp_block_structure_enforced(self):
        inst = Socp(np.array([[1.0, -1.0]]), blocks=(1, 1))
        with pytest.raises(ValueError,
                           match="socp witness is identically zero"):
            resolve_witness_column(inst, SocpVector((0.0, 0.0)))
        block_rule = (r"socp witness block must be \(1, u\) "
                      r"with \|\|u\|\| <= 1")
        with pytest.raises(ValueError, match=block_rule):
            resolve_witness_column(inst, SocpVector((2.0, 0.0)))
        inst2 = Socp(np.array([[1.0, 0.0, 0.5]]), blocks=(3,))
        with pytest.raises(ValueError, match=block_rule):
            # tail longer than the lead violates the cone bound
            resolve_witness_column(inst2, SocpVector((1.0, 2.0, 0.0)))

    def test_socp_witness_on_blocks_of_different_exponents(self):
        # blocks 0 and 1 are stored times 2^-17 and 2^-7, block 2 as
        # given: a witness on blocks 0 and 1 gets the larger exponent and
        # maps back to the column as given, one on blocks 1 and 2 maps
        # back by 2^7
        big = 2.0**400 + 2.0**390
        inst = Socp(np.array([[2.0**400, 2.0**390, -1.0]]), blocks=(1, 1, 1))
        assert inst.exponents.tolist() == [17, 7, 0]
        _, column, e = resolve_witness_column(inst,
                                              SocpVector((1.0, 1.0, 0.0)))
        assert e == 17 and np.ldexp(column, e).tolist() == [big]
        _, column, e = resolve_witness_column(inst,
                                              SocpVector((0.0, 1.0, 1.0)))
        assert e == 7 and np.ldexp(column, e).tolist() == [2.0**390 - 1.0]
        # the two blocks against a third that cancels them exactly
        cancel = Socp(np.array([[2.0**400, 2.0**390, -big]]), (1, 1, 1))
        rep = verify_p_certificate(cancel, [
            (SocpVector((1.0, 1.0, 0.0)), 1.0),
            (SocpVector((0.0, 0.0, 1.0)), 1.0)])
        assert rep.accepted and rep.residual == 0.0

    def test_huge_sdp_vector_rejected_without_overflow(self):
        # the square of 1e300 overflows: the unit test takes the norm by
        # vector_norm, which decides the range before squaring
        inst = Sdp(np.array([[[1.0, 0.0], [0.0, -1.0]]]))
        huge = SdpVector((1e300, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for check in (lambda: resolve_witness_column(inst, huge),
                          lambda: verify_p_certificate(inst, [(huge, 1.0)])):
                with pytest.raises(ValueError,
                                   match="sdp witness must be a unit vector"):
                    check()

    def test_huge_socp_vector_rejected_without_overflow(self):
        # the square of 1e200 overflows: an entry above 1 + 1e-12 is
        # rejected before any tail norm is taken
        inst = Socp(np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                              [0.0, 1.0, 0.0, 1.0, 0.0]]), blocks=(3, 2))
        huge = SocpVector((1.0, 1e200, 1e200, 0.0, 0.0))
        block_rule = (r"socp witness block must be \(1, u\) "
                      r"with \|\|u\|\| <= 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for check in (lambda: resolve_witness_column(inst, huge),
                          lambda: verify_p_certificate(inst, [(huge, 1.0)])):
                with pytest.raises(ValueError, match=block_rule):
                    check()

    def test_custom_column_must_be_finite(self):
        inst = CustomOracle(2, lambda y: None)
        bad = WitnessedColumn(CustomWitness("c"), np.array([math.inf, 0.0]))
        with pytest.raises(ValueError, match="column has wrong shape or "
                           "non-finite entries"):
            resolve_witness_column(inst, bad)

    def test_custom_column_zeroed_after_construction_rejected(self):
        # a custom column is never zero, so it never counts as a vanishing
        # one: WitnessedColumn.in_range rejects a column zeroed later
        inst = CustomOracle(2, lambda y: None)
        zeroed = WitnessedColumn(CustomWitness("c"), np.array([1.0, 0.0]))
        zeroed.column[:] = 0.0
        for check in (lambda: resolve_witness_column(inst, zeroed),
                      lambda: verify_p_certificate(inst, [(zeroed, 1.0)])):
            with pytest.raises(ValueError, match="nonzero"):
                check()

    def test_custom_witness_on_builtin_rejected(self):
        with pytest.raises(ValueError,
                           match="custom witness on a built-in instance"):
            resolve_witness_column(axes_lp(), CustomWitness(1.0))

    @pytest.mark.parametrize("instance, witness, message", [
        (axes_lp(), SocpVector((1.0, 0.0)),
         "socp_vector witness on a non-SOCP instance"),
        (Socp(np.array([[1.0, -1.0]]), blocks=(1, 1)), SocpVector((1.0,)),
         "socp witness has the wrong dimension"),
        (CustomOracle(2, lambda y: None),
         WitnessedColumn(CustomWitness("c"), np.array([1.0, 0.0, 0.0])),
         "column has wrong shape or non-finite entries"),
        (axes_lp(), object(), "unknown witness type object"),
    ], ids=["socp on lp", "socp dimension", "custom shape", "unknown type"])
    def test_witness_foreign_to_the_instance_rejected(self, instance,
                                                      witness, message):
        with pytest.raises(ValueError, match=message):
            resolve_witness_column(instance, witness)

    @pytest.mark.parametrize("v, message", [
        (("1", "0"), "must be numbers"),
        ((True, False), "must be numbers"),
        ((True, 0.0), "must be numbers"),
        ((1j, 0.0), "must be real"),
    ], ids=["strings", "booleans", "boolean among numbers", "complex"])
    def test_vector_that_is_not_real_numbers_rejected(self, v, message):
        # a conversion to float would read the first three as (1, 0), a
        # valid witness of both instances, and raise TypeError on 1j
        socp = Socp(np.array([[1.0, 0.5]]), blocks=(2,))
        for instance, witness in [(indefinite_sdp(), SdpVector(v)),
                                  (socp, SocpVector(v))]:
            with pytest.raises(ValueError,
                               match=f"witness vector {message}"):
                resolve_witness_column(instance, witness)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="witness vector must be finite"):
            resolve_witness_column(indefinite_sdp(), SdpVector((bad, 1.0)))
        socp = Socp(np.array([[1.0, 0.5]]), blocks=(2,))
        with pytest.raises(ValueError, match="witness vector must be finite"):
            resolve_witness_column(socp, SocpVector((1.0, bad)))


class TestGeneratePlanted:
    KINDS = ["lp", "sdp", "socp"]

    @pytest.mark.parametrize("kind,m,n", [
        (k, m, n) for k in KINDS for m, n in [(1, 3), (2, 5), (4, 7)]
    ])
    def test_interior_target_verifies_with_margin(self, kind, m, n):
        inst, cert = generate_planted(kind, m=m, n=n, seed=m * 100 + n,
                                      target="feasible_d")
        assert cert.kind == "d"
        rep = verify_d_solution(inst, cert.y)
        assert rep.accepted
        assert rep.residual >= 0.1 - 1e-9

    @pytest.mark.parametrize("kind,m,n", [
        (k, m, n) for k in KINDS for m, n in [(1, 3), (2, 5), (4, 7)]
    ])
    def test_degenerate_target_verifies(self, kind, m, n):
        inst, cert = generate_planted(kind, m=m, n=n, seed=m * 100 + n,
                                      target="feasible_p")
        assert cert.kind == "p"
        assert 1 <= len(cert.weights) <= m + 1
        rep = verify_p_certificate(inst, cert.weights)
        assert rep.accepted
        assert rep.residual <= 1e-10

    def test_same_seed_reproduces_instance(self):
        a, ca = generate_planted("lp", m=3, n=8, seed=42)
        b, cb = generate_planted("lp", m=3, n=8, seed=42)
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(ca.y, cb.y)
        c, _ = generate_planted("lp", m=3, n=8, seed=43)
        assert not np.array_equal(a.columns, c.columns)

    def test_socp_block_partition_is_seeded(self):
        a, _ = generate_planted("socp", m=2, n=9, seed=7)
        b, _ = generate_planted("socp", m=2, n=9, seed=7)
        assert a.blocks == b.blocks
        assert sum(a.blocks) == 9

    @pytest.mark.parametrize("kwargs", [
        dict(kind="qp", m=2, n=3, seed=0),
        dict(kind="lp", m=0, n=3, seed=0),
        dict(kind="lp", m=2, n=0, seed=0),
        dict(kind="lp", m=2, n=3, seed=0, target="bogus"),
        dict(kind="lp", m=2, n=1, seed=0, target="feasible_p"),
        dict(kind="sdp", m=2, n=1, seed=0, target="feasible_p"),
        dict(kind="socp", m=2, n=1, seed=0, target="feasible_p"),
    ])
    def test_invalid_requests_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate_planted(**kwargs)

    def test_negative_seed_is_a_config_error(self):
        # numpy would reject it with a plain ValueError, malformed input
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            generate_planted("lp", m=3, n=10, seed=-1)

    @pytest.mark.parametrize("name,bad", [("m", 2.5), ("m", True),
                                          ("n", "10"), ("seed", 1.5)])
    def test_non_integer_sizes_raise(self, name, bad):
        # each is refused where it enters, not inside numpy
        kwargs = dict(kind="lp", m=3, n=10, seed=1)
        kwargs[name] = bad
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            generate_planted(**kwargs)

    def test_integral_float_sizes_count(self):
        # an integral float is taken as its integer, as everywhere else
        a, ca = generate_planted("lp", m=3.0, n=10.0, seed=4.0)
        b, cb = generate_planted("lp", m=3, n=10, seed=4)
        assert a.columns.tobytes() == b.columns.tobytes()
        assert ca.y.tobytes() == cb.y.tobytes()


# the planted generators as loops over their columns and matrices, each
# drawn by its own call: the reference that generate_planted, which draws
# each array at once, reproduces bit for bit


def _random_symmetric(rng, n):
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def _loop_lp(rng, m, n, target):
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        cols = np.empty((m, n))
        for j in range(n):
            g = rng.standard_normal(m)
            tangential = g - (g @ y_star) * y_star
            margin = PLANTED_MARGIN + abs(rng.standard_normal())
            cols[:, j] = tangential + margin * y_star
        return FiniteLp(cols), Certificate("d", y=y_star)
    support = min(m, n - 1)
    cols = np.empty((m, n))
    for j in range(n - 1):
        cols[:, j] = _random_unit(rng, m) * (0.5 + rng.random())
    lam = 0.5 + rng.random(support)
    cols[:, n - 1] = -cols[:, :support] @ lam
    pairs = [(LpIndex(j), float(lam[j])) for j in range(support)]
    pairs.append((LpIndex(n - 1), 1.0))
    return FiniteLp(cols), Certificate("p", weights=pairs)


def _loop_sdp(rng, m, n, target):
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        j_star = int(np.argmax(np.abs(y_star)))
        mats = np.array([_random_symmetric(rng, n) for _ in range(m)])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = PLANTED_MARGIN + rng.random(n)
        X_star = Q @ np.diag(d) @ Q.T
        X_star = 0.5 * (X_star + X_star.T)
        rest = np.tensordot(y_star, mats, axes=(0, 0)) \
            - y_star[j_star] * mats[j_star]
        mats[j_star] = (X_star - rest) / y_star[j_star]
        mats[j_star] = 0.5 * (mats[j_star] + mats[j_star].T)
        return Sdp(mats), Certificate("d", y=y_star)
    k = m + 1
    vs = [_random_unit(rng, n) for _ in range(k)]
    xs = 0.5 + rng.random(k)
    C = np.zeros((n, n))
    for v, x in zip(vs, xs):
        C += x * np.outer(v, v)
    c_norm2 = float(np.sum(C * C))
    mats = np.empty((m, n, n))
    for i in range(m):
        B = _random_symmetric(rng, n)
        mats[i] = B - (float(np.sum(B * C)) / c_norm2) * C
    pairs = [(SdpVector(tuple(v.tolist())), float(x))
             for v, x in zip(vs, xs)]
    return Sdp(mats), Certificate("p", weights=pairs)


def _loop_socp(rng, m, n, target):
    blocks = _random_blocks(rng, n)
    starts = np.cumsum([0] + list(blocks))[:-1]
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        A = np.empty((m, n))
        for start, size in zip(starts, blocks):
            for j in range(start + 1, start + size):
                A[:, j] = rng.standard_normal(m)
            tail = A[:, start + 1 : start + size].T @ y_star
            g = rng.standard_normal(m)
            tangential = g - (g @ y_star) * y_star
            margin = PLANTED_MARGIN + abs(rng.standard_normal())
            A[:, start] = tangential + \
                (float(np.linalg.norm(tail)) + margin) * y_star
        return Socp(A, blocks), Certificate("d", y=y_star)
    k = min(m + 1, 3) if m > 1 else 2
    vs = []
    for j in range(k):
        b = j % len(blocks)
        v = np.zeros(n)
        v[starts[b]] = 1.0
        size = blocks[b]
        if size > 1:
            u = rng.standard_normal(size - 1)
            nrm = np.linalg.norm(u)
            if nrm > 0:
                u *= 0.9 * rng.random() / nrm
            v[starts[b] + 1 : starts[b] + size] = u
        vs.append(v)
    xs = 0.5 + rng.random(k)
    w = np.zeros(n)
    for v, x in zip(vs, xs):
        w += x * v
    A = rng.standard_normal((m, n))
    A -= np.outer(A @ w, w) / float(w @ w)
    pairs = [(SocpVector(tuple(v.tolist())), float(x))
             for v, x in zip(vs, xs)]
    return Socp(A, blocks), Certificate("p", weights=pairs)


def planted_bytes(instance, cert) -> bytes:
    """The stored data, exponents and blocks of an instance and the bytes
    of its certificate's direction or weights."""
    parts = [np.asarray(getattr(instance, name)).tobytes()
             for name in ("columns", "matrices", "A", "exponents",
                          "exponent", "blocks") if hasattr(instance, name)]
    if cert.kind == "d":
        parts.append(cert.y.tobytes())
    else:
        parts += [repr(w).encode() + np.float64(x).tobytes()
                  for w, x in cert.weights]
    return b"|".join(parts)


class TestPlantedBitForBit:
    LOOPS = {"lp": _loop_lp, "sdp": _loop_sdp, "socp": _loop_socp}
    SIZES = {
        "lp": [(1, 2), (2, 2), (7, 3), (3, 10), (20, 7), (1, 50), (5, 40),
               (10, 200), (30, 2000), (60, 5000)],
        "sdp": [(1, 2), (2, 2), (12, 3), (3, 4), (1, 5), (8, 20), (20, 40),
                (5, 60)],
        "socp": [(1, 2), (2, 2), (4, 3), (7, 9), (3, 12), (1, 30), (5, 40),
                 (10, 100), (20, 200), (60, 1000)],
    }

    @pytest.mark.parametrize("kind,m,n", [
        (k, m, n) for k, sizes in SIZES.items() for m, n in sizes])
    def test_arrays_drawn_at_once_keep_the_loops_bits(self, kind, m, n):
        for seed in range(5):
            for target in ("feasible_d", "feasible_p"):
                expected = self.LOOPS[kind](np.random.default_rng(seed), m,
                                            n, target)
                got = generate_planted(kind, m, n, seed, target)
                assert planted_bytes(*got) == planted_bytes(*expected), \
                    (seed, target)


class TestCertificateContainer:
    def test_kinds_are_exclusive(self):
        _, cert = generate_planted("lp", m=2, n=4, seed=1,
                                   target="feasible_d")
        assert isinstance(cert, Certificate)
        assert cert.kind == "d" and cert.y is not None \
            and cert.weights is None
        _, cert = generate_planted("lp", m=2, n=4, seed=1,
                                   target="feasible_p")
        assert cert.kind == "p" and cert.weights is not None \
            and cert.y is None
