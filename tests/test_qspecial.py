import numpy as np
import pytest

from jacksonq.errors import DenominatorPochhammerZero, DomainError, RegimeMismatch
from jacksonq.qcore import QParam, TruncatedSeries, q_factorial, q_pochhammer
from jacksonq.qoperator import dq_series, dqk_series
from jacksonq.qspecial import (
    BigEProduct,
    EtildeProduct,
    PhiParams,
    big_e_q,
    etilde_q,
    exp_q,
    phi_rs,
    sinq_cosq,
)

QS = [QParam(2.0), QParam(0.5), QParam(1 + 0.5j)]


def max_coeff_diff(f: TruncatedSeries, g: TruncatedSeries) -> float:
    n = min(f.order, g.order)
    return float(np.max(np.abs(f.coeffs[: n + 1] - g.coeffs[: n + 1])))


class TestPhiRs:
    def test_zeroth_term_is_one(self):
        params = PhiParams((0.3, -0.2j), (0.7,), QParam(0.5))
        assert phi_rs(params, 8).c(0) == 1.0

    def test_0phi0_matches_big_e_with_minus_z(self):
        # big_e_q(z) = _0phi_0(-;-;q,-z): coefficients q^{j(j-1)/2}/(q;q)_j
        qp = QParam(0.5)
        f = phi_rs(PhiParams((), (), qp), 20).scale_arg(-1.0)
        g = big_e_q(qp, 20)
        assert max_coeff_diff(f, g) < 1e-14

    def test_1phi0_at_zero_matches_etilde(self):
        qp = QParam(0.5)
        f = phi_rs(PhiParams((0.0,), (), qp), 24)
        g = etilde_q(qp, 24)
        assert max_coeff_diff(f, g) == 0.0

    def test_denominator_guard(self):
        qp = QParam(0.5)
        with pytest.raises(DenominatorPochhammerZero):
            PhiParams((), (qp.q ** -3,), qp)

    def test_saturates_once_q_power_overflows(self):
        # q^j leaves double range near j = 1024; the ladder saturates to
        # exact zero there instead of raising OverflowError
        params = PhiParams((0.3,), (0.5j,), QParam(2.0))
        long = phi_rs(params, 2000).coeffs
        assert np.all(np.isfinite(long))
        assert np.array_equal(long[:201], phi_rs(params, 200).coeffs)


class TestExpQ:
    @pytest.mark.parametrize("qp", QS, ids=["q2", "qhalf", "qcplx"])
    def test_first_coeffs(self, qp):
        e = exp_q(qp, 12)
        assert e.c(0) == 1.0
        assert e.c(1) == 1.0

    @pytest.mark.parametrize("qp", QS, ids=["q2", "qhalf", "qcplx"])
    def test_solves_dq_f_equals_f(self, qp):
        e = exp_q(qp, 24)
        de = dq_series(e, qp)
        assert max_coeff_diff(de, e) < 1e-12

    def test_cross_form_coefficients(self):
        # c_n = (1-q)^n/(q;q)_n
        for qp in QS:
            e = exp_q(qp, 30)
            for n in range(31):
                rhs = (1 - qp.q) ** n / q_pochhammer(qp.q, qp, n)
                assert abs(e.c(n) - rhs) <= 1e-12 * max(abs(rhs), 1e-300)

    def test_negative_order_is_refused(self):
        # also once a longer ladder is kept on qp, whose [:N + 1] with
        # N = -2 would be a nonempty slice
        qp = QParam(0.5)
        for _ in range(2):
            with pytest.raises(DomainError, match="nonempty 1-d list"):
                exp_q(qp, -2)
            exp_q(qp, 10)
        with pytest.raises(DomainError, match="nonempty 1-d list"):
            sinq_cosq(qp, -1)

    def test_matches_q_factorial(self):
        qp = QParam(0.5)
        e = exp_q(qp, 10)
        for n in range(11):
            assert e.c(n) == pytest.approx(1 / q_factorial(n, qp))


class TestEtilde:
    def test_scaling_identity_with_exp(self):
        # e_q^z = etilde_q((1-q) z)
        for qp in QS:
            lhs = exp_q(qp, 30)
            rhs = etilde_q(qp, 30).scale_arg(1 - qp.q)
            assert max_coeff_diff(lhs, rhs) < 1e-12

    def test_first_order_equation(self):
        # D_q f + f/(q-1) = 0 as a series identity
        qp = QParam(2.0)
        f = etilde_q(qp, 30)
        resid = dq_series(f, qp) + f * (1.0 / (qp.q - 1))
        assert float(np.max(np.abs(resid.coeffs))) < 1e-10


class TestBigE:
    def test_reciprocal_identity(self):
        # etilde_q(z) * big_e_q(-z) = 1
        for qp in QS:
            prod = etilde_q(qp, 30) * big_e_q(qp, 30).scale_arg(-1.0)
            assert abs(prod.c(0) - 1.0) < 1e-12
            assert float(np.max(np.abs(prod.coeffs[1:]))) < 1e-10

    def test_first_coeffs(self):
        qp = QParam(0.5)
        f = big_e_q(qp, 6)
        assert f.c(0) == 1.0
        assert f.c(1) == pytest.approx(1 / (1 - qp.q))


class TestSinCos:
    @pytest.mark.parametrize("qp", QS, ids=["q2", "qhalf", "qcplx"])
    def test_derivative_pair(self, qp):
        s, c = sinq_cosq(qp, 30)
        assert max_coeff_diff(dq_series(s, qp), c) < 1e-12
        assert max_coeff_diff(dq_series(c, qp), -s) < 1e-12

    def test_values_at_origin_and_parity(self):
        s, c = sinq_cosq(QParam(2.0), 21)
        assert s.c(0) == 0
        assert c.c(0) == 1
        assert np.all(np.abs(s.coeffs[0::2]) < 1e-15)
        assert np.all(np.abs(c.coeffs[1::2]) < 1e-15)

    @pytest.mark.parametrize("qp", QS, ids=["q2", "qhalf", "qcplx"])
    def test_second_order_equation(self, qp):
        for f in sinq_cosq(qp, 30):
            resid = dqk_series(f, qp, 2) + f
            assert float(np.max(np.abs(resid.coeffs))) < 1e-10

    @staticmethod
    def _from_exp_q_of_pm_iz(qp, N):
        # the series arithmetic sinq_cosq replaced, which certified a
        # radius of its own at each of its six steps
        e = exp_q(qp, N)
        ei, emi = e.scale_arg(1j), e.scale_arg(-1j)
        return (ei - emi) * (1.0 / 2j), (ei + emi) * 0.5

    @pytest.mark.parametrize("qv", [1.5, 2.0, 0.5, 1.07, 0.3 + 0.4j, -1.7,
                                    1.2 + 0.9j])
    @pytest.mark.parametrize("N", [10, 48, 100, 300, 2000])
    def test_coefficients_and_radius_come_from_exp_q(self, qv, N):
        qp = QParam(qv)
        e = exp_q(qp, N)
        for got, want in zip(sinq_cosq(qp, N),
                             self._from_exp_q_of_pm_iz(qp, N)):
            assert np.array_equal(got.coeffs, want.coeffs)
            # |c_n| <= |e_n|: exp_q's tail model bounds this tail too
            assert np.all(np.abs(got.coeffs) <= np.abs(e.coeffs))
            assert got.safe_radius == e.safe_radius


class TestInversionIdentities:
    def test_exp_q_inverse_pair(self):
        # e_q^z * e_{q^{-1}}^{-z} = 1
        for qp in QS:
            other = exp_q(qp.inverse(), 30).scale_arg(-1.0)
            prod = exp_q(qp, 30) * other
            assert abs(prod.c(0) - 1.0) < 1e-12
            assert float(np.max(np.abs(prod.coeffs[1:]))) < 1e-9

    def test_etilde_inverse_pair(self):
        # etilde_q(z) * etilde_{q^{-1}}(q^{-1} z) = 1
        for qp in QS:
            other = etilde_q(qp.inverse(), 30).scale_arg(1 / qp.q)
            prod = etilde_q(qp, 30) * other
            assert abs(prod.c(0) - 1.0) < 1e-12
            assert float(np.max(np.abs(prod.coeffs[1:]))) < 1e-9


class TestProductForms:
    def test_etilde_product_basics(self):
        qp = QParam(2.0)
        assert EtildeProduct(qp).eval(0.0) == 1.0
        assert abs(EtildeProduct(qp).eval(qp.q)) < 1e-14

    def test_etilde_product_vs_series(self):
        qp = QParam(2.0)
        series = etilde_q(qp, 48)
        for z in [0.3, 1.2j, -1.5, 1.0 + 1.0j]:
            z = complex(z)
            if abs(z) > 1.5:
                continue
            sv = series.eval(z)
            pv = EtildeProduct(qp).eval(z)
            assert abs(sv - pv) <= 1e-9 * max(1.0, abs(pv))

    def test_etilde_zero_lattice(self):
        prod = EtildeProduct(QParam(2.0))
        zs = prod.zeros_up_to(20.0)
        assert [z for z, _ in zs] == [2.0, 4.0, 8.0, 16.0]
        assert all(m == 1 for _, m in zs)

    def test_etilde_regime_guard(self):
        with pytest.raises(RegimeMismatch):
            EtildeProduct(QParam(0.5))

    def test_big_e_product_basics(self):
        qp = QParam(0.5)
        assert BigEProduct(qp).eval(0.0) == 1.0
        assert abs(BigEProduct(qp).eval(-1.0)) < 1e-14

    def test_big_e_product_equation_pointwise(self):
        # D_q f + f/((q-1)(z+1)) = 0 at sample points
        qp = QParam(0.5)
        prod = BigEProduct(qp)
        for z in [0.7, -0.4 + 0.9j, 2.5j, 3.0]:
            z = complex(z)
            dq = (prod.eval(qp.q * z) - prod.eval(z)) / ((qp.q - 1) * z)
            resid = dq + prod.eval(z) / ((qp.q - 1) * (z + 1))
            assert abs(resid) <= 1e-9 * max(1.0, abs(prod.eval(z)))

    def test_big_e_zero_lattice(self):
        prod = BigEProduct(QParam(0.5))
        zs = prod.zeros_up_to(10.0)
        assert [z for z, _ in zs] == [-1.0, -2.0, -4.0, -8.0]

    def test_big_e_product_vs_series(self):
        qp = QParam(0.5)
        series = big_e_q(qp, 60)
        for z in [0.5, -0.3 + 0.4j, 2.0, 5.0 + 1.0j]:
            z = complex(z)
            sv = series.eval(z)
            pv = BigEProduct(qp).eval(z)
            assert abs(sv - pv) <= 1e-9 * max(1.0, abs(pv))

    def test_log_eval_consistency(self):
        prod = BigEProduct(QParam(0.5))
        z = 3.0 + 2.0j
        assert prod.log_eval(z).real == pytest.approx(
            np.log(abs(prod.eval(z))), rel=1e-12)
