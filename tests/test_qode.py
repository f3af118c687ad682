import numpy as np
import pytest

from jacksonq.errors import (
    BracketOverflow,
    BracketUnderflow,
    CoefficientPoleAtOrigin,
    DomainError,
    FormalRegimeWarning,
    OutsideDomain,
    RegimeMismatch,
)
from jacksonq.qcore import QParam, TruncatedSeries, q_bracket, q_factorial, q_pochhammer
from jacksonq.qoperator import dq_series
from jacksonq.qode import (
    QdeProblem,
    RationalFunction,
    dq_rational,
    dqk_rational,
    polynomial_degree_condition,
    residual,
    shifted_to_plain,
    solve_series,
    solve_shifted_series,
    verify_pointwise,
)
from jacksonq.qspecial import exp_q, product_solution, sinq_cosq

RNG = np.random.default_rng(31182)


def const_rf(c) -> RationalFunction:
    return RationalFunction([c])


def quintic_first_order(qv: complex) -> RationalFunction:
    """A(z) = -(q^5-1) z^4 / ((q-1)(z^5+1)) so that D_q f + A f = 0 has the
    solution z^5 + 1."""
    num = np.zeros(5, dtype=complex)
    num[4] = -(qv**5 - 1)
    den = np.zeros(6, dtype=complex)
    den[0] = qv - 1
    den[5] = qv - 1
    return RationalFunction(num, den)


def quintic_second_order(qv: complex) -> RationalFunction:
    """A(z) = -(q^9-q^5-q^4+1) z^3 / ((q-1)^2 (z^5+1)) for the second-order
    equation solved by z^5 + 1."""
    num = np.zeros(4, dtype=complex)
    num[3] = -(qv**9 - qv**5 - qv**4 + 1)
    den = np.zeros(6, dtype=complex)
    den[0] = (qv - 1) ** 2
    den[5] = (qv - 1) ** 2
    return RationalFunction(num, den)


class TestRationalFunction:
    def test_eval_and_degrees(self):
        f = RationalFunction([-1, 0, 1], [0, 1])  # (z^2-1)/z
        assert f.num_degree == 2 and f.den_degree == 1
        assert f.eval(2.0) == pytest.approx(1.5)

    def test_zeros_poles(self):
        f = RationalFunction([-1, 0, 1], [0, 1])
        zs = sorted(z.real for z, _ in f.zeros())
        assert zs == pytest.approx([-1.0, 1.0])
        assert f.poles()[0][0] == 0

    def test_common_factor_cancelled(self, root_solves):
        # (z-1)(z-2) / (z-1)(z+3) -> (z-2)/(z+3)
        num = np.convolve([-1, 1], [-2, 1])
        den = np.convolve([-1, 1], [3, 1])
        f = RationalFunction(num, den)
        assert f.num_degree == 1 and f.den_degree == 1
        assert f.eval(5.0) == pytest.approx(3.0 / 8.0)
        # cancelling solved each side once and kept the lists less z = 1
        solves = len(root_solves)
        [(zero, zm)], [(pole, pm)] = f.zeros(), f.poles()
        assert len(root_solves) == solves == 2
        assert zero == pytest.approx(2.0, rel=1e-14) and zm == 1
        assert pole == pytest.approx(-3.0, rel=1e-14) and pm == 1

    def test_origin_series_geometric(self):
        f = RationalFunction([1], [1, -1])
        s = f.origin_series(5)
        assert np.allclose(s.coeffs, np.ones(6))

    def test_origin_series_needs_regularity(self):
        with pytest.raises(CoefficientPoleAtOrigin):
            RationalFunction([1], [0, 1]).origin_series(3)

    def test_origin_leading(self):
        f = RationalFunction([0, 0, 3.0], [2.0, 1])  # 3z^2/(2+z)
        lam, c = f.origin_leading()
        assert lam == 2 and c == pytest.approx(1.5)

    def test_from_roots_exact_lists(self):
        f = RationalFunction.from_roots([1.0, 1.0, -2.0], [3.0j], lead=2.0)
        assert dict(f.zeros()) == {1.0: 2, -2.0: 1}
        assert f.poles() == [(3.0j, 1)]

    def test_subtract_const_and_reciprocal(self):
        f = RationalFunction([-1, 0, 1], [0, 1])
        g = f.subtract_const(1.0)  # (z^2 - z - 1)/z
        assert g.eval(2.0) == pytest.approx(0.5)
        h = RationalFunction(f.den, f.num, cancel=False)
        assert h.eval(2.0) == pytest.approx(1 / 1.5)


class TestDqRational:
    def test_matches_divided_difference(self):
        qp = QParam(2.0)
        f = RationalFunction([1, 2, 0, 1], [3, 0, 1])
        df = dq_rational(f, qp)
        for z in [0.7, -1.3 + 0.4j, 2.1j]:
            direct = (f.eval(qp.q * z) - f.eval(z)) / ((qp.q - 1) * z)
            assert df.eval(z) == pytest.approx(direct, rel=1e-10)

    def test_regular_at_origin(self):
        qp = QParam(2.0)
        f = RationalFunction([0, 0, 1])  # z^2
        df = dq_rational(f, qp)
        # D_q z^2 = [2]_q z: a simple zero at the origin
        assert df.eval(1.0) == pytest.approx(q_bracket(2, qp))
        assert dict(df.zeros()) == {0.0: 1}

    def test_iterated(self):
        qp = QParam(0.5)
        f = RationalFunction([1, 0, 0, 0, 0, 1])  # z^5 + 1
        d2 = dqk_rational(f, qp, 2)
        expect = q_bracket(5, qp) * q_bracket(4, qp)
        assert d2.eval(1.3) == pytest.approx(expect * 1.3**3, rel=1e-10)


class TestSolveSeries:
    def test_exp_q_recurrence_exact(self):
        # D_q f = f, c_0 = 1: c_n = (1-q)^n/(q;q)_n; at q = 0.5, c_2 = 2/3
        qp = QParam(0.5)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        with pytest.warns(FormalRegimeWarning):
            f = solve_series(prob, 30)
        assert f.c(2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        for n in range(31):
            expect = (1 - qp.q) ** n / q_pochhammer(qp.q, qp, n)
            assert abs(f.c(n) - expect) <= 1e-12 * abs(expect)

    def test_matches_exp_q_module(self):
        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        f = solve_series(prob, 25)
        e = exp_q(qp, 25)
        assert np.max(np.abs(f.coeffs - e.coeffs)) < 1e-13

    def test_sin_cos_reproduced(self):
        qp = QParam(2.0)
        s_ref, c_ref = sinq_cosq(qp, 24)
        sin_f = solve_series(
            QdeProblem.homogeneous(2, const_rf(1.0), qp, (0.0, 1.0)), 24)
        cos_f = solve_series(
            QdeProblem.homogeneous(2, const_rf(1.0), qp, (1.0, 0.0)), 24)
        assert np.max(np.abs(sin_f.coeffs - s_ref.coeffs)) < 1e-12
        assert np.max(np.abs(cos_f.coeffs - c_ref.coeffs)) < 1e-12

    @pytest.mark.parametrize("qv", [2.0, 0.5])
    def test_quintic_polynomial_recovered(self, qv):
        qp = QParam(qv)
        prob = QdeProblem.homogeneous(1, quintic_first_order(qv), qp, (1.0,))
        f = solve_series(prob, 20)
        assert f.c(5) == pytest.approx(1.0, rel=1e-12)
        others = np.abs(np.delete(f.coeffs, [0, 5]))
        assert np.max(others) < 1e-12

    def test_linearity(self):
        qp = QParam(2.0)
        A = RationalFunction([1.0, 0.5], [1.0, 0, 0.25])
        u, v = (1.0, -0.5j), (0.3, 2.0)
        fu = solve_series(QdeProblem.homogeneous(2, A, qp, u), 20)
        fv = solve_series(QdeProblem.homogeneous(2, A, qp, v), 20)
        w = tuple(a + b for a, b in zip(u, v))
        fw = solve_series(QdeProblem.homogeneous(2, A, qp, w), 20)
        assert np.max(np.abs(fw.coeffs - fu.coeffs - fv.coeffs)) < 1e-12

    def test_inhomogeneous_term(self):
        # D_q f = 1 with c_0 = 0 has solution z
        qp = QParam(2.0)
        prob = QdeProblem(1, const_rf(0.0), const_rf(1.0), qp, (0.0,))
        f = solve_series(prob, 10)
        assert f.c(1) == pytest.approx(1.0)
        assert np.max(np.abs(np.delete(f.coeffs, 1))) < 1e-14

    def test_initial_length_enforced(self):
        with pytest.raises(DomainError):
            QdeProblem.homogeneous(2, const_rf(1.0), QParam(2.0), (1.0,))

    def test_coefficient_pole_rejected(self):
        with pytest.raises(CoefficientPoleAtOrigin):
            QdeProblem.homogeneous(
                1, RationalFunction([1], [0, 1]), QParam(2.0), (1.0,))


class TestResidual:
    def test_solver_output_residual_tiny(self):
        qp = QParam(2.0)
        A = RationalFunction([1.0, -0.3], [1.0, 0.2])
        prob = QdeProblem.homogeneous(2, A, qp, (1.0, 0.5))
        f = solve_series(prob, 30)
        _, mx = residual(prob, f)
        scale = float(np.max(np.abs(f.coeffs)))
        assert mx < 1e-10 * max(1.0, scale)

    def test_exp_q_residual(self):
        qp = QParam(0.5)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        _, mx = residual(prob, exp_q(qp, 30))
        assert mx < 1e-12

    def test_perturbation_detected(self):
        qp = QParam(0.5)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        f = exp_q(qp, 30)
        arr = f.coeffs.copy()
        arr[3] += 1e-3
        _, mx = residual(prob, TruncatedSeries(arr))
        assert mx >= 1e-4


class TestVerifyPointwise:
    @pytest.mark.parametrize("qv", [2.0, 0.5])
    def test_quintic_both_orders(self, qv):
        qp = QParam(qv)
        poly = lambda z: z**5 + 1
        pts = [complex(RNG.uniform(0.2, 2.0) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
               for _ in range(10)]
        prob1 = QdeProblem.homogeneous(1, quintic_first_order(qv), qp, (1.0,))
        prob2 = QdeProblem.homogeneous(2, quintic_second_order(qv), qp,
                                       (1.0, 0.0))
        assert max(verify_pointwise(prob1, poly, pts)) < 1e-9
        assert max(verify_pointwise(prob2, poly, pts)) < 1e-9

    def test_big_e_product_against_equation(self):
        # E-product satisfies D_q f + f/((q-1)(z+1)) = 0 for |q| < 1
        from jacksonq.qspecial import BigEProduct

        qp = QParam(0.5)
        prod = BigEProduct(qp)
        A = RationalFunction([1.0], [(qp.q - 1), (qp.q - 1)])  # 1/((q-1)(1+z))
        prob = QdeProblem.homogeneous(1, A, qp, (1.0,))
        pts = [0.7, -0.4 + 0.9j, 2.0, 1.5j]
        assert max(verify_pointwise(prob, prod.eval, pts)) < 1e-9

    def test_etilde_product_against_equation(self):
        from jacksonq.qspecial import EtildeProduct

        qp = QParam(2.0)
        prod = EtildeProduct(qp)
        A = const_rf(1.0 / (qp.q - 1))
        prob = QdeProblem.homogeneous(1, A, qp, (1.0,))
        pts = [0.5, -1.2, 0.3 + 0.8j]
        assert max(verify_pointwise(prob, prod.eval, pts)) < 1e-9

    def test_samples_each_orbit_point_once(self):
        # f(z) is the orbit's last sample, not one more call
        calls = []

        def f(z):
            calls.append(z)
            return z**5 + 1

        prob = QdeProblem.homogeneous(2, quintic_second_order(2.0),
                                      QParam(2.0), (1.0, 0.0))
        [res] = verify_pointwise(prob, f, [0.5])
        assert calls == [2.0, 1.0, 0.5] and res < 1e-9

    def test_origin_rejected(self):
        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        with pytest.raises(OutsideDomain):
            verify_pointwise(prob, lambda z: z, [0.0])


class TestDegreeCondition:
    def test_quintic_first_order_admissible(self):
        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(1, quintic_first_order(2.0), qp, (1.0,))
        cond = polynomial_degree_condition(prob)
        assert cond.deg_num == 4 and cond.deg_den == 5
        assert cond.polynomial_admissible

    def test_quintic_second_order_admissible(self):
        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(2, quintic_second_order(2.0), qp,
                                      (1.0, 0.0))
        cond = polynomial_degree_condition(prob)
        assert cond.deg_den - cond.deg_num == 2
        assert cond.polynomial_admissible

    def test_polynomial_coefficient_not_admissible(self):
        qp = QParam(2.0)
        prob = QdeProblem.homogeneous(1, RationalFunction([1.0, 2.0]), qp, (1.0,))
        assert not polynomial_degree_condition(prob).polynomial_admissible

    def test_requires_homogeneous(self):
        qp = QParam(2.0)
        prob = QdeProblem(1, const_rf(1.0), const_rf(1.0), qp, (1.0,))
        with pytest.raises(DomainError):
            polynomial_degree_condition(prob)


class TestProductSolution:
    def test_value_at_origin(self):
        qp = QParam(0.5)
        assert product_solution([1.0], qp).eval(0.0) == 1.0

    def test_constant_p_matches_exp_inverse_base(self):
        # P = a: f = exp_{1/q}(a z) = sum a^n z^n/[n]_{1/q}!
        qp = QParam(0.5)
        a = 0.8
        for z in [0.3, 1.0, -0.6 + 0.4j]:
            val = product_solution([a], qp).eval(z)
            qinv = qp.inverse()
            expect = sum((a * z) ** n / q_factorial(n, qinv) for n in range(60))
            assert abs(val - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_pointwise_residual_p_equals_z(self):
        # D_q f - P f(qz) = 0 with P(z) = z
        qp = QParam(0.5)
        P = [0.0, 1.0]
        f = product_solution(P, qp).eval
        for _ in range(6):
            z = complex(RNG.uniform(0.2, 1.5) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            dq = (f(qp.q * z) - f(z)) / ((qp.q - 1) * z)
            resid = dq - z * f(qp.q * z)
            assert abs(resid) <= 1e-9 * max(1.0, abs(f(z)))

    def test_regime_guard(self):
        with pytest.raises(RegimeMismatch):
            product_solution([1.0], QParam(2.0))


class TestCasoratiRelation:
    @pytest.mark.parametrize("qv", [2.0, 0.5])
    def test_second_order_relation(self, qv):
        # For solutions of D_q^2 f + A f = 0:
        # D_q C_J(f1,f2) = A(z)(q-1) z C_J(f1,f2) as series
        from jacksonq.qoperator import CasoratiPair, casorati

        qp = QParam(qv)
        A = RationalFunction([1.0, 0.4], [1.0, 0, 0.5])
        N = 30
        f1 = solve_series(QdeProblem.homogeneous(2, A, qp, (1.0, 0.0)), N)
        f2 = solve_series(QdeProblem.homogeneous(2, A, qp, (0.0, 1.0)), N)
        C = casorati(CasoratiPair(f1, f2, qp))
        lhs = dq_series(C, qp)
        rhs = ((qp.q - 1) * (A.origin_series(N) * C.shifted(1)))
        n = min(lhs.order, rhs.order)
        diff = np.max(np.abs(lhs.coeffs[: n + 1] - rhs.coeffs[: n + 1]))
        assert diff < 1e-8

    def test_dependence_iff_casorati_vanishes(self):
        from jacksonq.qoperator import CasoratiPair, casorati

        qp = QParam(0.5)
        A = const_rf(1.0)
        with pytest.warns(FormalRegimeWarning):
            f1 = solve_series(QdeProblem.homogeneous(2, A, qp, (1.0, 2.0)), 20)
        with pytest.warns(FormalRegimeWarning):
            f2 = solve_series(QdeProblem.homogeneous(2, A, qp, (2.0, 4.0)), 20)
        C = casorati(CasoratiPair(f1, f2, qp))
        assert np.max(np.abs(C.coeffs)) < 1e-12
        with pytest.warns(FormalRegimeWarning):
            f3 = solve_series(QdeProblem.homogeneous(2, A, qp, (1.0, -1.0)), 20)
        C2 = casorati(CasoratiPair(f1, f3, qp))
        assert np.max(np.abs(C2.coeffs)) > 1e-6


SHIFT_QS = [pytest.param(0.5, id="q=0.5"), pytest.param(2.0, id="q=2"),
            pytest.param(-1.5, id="q=-1.5"),
            pytest.param(1.3 * np.exp(0.7j), id="q=1.3e^0.7i"),
            pytest.param(0.6 * np.exp(-1.1j), id="q=0.6e^-1.1i")]


class TestShiftedEquation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("qv", SHIFT_QS)
    def test_substitution_matches_direct(self, qv, k):
        # D_q^k f + A(z) f(q^k z) = 0 solved directly and through the
        # base-inversion substitution agree coefficient-wise.
        qp = QParam(qv)
        A = RationalFunction([0.7, -0.2], [1.0, 0.3])
        init = tuple(1.0 + 0.1j * i for i in range(k))
        direct = solve_shifted_series(k, A, qp, init, 24)
        qp2, A2 = shifted_to_plain(k, A, qp)
        via = solve_series(QdeProblem.homogeneous(k, A2, qp2, init), 24)
        assert np.max(np.abs(direct.coeffs - via.coeffs)) < 1e-10

    @pytest.mark.parametrize("qv, N", [
        pytest.param(0.5, 40, id="q=0.5-N=40"),
        # the substitution route refuses these: its brackets at 1/q overflow
        pytest.param(0.5, 1500, id="q=0.5-N=1500"),
        pytest.param(0.5 * np.exp(1j), 1500, id="q=0.5e^i-N=1500")])
    def test_shifted_solution_satisfies_equation_pointwise(self, qv, N):
        qp = QParam(qv)
        A = const_rf(1.0)
        f = solve_shifted_series(1, A, qp, (1.0,), N)
        qk = qp.q
        for z in [0.2, 0.1 + 0.1j]:
            dq = (f.eval(qk * z) - f.eval(z)) / ((qk - 1) * z)
            resid = dq + A.eval(z) * f.eval(qk * z)
            assert abs(resid) < 1e-9


class TestBracketGuard:
    def test_conditioning_warning_for_tiny_brackets(self):
        # q just off an 8th root of unity: [8]_q ~ 1e-4 sits between the
        # hard guard (1e-9) and the conditioning threshold (1e-3)
        from jacksonq.errors import ConditioningWarning

        q = np.exp(2j * np.pi / 8) * (1 + 1e-5)
        qp = QParam(q, guard_order=4)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        with pytest.warns(ConditioningWarning):
            solve_series(prob, 12)

    def test_underflow_raised_near_root_of_unity(self):
        # q within guard of a 6th root of unity passes construction with a
        # small guard_order but trips the solver at the matching order
        q = np.exp(2j * np.pi / 6) * (1 + 1e-11)
        qp = QParam(q, guard_order=3, guard_tol=1e-9)
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), qp, (1.0,))
        with pytest.raises(BracketUnderflow):
            solve_series(prob, 12)

    def test_overflow_raised_for_q_two_at_large_N(self):
        # [n]_q leaves double range near n = 997; the coefficients used to
        # turn NaN there while safe_radius stayed ~2e13
        prob = QdeProblem.homogeneous(1, const_rf(-1.0), QParam(2.0), (1.0,))
        with pytest.raises(BracketOverflow):
            solve_series(prob, 2000)

    def test_overflow_raised_for_complex_q(self):
        # the bracket product keeps finite parts but its modulus overflows
        q = 1.9 * np.exp(0.85j)
        prob = QdeProblem.homogeneous(2, const_rf(-1.0), QParam(q),
                                      (1.0, 0.0))
        with pytest.raises(BracketOverflow):
            solve_series(prob, 800)

    def test_shifted_overflow_raised_for_q_two_at_large_N(self):
        # used to escape as a bare OverflowError from q^(k n)
        with pytest.raises(BracketOverflow):
            solve_shifted_series(1, const_rf(-1.0), QParam(2.0), (1.0,), 1100)

    def test_shifted_overflow_raised_in_the_weighted_sum(self):
        # at q = -1.5 the bracket products stay finite while the terms
        # q^{2(n-m)} c_{n-m} of the sum overflow (near order 638)
        with np.errstate(over="ignore"), pytest.raises(BracketOverflow):
            solve_shifted_series(2, const_rf(-1.0), QParam(-1.5), (1.0, 0.0),
                                 700)

    def test_overflow_raised_when_coefficients_leave_double_range(self):
        # the brackets stay near 2 while c_n grows like 500^n and leaves
        # double range at c_114; inf coefficients would make eval nan
        prob = QdeProblem.homogeneous(1, const_rf(-1000.0), QParam(0.5),
                                      (1.0,))
        with pytest.warns(FormalRegimeWarning), \
                pytest.raises(BracketOverflow, match="order 114"):
            solve_series(prob, 200)

    def test_large_N_inside_double_range_still_solves(self):
        prob = QdeProblem.homogeneous(3, const_rf(-1.0), QParam(1.1),
                                      (1.0, 0.0, 0.0))
        f = solve_series(prob, 2000)
        assert np.all(np.isfinite(f.coeffs))
        # the substitution route would refuse this at order 513
        g = solve_shifted_series(2, const_rf(-1.0), QParam(0.5), (1.0, 0.0),
                                 800)
        assert np.all(np.isfinite(g.coeffs))
