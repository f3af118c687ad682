import cmath
import math

import numpy as np
import pytest

from jacksonq.errors import DivisorSingular, DomainError, OutsideSafeRadius
from jacksonq.polyroots import poly_eval
from jacksonq.qcore import (
    QParam,
    TruncatedSeries,
    q_binomial,
    q_binomial_mp,
    q_bracket,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_mp,
)
from jacksonq.qoperator import dq_series
from jacksonq.qspecial import big_e_q, etilde_q, exp_q

RNG = np.random.default_rng(20240817)


def random_q(rng, lo=0.2, hi=3.0):
    """Random valid q with modulus away from 0 and 1."""
    while True:
        mod = rng.uniform(lo, hi)
        if abs(mod - 1.0) < 0.1:
            continue
        ang = rng.uniform(0, 2 * np.pi)
        return QParam(mod * np.exp(1j * ang))


class TestQParam:
    def test_rejects_zero_and_unit_modulus(self):
        with pytest.raises(DomainError):
            QParam(0)
        with pytest.raises(DomainError):
            QParam(1.0)
        with pytest.raises(DomainError):
            QParam(np.exp(0.3j))  # |q| = 1, irrational angle

    def test_rejects_near_root_of_unity(self):
        q = (1 + 1e-12) * np.exp(2j * np.pi / 8)
        with pytest.raises(DomainError):
            QParam(q)

    def test_accepts_both_regimes(self):
        QParam(0.5)
        QParam(2.0)
        QParam(1 + 0.5j)

    def test_inverse(self):
        qp = QParam(2.0)
        assert qp.inverse().q == pytest.approx(0.5)


class TestBracketFactorialPochhammer:
    def test_bracket_trivial(self):
        qp = QParam(1.7 + 0.3j)
        assert q_bracket(0, qp) == 0
        assert q_bracket(1, qp) == 1

    def test_bracket_hand_value(self):
        # direct sum 1 + q + q^2 at q = 2
        assert q_bracket(3, QParam(2.0)) == pytest.approx(7.0)

    def test_bracket_power_identity(self):
        # [n]_q (q-1) + 1 = q^n
        for _ in range(25):
            qp = random_q(RNG)
            n = int(RNG.integers(0, 51))
            lhs = q_bracket(n, qp) * (qp.q - 1) + 1
            assert abs(lhs - qp.q**n) <= 1e-12 * max(1.0, abs(qp.q) ** n)

    def test_factorial_hand_values(self):
        assert q_factorial(0, QParam(3.0)) == pytest.approx(1.0)
        assert q_factorial(2, QParam(3.0)) == pytest.approx(4.0)  # 1*(1+q)
        assert q_factorial(2, QParam(0.5)) == pytest.approx(1.5)

    def test_factorial_pochhammer_identity(self):
        # [n]_q! = (q;q)_n / (1-q)^n
        for _ in range(20):
            qp = random_q(RNG, lo=0.3, hi=1.8)
            n = int(RNG.integers(0, 41))
            lhs = q_factorial(n, qp)
            rhs = q_pochhammer(qp.q, qp, n) / (1 - qp.q) ** n
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_pochhammer_basics(self):
        qp = QParam(0.7)
        assert q_pochhammer(1.3 - 0.2j, qp, 0) == 1.0
        assert q_pochhammer(1.0, qp, 4) == 0.0
        assert q_pochhammer(0.5, QParam(0.5), 2) == pytest.approx(0.375)

    def test_pochhammer_inf(self):
        qp = QParam(0.5)
        assert q_pochhammer_inf(0.0, qp) == 1.0
        assert q_pochhammer_inf(1.0, qp) == 0.0
        # oracle: 60-factor partial product of prod_{n>=0} (1 - 0.5 * 0.5^n),
        # which is Euler's phi(1/2) = 0.28878809508660...
        oracle = 1.0
        for n in range(60):
            oracle *= 1 - 0.5 * 0.5**n
        val = q_pochhammer_inf(0.5, qp, tol=1e-14)
        assert abs(val - oracle) <= 1e-13
        assert f"{val.real:.7f}".startswith("0.2887881")

    def test_pochhammer_inf_rejects_outer_regime(self):
        with pytest.raises(DomainError):
            q_pochhammer_inf(0.5, QParam(2.0))

    def test_pochhammer_inf_near_one_matches_mpmath(self):
        # log (a;q)_inf = -sum_m a^m / (m (1 - q^m)) at 50 digits; about
        # 37000 factors at q = 0.999
        import mpmath as mp

        with mp.workdps(50):
            a, q = mp.mpf("0.1"), mp.mpf("0.999")
            want = complex(mp.exp(-mp.nsum(
                lambda m: a**m / (m * (1 - q**m)), [1, mp.inf])))
        got = q_pochhammer_inf(0.1, QParam(0.999))
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a, qv", [(0.001, 0.99999), (0.01, 0.9999),
                                       (math.nan, 0.5), (complex(math.inf), 0.5)])
    def test_pochhammer_inf_refuses_instead_of_truncating(self, a, qv):
        # the first two need over 3e5 factors to reach the cutoff
        with pytest.raises(DomainError):
            q_pochhammer_inf(a, QParam(qv))


class TestQBinomial:
    def test_edges(self):
        qp = QParam(2.5)
        for n in range(6):
            assert q_binomial(n, 0, qp) == 1.0
            assert q_binomial(n, n, qp) == 1.0

    def test_hand_value(self):
        # (1 - q^2)/(1 - q) = 1 + q at q = 3
        assert q_binomial(2, 1, QParam(3.0)) == pytest.approx(4.0)

    def test_cross_check_pochhammer_quotient(self):
        qp = QParam(0.5)
        direct = q_pochhammer(qp.q, qp, 4) / q_pochhammer(qp.q, qp, 2) ** 2
        assert abs(q_binomial(4, 2, qp) - direct) <= 1e-13 * abs(direct)

    def test_pascal_identity(self):
        # [n,j]_q = [n-1,j-1]_q + q^j [n-1,j]_q for 0 < j < n <= 20
        for _ in range(8):
            qp = random_q(RNG, lo=0.3, hi=1.9)
            for n in range(2, 21):
                for j in range(1, n):
                    lhs = q_binomial(n, j, qp)
                    rhs = q_binomial(n - 1, j - 1, qp) + qp.q**j * q_binomial(
                        n - 1, j, qp
                    )
                    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_rejects_bad_j(self):
        with pytest.raises(DomainError):
            q_binomial(3, -1, QParam(2.0))
        with pytest.raises(DomainError):
            q_binomial(3, 4, QParam(2.0))


class TestExtendedPrecision:
    def test_mp_toggle_beats_double_near_root_of_unity(self):
        # q just off a 32nd root of unity: the factor 1 - q^32 is ~3e-7,
        # so doubles keep only ~8 good digits of it.
        q = (1 + 1e-8) * np.exp(2j * np.pi / 32)
        qp = QParam(q, guard_order=64)
        dbl = q_pochhammer(q, qp, 40)
        hp30 = q_pochhammer_mp(q, q, 40, dps=30)
        hp50 = q_pochhammer_mp(q, q, 40, dps=50)
        # high-precision result is self-consistent
        assert abs(hp30 - hp50) <= 1e-20 * abs(hp50)
        # and the double-precision path visibly drifts from it
        assert abs(dbl - hp50) > 1e-12 * abs(hp50)

    def test_mp_binomial_matches_double_when_benign(self):
        qp = QParam(0.5)
        a = q_binomial(10, 4, qp)
        b = q_binomial_mp(10, 4, 0.5, dps=35)
        assert abs(a - b) <= 1e-12 * abs(a)


class TestTruncatedSeries:
    def test_construction_and_access(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.order == 2
        assert f.c(1) == 2
        assert f.c(99) == 0

    def test_immutability(self):
        f = TruncatedSeries([1, 2, 3])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_add_mul_orders(self):
        f = TruncatedSeries.from_polynomial([1, 1], order=2)  # 1 + z
        g = TruncatedSeries.from_polynomial([1, -1], order=2)  # 1 - z
        h = f * g
        assert h.order == 2
        assert np.allclose(h.coeffs, [1, 0, -1])

    def test_min_truncation_order(self):
        f = TruncatedSeries(np.ones(8))
        g = TruncatedSeries(np.ones(5))
        assert (f + g).order == 4
        assert (f * g).order == 4

    def test_scale_arg_identity(self):
        f = TruncatedSeries(RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
        g = f.scale_arg(1.0)
        assert np.allclose(g.coeffs, f.coeffs, rtol=0, atol=0)

    def test_div_geometric_oracle(self):
        one = TruncatedSeries.from_polynomial([1], order=4)
        den = TruncatedSeries.from_polynomial([1, -1], order=4)
        h = one.divide(den)
        assert np.allclose(h.coeffs, np.ones(5), atol=1e-14)

    def test_div_singular(self):
        one = TruncatedSeries.from_polynomial([1], order=4)
        with pytest.raises(DivisorSingular):
            one.divide(TruncatedSeries.from_polynomial([0, 1], order=4))

    def test_mul_commutative_associative(self):
        for _ in range(12):
            n = int(RNG.integers(4, 65))
            mk = lambda: TruncatedSeries(
                RNG.uniform(-1, 1, n + 1) + 1j * RNG.uniform(-1, 1, n + 1)
            )
            f, g, h = mk(), mk(), mk()
            assert np.max(np.abs((f * g).coeffs - (g * f).coeffs)) <= 1e-13
            lhs = ((f * g) * h).coeffs
            rhs = (f * (g * h)).coeffs
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_div_inverts_mul(self):
        # Error in the division recurrence amplifies like (1/rho)^N with
        # rho the smallest zero modulus of g (can be near |c_0| = 0.1), so
        # the 1e-10 roundtrip bound is only meaningful at moderate orders.
        for _ in range(20):
            n = int(RNG.integers(4, 11))
            f = TruncatedSeries(
                RNG.uniform(-1, 1, n + 1) + 1j * RNG.uniform(-1, 1, n + 1)
            )
            g_arr = RNG.uniform(-1, 1, n + 1) + 1j * RNG.uniform(-1, 1, n + 1)
            while abs(g_arr[0]) <= 0.1:
                g_arr[0] = RNG.uniform(-1, 1) + 1j * RNG.uniform(-1, 1)
            g = TruncatedSeries(g_arr)
            back = (f * g).divide(g)
            assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-10

    def test_eval_horner(self):
        f = TruncatedSeries.from_polynomial([1, 2, 3])
        assert f.eval(2.0) == pytest.approx(1 + 4 + 12)
        vals = f.eval(np.array([0.0, 1.0]))
        assert np.allclose(vals, [1.0, 6.0])

    def test_safe_radius_polynomial_unbounded(self):
        f = TruncatedSeries.from_polynomial([1, 0, 0, 0, 1])
        assert math.isinf(f.safe_radius)
        f.eval(1e12)  # no complaint

    def test_polynomial_cut_short_has_a_tail(self):
        # cutting only zeros keeps the polynomial; cutting 3 z^2 does not
        assert TruncatedSeries.from_polynomial([1, 2, 0, 0], order=1
                                               ).is_exact_polynomial
        cut = TruncatedSeries.from_polynomial([1, 2, 3], order=1)
        assert not cut.is_exact_polynomial
        assert cut.safe_radius == TruncatedSeries([1, 2]).safe_radius

    def test_safe_radius_decaying_series(self):
        # geometric coefficients 2^-n: tail at |z| < 2 controlled
        f = TruncatedSeries(0.5 ** np.arange(40), tail_tol=1e-12)
        assert f.safe_radius is not None and 0.5 < f.safe_radius < 2.0
        # certified: compare eval against the closed form 1/(1 - z/2)
        z = 0.45 * f.safe_radius
        assert abs(f.eval(z) - 1 / (1 - z / 2)) < 1e-12

    def test_safe_radius_nondecaying_is_unknown(self):
        f = TruncatedSeries(np.ones(33))
        assert f.safe_radius is None

    def test_safe_radius_nonfinite_is_unknown(self):
        # a NaN magnitude used to drop out of the decay fit: radius 0.974
        # was certified and eval(0.5) returned nan+nanj
        tail = [0.5 ** n for n in range(3, 40)]
        for bad in (math.nan, math.inf):
            f = TruncatedSeries(np.array([1, 0.5, bad] + tail, dtype=complex))
            assert f.safe_radius is None

    def test_exact_polynomial_nonfinite_is_unknown(self):
        # an exact polynomial used to get radius inf whatever its
        # coefficients held, so eval(0.5) returned nan+nanj inside it
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            f = TruncatedSeries.from_polynomial([1.0, bad])
            assert f.safe_radius is None
            assert not f.is_exact_polynomial
        f = TruncatedSeries([1.0, 2.0], exact_polynomial=True)
        assert math.isinf(f.safe_radius)

    def test_outside_safe_radius_raises(self):
        f = TruncatedSeries(0.5 ** np.arange(40))
        with pytest.raises(OutsideSafeRadius):
            f.eval(10.0)
        # |z| past double range is past any radius, for one point too
        with pytest.raises(OutsideSafeRadius):
            f.eval(complex(1.5e308, 1.5e308))

    def test_shifted(self):
        f = TruncatedSeries.from_polynomial([1, 2])
        g = f.shifted(2)
        assert np.allclose(g.coeffs, [0, 0, 1, 2])


# one base per q regime: 0 < q < 1, q > 1, q < 0, complex inside and
# outside the unit circle, next to a primitive cube root of unity
REGIME_BASES = (0.5, 2.0, -0.7, 0.6 * cmath.exp(2.2j),
                1.7 * cmath.exp(-0.4j), 1.001 * cmath.exp(2j * math.pi / 3))


@pytest.mark.parametrize("q", REGIME_BASES)
def test_one_point_eval_is_array_eval_bit_for_bit(q):
    # A one-point eval and the same point inside a one-element array run
    # the same Horner loop on a 0-d and a 1-d array: equal bits, for any
    # scalar type of the point.
    rng = np.random.default_rng([20240817, REGIME_BASES.index(q)])
    qp = QParam(q)
    deg = int(rng.integers(3, 16))
    poly = TruncatedSeries.from_polynomial(
        rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    series = [poly, dq_series(poly, qp)]
    series += [make(qp, int(rng.integers(20, 90)))
               for make in (exp_q, etilde_q, big_e_q)]
    for f in series:
        radius = f.safe_radius if f.safe_radius is not None else 2.0
        radius = min(radius, 50.0)
        for _ in range(40):
            z = complex(radius * rng.uniform(0.0, 1.0)
                        * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)))
            want = f.eval(np.array([z])).view(np.uint64)
            for point in (z, np.complex128(z), np.array(z)):
                got = f.eval(point)
                assert type(got) is complex
                assert np.array_equal(np.array([got]).view(np.uint64), want)


def bits(values) -> list:
    """The bit patterns of complex values, NaN payloads included."""
    return np.array(values, dtype=np.complex128).ravel().view(
        np.uint64).tolist()


def test_skipped_top_zeros_move_no_bit():
    # eval leaves out the exact-zero top coefficients at finite points;
    # poly_eval runs every coefficient. Signed zeros in the coefficients
    # and in z, an exact-zero top block of any length (the whole series
    # too) and non-finite points must all give the bits of the full loop.
    rng = np.random.default_rng(20261019)
    signed_zeros = (0.0, -0.0)
    for _ in range(3000):
        deg = int(rng.integers(0, 12))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        for i in range(deg + 1):
            if rng.random() < 0.3:
                c[i] = complex(rng.choice(signed_zeros), c[i].imag)
            if rng.random() < 0.3:
                c[i] = complex(c[i].real, rng.choice(signed_zeros))
        for i in range(int(rng.integers(0, deg + 2)), deg + 1):
            c[i] = complex(rng.choice(signed_zeros), rng.choice(signed_zeros))
        f = TruncatedSeries(c)
        f.safe_radius = None  # no radius test: evaluate anywhere
        parts = (0.0, -0.0, rng.standard_normal())
        zs = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(3)]
        if rng.random() < 0.2:
            zs[0] = complex(rng.choice((math.inf, -math.inf, math.nan)), 0.0)
        with np.errstate(all="ignore"):
            want = poly_eval(c, np.array(zs))
            assert bits([f.eval(z) for z in zs]) == bits(want)
            assert bits(f.eval(np.array(zs))) == bits(want)
