import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import (
    BracketOverflow,
    DomainError,
    NonconvergentSample,
    OriginSingular,
    OutsideSafeRadius,
)
from jacksonq.qcore import QParam, TruncatedSeries, q_bracket
from jacksonq.qoperator import (
    CasoratiPair,
    casorati,
    dq_sample,
    dq_series,
    dqk_closed_form,
    dqk_sample,
    dqk_series,
    jackson_integral,
    kernel_check,
    series_sampler,
)
from jacksonq.qspecial import etilde_q, exp_q

RNG = np.random.default_rng(7415)


def rand_poly(rng, deg):
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    while abs(c[-1]) < 0.1:
        c[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    return TruncatedSeries.from_polynomial(c)


def poly_sampler(f: TruncatedSeries):
    """f as a plain one-point callable, off the series' orbit route."""
    return lambda z: f.eval(z)


class TestDqSeries:
    def test_constant_maps_to_zero(self):
        qp = QParam(2.0)
        f = TruncatedSeries.from_polynomial([3.5], order=6)
        assert np.all(dq_series(f, qp).coeffs == 0)

    def test_monomial(self):
        # D_q z^3 = [3]_q z^2 = 7 z^2 at q = 2
        qp = QParam(2.0)
        f = TruncatedSeries.from_polynomial([0, 0, 0, 1])
        df = dq_series(f, qp)
        assert df.order == 2
        assert df.c(2) == pytest.approx(7.0)

    def test_overflowed_bracket_raises(self):
        # [n]_2 leaves double range near n = 997, where exp_q's
        # coefficients have saturated to 0: 0 * inf used to give NaN
        # coefficients under a finite safe_radius
        qp = QParam(2.0)
        with pytest.raises(BracketOverflow):
            dq_series(exp_q(qp, 1100), qp)
        assert np.all(np.isfinite(dq_series(exp_q(qp, 900), qp).coeffs))

    def test_exact_polynomial_past_overflow(self):
        # every bracket past [996]_2 overflows, but meets an exact zero:
        # D_q (1 + 2z) = 2, zero-padded to order 1099
        qp = QParam(2.0)
        f = TruncatedSeries.from_polynomial([1.0, 2.0], order=1100)
        df = dq_series(f, qp)
        assert df.is_exact_polynomial and df.order == 1099
        assert df.coeffs[0] == 2.0 and np.all(df.coeffs[1:] == 0)

    def test_exact_polynomial_nonzero_at_overflow_raises(self):
        qp = QParam(2.0)
        coeffs = np.zeros(1101)
        coeffs[1000] = 1.0
        with pytest.raises(BracketOverflow, match=r"\[1000\]_q"):
            dq_series(TruncatedSeries.from_polynomial(coeffs), qp)

    def test_order_drop(self):
        qp = QParam(0.5)
        f = TruncatedSeries(RNG.standard_normal(10))
        assert dq_series(f, qp).order == 8

    def test_degree_lowering_leading_coeff(self):
        # leading coefficient maps c_d -> [d]_q c_d != 0
        qp = QParam(1 + 0.5j)
        for d in range(1, 9):
            f = rand_poly(RNG, d)
            df = dq_series(f, qp)
            lead = df.c(d - 1)
            assert lead == pytest.approx(q_bracket(d, qp) * f.c(d))
            assert abs(lead) > 0


class TestDqSample:
    def test_identity_and_constant(self):
        qp = QParam(2.0)
        ident = lambda z: z
        const = lambda z: 4.2 + 0j
        for z in [1.0, -0.3 + 2j, 5j]:
            assert dq_sample(ident, z, qp) == pytest.approx(1.0)
            assert dq_sample(const, z, qp) == pytest.approx(0.0)

    def test_hand_value(self):
        # f(z) = z^5 + 1, q = 2, z = 1: (2^5 + 1 - 2)/1 = 31
        qp = QParam(2.0)
        f = lambda z: z**5 + 1
        assert dq_sample(f, 1.0, qp) == pytest.approx(31.0)

    def test_origin_rejected(self):
        with pytest.raises(OriginSingular):
            dq_sample(lambda z: z, 0.0, QParam(2.0))


class TestDqkEquivalence:
    @pytest.mark.parametrize("qval", [0.5, 2.0])
    def test_closed_form_equals_iterated_and_series(self, qval):
        qp = QParam(qval)
        for _ in range(20):
            deg = int(RNG.integers(1, 13))
            k = int(RNG.integers(1, 6))
            f = rand_poly(RNG, deg)
            s = poly_sampler(f)
            z = complex(RNG.uniform(0.3, 2.0) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            a = dqk_closed_form(s, z, qp, k)
            b = dqk_sample(s, z, qp, k)
            fs = dqk_series(f, qp, k)
            c = fs.eval(z)
            scale = max(1.0, abs(a))
            assert abs(a - b) <= 1e-9 * scale
            assert abs(a - c) <= 1e-9 * scale

    def test_k1_collapses_to_dq(self):
        qp = QParam(0.5)
        f = poly_sampler(rand_poly(RNG, 6))
        z = 0.7 - 0.2j
        assert dqk_closed_form(f, z, qp, 1) == pytest.approx(dq_sample(f, z, qp))

    def test_annihilates_low_degree(self):
        # polynomial of degree < k maps to 0
        qp = QParam(2.0)
        for k in range(2, 6):
            f = rand_poly(RNG, k - 1)
            s = poly_sampler(f)
            orbit_max = max(abs(f.eval(2.0**j)) for j in range(k + 1))
            val = dqk_closed_form(s, 1.0, qp, k)
            assert abs(val) <= 1e-10 * max(1.0, orbit_max)

    def test_series_route_matches_coefficientwise(self):
        qp = QParam(2.0)
        f = rand_poly(RNG, 10)
        k = 3
        it = f
        for _ in range(k):
            it = dq_series(it, qp)
        direct = dqk_series(f, qp, k)
        assert np.allclose(direct.coeffs, it.coeffs, rtol=1e-12, atol=1e-12)


class TestProductQuotientChainRules:
    def test_product_rule_both_variants(self):
        qp = QParam(0.5)
        for _ in range(15):
            f = rand_poly(RNG, int(RNG.integers(1, 7)))
            g = rand_poly(RNG, int(RNG.integers(1, 7)))
            sf, sg = poly_sampler(f), poly_sampler(g)
            prod = lambda z, f=f, g=g: f.eval(z) * g.eval(z)
            z = complex(RNG.uniform(0.2, 1.5) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            lhs = dq_sample(prod, z, qp)
            v1 = g.eval(qp.q * z) * dq_sample(sf, z, qp) + f.eval(z) * dq_sample(sg, z, qp)
            v2 = f.eval(qp.q * z) * dq_sample(sg, z, qp) + g.eval(z) * dq_sample(sf, z, qp)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - v1) <= 1e-10 * scale
            assert abs(lhs - v2) <= 1e-10 * scale

    def test_quotient_rule(self):
        qp = QParam(2.0)
        done = 0
        while done < 15:
            f = rand_poly(RNG, int(RNG.integers(1, 6)))
            g = rand_poly(RNG, int(RNG.integers(1, 6)))
            z = complex(RNG.uniform(0.2, 1.5) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            gz, gqz = g.eval(z), g.eval(qp.q * z)
            if min(abs(gz), abs(gqz)) < 0.05:
                continue
            quot = lambda w, f=f, g=g: f.eval(w) / g.eval(w)
            lhs = dq_sample(quot, z, qp)
            rhs = (gz * dq_sample(poly_sampler(f), z, qp)
                   - f.eval(z) * dq_sample(poly_sampler(g), z, qp)) / (gqz * gz)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            done += 1

    def test_chain_rule_two_factor(self):
        # D_q(f o g)(z) = [f(g(qz)) - f(g(z))]/[g(qz) - g(z)] * D_q g(z),
        # skipping sample points where g(qz) = g(z) degenerates the factor.
        qp = QParam(0.5)
        done = skipped = 0
        while done < 15 and skipped < 200:
            f = rand_poly(RNG, int(RNG.integers(1, 5)))
            g = rand_poly(RNG, int(RNG.integers(1, 5)))
            z = complex(RNG.uniform(0.2, 1.2) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            gz, gqz = g.eval(z), g.eval(qp.q * z)
            if abs(gqz - gz) < 1e-6:
                skipped += 1
                continue
            comp = lambda w, f=f, g=g: f.eval(g.eval(w))
            lhs = dq_sample(comp, z, qp)
            rhs = (f.eval(gqz) - f.eval(gz)) / (gqz - gz) * dq_sample(
                poly_sampler(g), z, qp)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            done += 1
        assert done == 15

    def test_inverse_rule_on_monomials(self):
        # For f(z) = z^m with principal-branch inverse y -> y^(1/m):
        # D_{q,y} f^{-1}(y) * D_{q^{1/m},z} f(z) = 1 at y = f(z).
        qp = QParam(4.0)
        for m in (1, 2, 3):
            z = 0.8
            y = z**m
            p = 4.0 ** (1.0 / m)
            lhs = ((qp.q * y) ** (1.0 / m) - y ** (1.0 / m)) / ((qp.q - 1) * y)
            dq_f = ((p * z) ** m - z**m) / ((p - 1) * z)
            assert lhs * dq_f == pytest.approx(1.0, rel=1e-10)


class TestJacksonIntegral:
    def test_constant_gives_z(self):
        qp = QParam(0.5)
        f = lambda z: 1.0 + 0j
        for z in [1.0, 2j, -0.7 + 0.4j]:
            assert jackson_integral(f, 0.0, z, qp) == pytest.approx(z)

    def test_identity_gives_z2_over_bracket2(self):
        qp = QParam(0.5)
        f = lambda z: z
        z = 1.3 - 0.4j
        expect = z**2 / q_bracket(2, qp)
        assert jackson_integral(f, 0.0, z, qp) == pytest.approx(expect)

    def test_fundamental_theorem_at_zero(self):
        # D_q(int_0^z f) = f(z) and int_0^z D_q f = f(z) - f(0)
        qp = QParam(0.5)
        for _ in range(10):
            f = rand_poly(RNG, int(RNG.integers(1, 7)))
            s = poly_sampler(f)
            z = complex(RNG.uniform(0.3, 1.5) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
            F = lambda w, s=s: jackson_integral(s, 0.0, w, qp, tol=1e-14)
            lhs = dq_sample(F, z, qp)
            assert abs(lhs - f.eval(z)) <= 1e-10 * max(1.0, abs(f.eval(z)))
            ds = lambda w, s=s: dq_sample(s, w, qp)
            val = jackson_integral(ds, 0.0, z, qp, tol=1e-14)
            assert abs(val - (f.eval(z) - f.eval(0.0))) <= 1e-10 * max(
                1.0, abs(f.eval(z)))

    def test_integration_by_parts_unit_interval(self):
        # int_0^1 f D_q g = [fg]_0^1 - int_0^1 g(qz) D_q f
        qp = QParam(0.5)
        for _ in range(10):
            f = rand_poly(RNG, int(RNG.integers(1, 6)))
            g = rand_poly(RNG, int(RNG.integers(1, 6)))
            sf, sg = poly_sampler(f), poly_sampler(g)
            left = jackson_integral(
                lambda w: f.eval(w) * dq_sample(sg, w, qp),
                0.0, 1.0, qp, tol=1e-13)
            boundary = f.eval(1.0) * g.eval(1.0) - f.eval(0.0) * g.eval(0.0)
            right = boundary - jackson_integral(
                lambda w: g.eval(qp.q * w) * dq_sample(sf, w, qp),
                0.0, 1.0, qp, tol=1e-13)
            assert abs(left - right) <= 1e-8 * max(1.0, abs(left))

    def test_rejects_outer_regime(self):
        with pytest.raises(DomainError):
            jackson_integral(lambda z: 1.0, 0.0, 1.0, QParam(2.0))

    def test_rejects_growing_orbit(self):
        qp = QParam(0.5)
        wild = lambda z: 1.0 / (abs(z) ** 8 + 1e-30)
        with pytest.raises(NonconvergentSample):
            jackson_integral(wild, 0.0, 1.0, qp)

    @pytest.mark.parametrize("j", [0, 3])
    def test_sample_modulus_past_double_range_is_typed(self, j):
        # abs(1.5e308 + 1.5e308j) raises OverflowError; the first sample
        # and a later one are refused alike
        qp = QParam(0.5)
        huge = complex(1.5e308, 1.5e308)
        orbit = [qp.q ** i for i in range(j + 1)]
        f = lambda z: huge if z == orbit[j] else 1.0 + 0j
        with pytest.raises(NonconvergentSample, match="double range"):
            jackson_integral(f, 0.0, 1.0, qp)


class TestCasorati:
    def test_dependent_pair_vanishes(self):
        qp = QParam(0.5)
        f = rand_poly(RNG, 4)
        g = 2.5j * f
        det = casorati(CasoratiPair(f, g, qp))
        assert np.max(np.abs(det.coeffs)) <= 1e-13

    def test_one_and_z(self):
        qp = QParam(0.5)
        with pytest.raises(DomainError):
            # constants are rejected as Casorati operands
            CasoratiPair(TruncatedSeries.from_polynomial([1.0], order=3),
                         TruncatedSeries.from_polynomial([0, 1]), qp)
        # nearby nonconstant check: f1 = 1 + 0*z is constant too; use
        # plain callables
        s1 = lambda z: 1.0 + 0j
        s2 = lambda z: z
        det = casorati(CasoratiPair(s1, s2, qp))
        assert det(0.7 + 0.2j) == pytest.approx(1.0)

    def test_sampler_vs_series_agree(self):
        # pad the polynomials so the min-order truncation rule keeps the
        # full degree-(5+3) determinant
        qp = QParam(2.0)
        f = TruncatedSeries.from_polynomial(rand_poly(RNG, 5).coeffs, order=16)
        g = TruncatedSeries.from_polynomial(rand_poly(RNG, 4).coeffs, order=16)
        det_series = casorati(CasoratiPair(f, g, qp))
        det_sampler = casorati(CasoratiPair(poly_sampler(f), poly_sampler(g), qp))
        for z in [0.5, -0.3 + 0.8j]:
            assert det_sampler(z) == pytest.approx(det_series.eval(z), rel=1e-10)


class TestKernelCheck:
    def test_constants_in_kernel(self):
        qp = QParam(2.0)
        f = TruncatedSeries.from_polynomial([7.7], order=8)
        assert kernel_check(f, qp)

    def test_z_not_in_kernel(self):
        qp = QParam(2.0)
        assert not kernel_check(TruncatedSeries.from_polynomial([0, 1]), qp)


def test_a_series_refuses_by_its_own_radius_rule():
    # one rule, TruncatedSeries.eval's: a point past R by less than the
    # 1e-12 margin still evaluates, in a Casorati determinant with a
    # plain-callable operand too, and one whose orbit leaves it raises
    qp = QParam(2.0)
    f = etilde_q(qp, 48)
    R = f.safe_radius
    assert series_sampler(f) is f
    det = casorati(CasoratiPair(f, lambda z: z, qp))
    z = R * (1 + 5e-13)
    assert cmath.isfinite(det(z / 2))
    with pytest.raises(OutsideSafeRadius):
        det(z)


# The six q regimes; "root of unity" is (1 + eps) e^{2 pi i j / m}, just
# off the unit circle next to an m-th root of unity other than 1.
Q_REGIMES = ("0 < q < 1", "q > 1", "q < 0", "complex |q| < 1",
             "complex |q| > 1", "root of unity")


@st.composite
def bases(draw):
    regime = draw(st.sampled_from(Q_REGIMES))
    inside = draw(st.floats(0.2, 0.9))
    outside = draw(st.floats(1.1, 4.0))
    angle = draw(st.floats(0.05, math.pi - 0.05)) * draw(
        st.sampled_from((1, -1)))
    if regime == "0 < q < 1":
        return inside
    if regime == "q > 1":
        return outside
    if regime == "q < 0":
        return -draw(st.sampled_from((inside, outside)))
    if regime == "root of unity":
        m = draw(st.integers(3, 8))
        eps = draw(st.floats(1e-4, 1e-2)) * draw(st.sampled_from((1, -1)))
        return (1.0 + eps) * cmath.exp(2j * math.pi * draw(
            st.integers(1, m - 1)) / m)
    modulus = inside if regime == "complex |q| < 1" else outside
    return modulus * cmath.exp(1j * angle)


def one_point_function(fseed: int, kind: str):
    """A seeded polynomial series (Python complex values) or a numpy
    exponential (np.complex128 values)."""
    rng = np.random.default_rng(fseed)
    if kind == "series":
        deg = int(rng.integers(0, 11))
        return rand_poly(rng, deg).eval
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return lambda w: np.exp(a * w) + b * w


def nested_dqk_sample(f, z, qp: QParam, k: int):
    """D_q^k as k nested divided differences, 2^k samples of f."""
    if k == 0:
        return f(z)
    if k == 1:
        if z == 0:
            raise OriginSingular("D_q at the origin is defined only on series")
        q = qp.q
        return (f(q * z) - f(z)) / ((q - 1.0) * z)
    return nested_dqk_sample(
        lambda w: nested_dqk_sample(f, w, qp, k - 1), z, qp, 1)


def within(fn, radius):
    """fn refusing, as a series does past its radius, a point with
    |w| > radius (no refusal when radius is None)."""
    def call(w):
        if radius is not None and np.abs(w) > radius:
            raise OutsideSafeRadius(f"|w| = {np.abs(w):g} past {radius:g}")
        return fn(w)
    return call


def bits(w) -> list:
    return np.array([w], dtype=np.complex128).view(np.uint64).tolist()


def counted(fn):
    calls = []

    def one_point(w):
        calls.append(w)
        return fn(w)
    return one_point, calls


class TestDqkSampleOrbitTable:
    """dqk_sample runs one divided-difference table over the orbit q^m z.
    It must return what k nested divided differences return, bit for
    bit, raise what they raise, and call f once per orbit point."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(q=bases(), z_log=st.floats(-1.0, 1.0),
           z_arg=st.floats(0.0, 2 * math.pi), k=st.integers(0, 6),
           fseed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("series", "numpy")),
           radius=st.none() | st.floats(0.5, 50.0))
    @example(q=0.5, z_log=0.3, z_arg=1.0, k=6, fseed=1, kind="series",
             radius=None)
    @example(q=2.5, z_log=-0.7, z_arg=4.0, k=5, fseed=2, kind="numpy",
             radius=None)
    @example(q=-0.7, z_log=0.0, z_arg=2.0, k=6, fseed=3, kind="series",
             radius=20.0)
    @example(q=0.6 * cmath.exp(2.2j), z_log=0.5, z_arg=0.1, k=4, fseed=4,
             kind="numpy", radius=None)
    @example(q=1.7 * cmath.exp(-0.4j), z_log=-0.2, z_arg=5.5, k=3, fseed=5,
             kind="series", radius=4.0)
    @example(q=1.001 * cmath.exp(2j * math.pi / 3), z_log=0.2, z_arg=0.7,
             k=6, fseed=6, kind="series", radius=None)
    def test_bit_for_bit_with_nested_divided_differences(
            self, q, z_log, z_arg, k, fseed, kind, radius):
        qp = QParam(q)
        z = 10.0 ** z_log * cmath.exp(1j * z_arg)
        fn, calls = counted(one_point_function(fseed, kind))
        f = within(fn, radius)
        try:
            want = nested_dqk_sample(f, z, qp, k)
        except OutsideSafeRadius:
            with pytest.raises(OutsideSafeRadius):
                dqk_sample(f, z, qp, k)
            return
        calls.clear()
        got = dqk_sample(f, z, qp, k)
        assert bits(got) == bits(want)
        assert type(got) is type(want)
        assert len(calls) == k + 1

    def test_dq_sample_is_the_first_order_table(self):
        qp = QParam(0.3 - 1.1j)
        f, calls = counted(one_point_function(11, "series"))
        z = 0.8 + 0.4j
        assert bits(dq_sample(f, z, qp)) == bits(nested_dqk_sample(f, z, qp, 1))
        assert calls[-2:] == [qp.q * z, z]

    def test_orbit_underflow_to_origin_raises(self):
        # z q^3 underflows to exactly 0 (1e-300 * 1e-30 past the
        # subnormals); that point must still be differenced at k = 4
        qp = QParam(1e-10)
        f, calls = counted(lambda w: w * w)
        for k in (4, 6):
            with pytest.raises(OriginSingular):
                dqk_sample(f, 1e-300, qp, k)
            with pytest.raises(OriginSingular):
                nested_dqk_sample(f, 1e-300, qp, k)
        assert calls == []
        # at k = 3 the zero point is only sampled, never a divisor
        assert bits(dqk_sample(f, 1e-300, qp, 3)) == bits(
            nested_dqk_sample(f, 1e-300, qp, 3))

    def test_orbit_leaving_domain_raises(self):
        # q^m z = 2^m: the point 16 leaves the radius 10 at k = 4
        qp = QParam(2.0)
        f = within(lambda w: w ** 3, 10.0)
        assert dqk_sample(f, 1.0, qp, 3) == nested_dqk_sample(f, 1.0, qp, 3)
        for k in (4, 6):
            with pytest.raises(OutsideSafeRadius):
                dqk_sample(f, 1.0, qp, k)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            dqk_sample(lambda w: w, 1.0, QParam(2.0), -1)
