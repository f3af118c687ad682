"""A series sampled on its whole q-orbit in one array call.

dqk_sample (and so dq_sample), dqk_closed_form and jackson_integral read
a TruncatedSeries on its orbit in one eval call, and any other callable
one point at a time. Both routes must give the same bits, and for
jackson_integral the bits of the plain loop over the orbit (jackson_loop
below). A failing point must raise the same error on both: an orbit
leaving the certified radius raises OutsideSafeRadius, and a growing
integrand raises NonconvergentSample, even where the batch also holds
later points past the radius or past double range. verify_pointwise,
which reads its series through dqk_closed_form, follows.

The draws cover the six q regimes of test_lattice_arrays, k <= 5,
polynomials (infinite radius, some with exact-zero top coefficients) and
decaying series with a finite radius. Each regime keeps one pinned
example, which runs in every collection of the tests, whatever examples
hypothesis draws there.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import NonconvergentSample, OutsideSafeRadius
from jacksonq.qcore import QParam, TruncatedSeries
from jacksonq.qode import QdeProblem, RationalFunction, verify_pointwise
from jacksonq.qoperator import dqk_closed_form, dqk_sample, jackson_integral

# (|q| range, real sign or None for complex q), as in test_lattice_arrays
REGIMES = {
    "q > 1": ((1.2, 4.0), 1.0),
    "q < -1": ((1.2, 4.0), -1.0),
    "0 < q < 1": ((0.25, 0.85), 1.0),
    "-1 < q < 0": ((0.25, 0.85), -1.0),
    "complex |q| > 1": ((1.2, 4.0), None),
    "complex |q| < 1": ((0.25, 0.85), None),
}


@dataclass(frozen=True)
class Case:
    q: complex
    f: TruncatedSeries
    z: complex
    a: complex
    k: int


def make_case(regime: str, t: float, angle: float, finite: bool, deg: int,
              pad: int, seed: int, z: complex, a: complex, k: int) -> Case:
    """|q| at fraction t of the regime's range; a polynomial of degree
    deg zero-padded by pad, or, when finite, a series whose coefficients
    have modulus 0.25^n (certified radius near 1.95)."""
    (lo, hi), sign = REGIMES[regime]
    modulus = lo + t * (hi - lo)
    q = modulus * cmath.exp(1j * angle) if sign is None else sign * modulus
    rng = np.random.default_rng(seed)
    if finite:
        phase = np.exp(2j * np.pi * rng.random(40))
        f = TruncatedSeries(phase * 0.25 ** np.arange(40))
    else:
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = TruncatedSeries.from_polynomial(c, deg + pad)
    return Case(q, f, z, a, k)


@st.composite
def cases(draw):
    angle = draw(st.floats(0.05, math.pi - 0.05)) * draw(
        st.sampled_from((1, -1)))
    z = draw(st.floats(0.05, 3.0)) * cmath.exp(1j * draw(
        st.floats(0.0, 2.0 * math.pi)))
    a = draw(st.sampled_from((0.0, 0.4 - 0.3j, 2.5j)))
    return make_case(draw(st.sampled_from(sorted(REGIMES))),
                     draw(st.floats(0.0, 1.0)), angle, draw(st.booleans()),
                     draw(st.integers(0, 12)), draw(st.integers(0, 3)),
                     draw(st.integers(0, 2**32 - 1)), z, a,
                     draw(st.integers(0, 5)))


def outcome(fn, *args):
    """A result as its bits, or the error it raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc), str(exc)
    return np.asarray(got, dtype=np.complex128).tobytes()


def one_point(f):
    return lambda z: f.eval(z)


def jackson_loop(f, a, z, qp, tol):
    """jackson_integral as one loop calling f at each orbit point in turn
    (|q| < 1 and z != a): the reference for its points, sums and errors."""
    q = qp.q
    qj = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    sup = 0.0
    first = None
    for j in range(100000):
        val = f(a + qj * (z - a))
        av = abs(val)
        if first is None:
            first = max(av, 1.0)
        if j < 200:
            sup = max(sup, av)
            if av > 1e12 * first:
                raise NonconvergentSample(
                    "samples grow along the integration orbit")
        acc += qj * val
        qj *= q
        if j >= 1 and abs(qj) * max(sup, 1.0) < tol:
            break
    return (z - a) * (1.0 - q) * acc


def routes_agree(fn, f, *args):
    got = outcome(fn, f, *args)
    assert got == outcome(fn, one_point(f), *args)
    return got


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=cases())
@example(case=make_case("q > 1", 0.3, 0.0, True, 0, 0, 1, 0.9 + 0.2j,
                        0.0, 5))
@example(case=make_case("q < -1", 0.6, 0.0, False, 9, 3, 2, -1.1j, 2.5j, 4))
@example(case=make_case("0 < q < 1", 0.5, 0.0, True, 0, 0, 3, 1.2 - 0.4j,
                        0.4 - 0.3j, 3))
@example(case=make_case("-1 < q < 0", 0.9, 0.0, False, 12, 0, 4, 2.7,
                        0.0, 2))
@example(case=make_case("complex |q| > 1", 0.1, 2.0, True, 0, 0, 5, 0.3j,
                        2.5j, 1))
@example(case=make_case("complex |q| < 1", 0.7, -1.0, False, 5, 2, 6,
                        -0.8 + 0.8j, 0.4 - 0.3j, 5))
def test_orbit_call_matches_one_point_route(case):
    qp = QParam(case.q)
    f, z, k = case.f, case.z, case.k
    routes_agree(dqk_sample, f, z, qp, k)
    if k >= 1:
        routes_agree(dqk_closed_form, f, z, qp, k)
        prob = QdeProblem(k, RationalFunction([0.3, -0.2j]),
                          RationalFunction([1.0 + 0.5j]), qp, (1.0,) * k)
        routes_agree(lambda g: verify_pointwise(prob, g, [z, 0.5 * z]), f)
    inner = qp if abs(case.q) < 1.0 else qp.inverse()
    for a in (0.0, case.a):
        got = routes_agree(jackson_integral, f, a, z, inner, 1e-13)
        assert got == outcome(jackson_loop, one_point(f), a, z, inner, 1e-13)


def test_orbit_past_the_radius_raises_on_both_routes():
    case = make_case("q > 1", 0.5, 0.0, True, 0, 0, 7, 0.5, 0.0, 5)
    assert case.f.safe_radius < 2.0
    got = routes_agree(dqk_sample, case.f, case.z, QParam(case.q), 5)
    assert got[0] is OutsideSafeRadius
    got = routes_agree(dqk_closed_form, case.f, case.z, QParam(case.q), 5)
    assert got[0] is OutsideSafeRadius


def test_growth_raises_before_the_point_past_the_radius():
    # f = 1e13 (w - 0.2) + sum 0.25^n w^n: |f(z)| is about 1 and passes
    # 1e12 at the second orbit point, while the orbit runs on towards
    # a = 2.5, past the radius (about 1.98): the batch fails on radius,
    # the loop on growth first
    c = 0.25 ** np.arange(41.0)
    c[:2] += [-2e12, 1e13]
    f = TruncatedSeries(c)
    assert 1.5 < f.safe_radius < 2.0
    with pytest.raises(OutsideSafeRadius):
        f.eval(np.array([0.2, 2.5]))
    got = routes_agree(jackson_integral, f, 2.5, 0.2, QParam(0.5))
    assert got[0] is NonconvergentSample
    assert got == outcome(jackson_loop, f, 2.5, 0.2, QParam(0.5), 1e-12)


def test_growth_raises_before_the_point_past_double_range():
    # |f| = 1e300 |w|^5 passes 1e12 at the second orbit point (w = 30,
    # |f| = 2.4e307) and overflows from the third on (w = 45)
    f = TruncatedSeries.from_polynomial([0, 0, 0, 0, 0, 1e300])
    with pytest.raises(RuntimeWarning):
        f.eval(np.array([45.0]))
    got = routes_agree(jackson_integral, f, 60.0, 0.0, QParam(0.5))
    assert got[0] is NonconvergentSample


def test_other_callables_are_called_in_orbit_order():
    seen = []

    def f(w):
        seen.append(w)
        return 1.0 + 0.0j
    qp = QParam(2.0)
    dqk_sample(f, 0.5, qp, 3)
    assert seen == [4.0, 2.0, 1.0, 0.5]
    seen.clear()
    dqk_closed_form(f, 0.5, qp, 3)
    assert seen == [4.0, 2.0, 1.0, 0.5]
    seen.clear()
    jackson_integral(f, 0.0, 1.0, qp.inverse(), 1e-3)
    assert seen == [0.5 ** j for j in range(len(seen))]
    assert len(seen) == 10
