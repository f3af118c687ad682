"""log|f| of the lattice products against a 40-digit product.

LatticeProduct.log_abs takes each point's factors log|1 - t_n| down to
its first |t_n| below qspecial._TAIL_FROM = delta and sums the rest of
its lattice in closed form, -Re sum_{k<=K} c_k t^k with c_k =
1/(k (1 - rho^k)). On circles and on scattered points with moduli from
1e-3 to 1e12, in every q regime of test_lattice_arrays and at |q| = 1.03
and 0.97, it must match the whole product, multiplied out at 40 digits
from the same double z and q, to 1e-13 max(1, |log|f||). At |t| = delta
the K-term sum must be within 2^-60 of the full tail, the bound the
kernel's docstring states, and K must be the least count its rule
allows.
"""

import cmath
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.qcore import QParam
from jacksonq.qspecial import (
    _TAIL_FROM,
    BigEProduct,
    EtildeProduct,
    _log_abs_tail,
    _tail_coeffs,
)
from test_lattice_arrays import REGIME_PRODUCTS, circle, lattice_products

DIGITS = 40
NEAR_ONE = [EtildeProduct(QParam(1.03)), BigEProduct(QParam(0.97))]


def lattice_log_abs(q: complex, t: complex) -> mpmath.mpf:
    """sum_{n>=0} log|1 - t rho^n| at DIGITS digits, rho = 1/q if |q| > 1,
    else q, as the log of the product multiplied out down to |t_n| <
    10^-(DIGITS + 5), where the dropped factors are within 10^-DIGITS of
    1 for every |q| used here."""
    with mpmath.workdps(DIGITS + 10):
        q = mpmath.mpc(q)
        rho = 1 / q if abs(q) > 1 else q
        t, prod = mpmath.mpc(t), mpmath.mpc(1)
        stop = mpmath.mpf(10) ** -(DIGITS + 5)
        while abs(t) >= stop:
            prod *= 1 - t
            t *= rho
        return mpmath.log(abs(prod))


def product_log_abs(prod, z: complex) -> float:
    """log|f(z)| at DIGITS digits from the exact double z and q: E~_q
    has its lattice base z_0 = q, E_q has z_0 = -1."""
    q = prod.qp.q
    with mpmath.workdps(DIGITS + 10):
        z0 = mpmath.mpc(q) if isinstance(prod, EtildeProduct) else -1
        return lattice_log_abs(q, mpmath.mpc(z) / z0)


def spread(r: float, size: int) -> np.ndarray:
    """size points with moduli log-uniform on 1e-3 .. 1e12 and spread
    angles, seeded by r."""
    rng = np.random.default_rng(int(1e6 * math.log10(r) + 3e6))
    return (10.0 ** rng.uniform(-3.0, 12.0, size)
            * np.exp(2j * np.pi * rng.uniform(size=size)))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(prod=lattice_products(),
       r=st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e),
       scatter=st.booleans())
# one pinned example per regime of REGIMES, in its order, then |q| near 1
@example(prod=REGIME_PRODUCTS[0], r=1e12, scatter=False)
@example(prod=REGIME_PRODUCTS[1], r=37.0, scatter=True)
@example(prod=REGIME_PRODUCTS[2], r=1e-3, scatter=False)
@example(prod=REGIME_PRODUCTS[3], r=1e4, scatter=True)
@example(prod=REGIME_PRODUCTS[4], r=2.5e7, scatter=False)
@example(prod=REGIME_PRODUCTS[5], r=0.3, scatter=True)
# (at |q| near 1 a point's 40-digit product takes thousands of factors)
@example(prod=NEAR_ONE[0], r=1e9, scatter=False)
@example(prod=NEAR_ONE[1], r=1e-3, scatter=True)
def test_log_abs_matches_a_40_digit_product(prod, r, scatter):
    zs = spread(r, 8) if scatter else circle(r, 8)
    got = prod.log_abs(zs)
    for z, value in zip(zs, got):
        want = product_log_abs(prod, complex(z))
        err = abs(mpmath.mpf(float(value)) - want)
        assert err <= 1e-13 * max(1.0, abs(float(want))), (prod.qp.q, z)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(prod=lattice_products(), angle=st.floats(0.0, 2.0 * math.pi))
@example(prod=REGIME_PRODUCTS[0], angle=0.0)
@example(prod=REGIME_PRODUCTS[1], angle=math.pi)
@example(prod=REGIME_PRODUCTS[2], angle=0.0)
@example(prod=REGIME_PRODUCTS[3], angle=math.pi)
@example(prod=REGIME_PRODUCTS[4], angle=1.0)
@example(prod=REGIME_PRODUCTS[5], angle=4.0)
@example(prod=NEAR_ONE[0], angle=0.0)
@example(prod=NEAR_ONE[1], angle=0.0)
def test_tail_is_within_its_remainder_bound(prod, angle):
    q = prod.qp.q
    rho = 1.0 / q if abs(q) > 1.0 else q
    coeffs = _tail_coeffs(q)
    K = len(coeffs)

    # K is the least count whose remainder bound is at most 2^-60
    def bound(k):
        return (_TAIL_FROM ** (k + 1)
                / ((k + 1) * (1.0 - abs(rho)) * (1.0 - _TAIL_FROM)))
    assert bound(K) <= 2.0 ** -60 and (K == 1 or bound(K - 1) > 2.0 ** -60)

    t = _TAIL_FROM * cmath.exp(1j * angle)
    full = lattice_log_abs(q, t)
    with mpmath.workdps(DIGITS + 10):
        # the K terms in exact arithmetic, rho = 1/q or q unrounded
        mq, mt = mpmath.mpc(q), mpmath.mpc(t)
        mrho = 1 / mq if abs(q) > 1.0 else mq
        terms = -mpmath.re(mpmath.fsum(
            mt ** k / (k * (1 - mrho ** k)) for k in range(1, K + 1)))
        assert abs(terms - full) <= mpmath.mpf(2) ** -60
        # the double Horner on the kernel's coefficients rounds by a few
        # ulp of its terms
        exact = -mpmath.re(mpmath.fsum(
            mpmath.mpc(c) * mt ** (K - i) for i, c in enumerate(coeffs)))
        size = sum(abs(c) * _TAIL_FROM ** (K - i)
                   for i, c in enumerate(coeffs))
        got = -_log_abs_tail(np.array([t]), coeffs)[0]
        assert abs(mpmath.mpf(float(got)) - exact) <= (
            8 * np.finfo(float).eps * size)
