"""LatticeProduct: the entire f with f(qz) = R(z) f(z) and f(0) = 1.

product_solution(P, qp) is the LatticeProduct of R = 1/(1 + (1-q) z P(z)),
the solution of D_q f = P(z) f(qz) for |q| < 1. It must match the series
solution of the same equation inside the series' certified radius and
have its zeros on the lattices over the roots of 1 + (1-q) z P(z); its
shift ratio's exact logderiv route is tested in test_shift_ratio.py. A
root of multiplicity m counts its lattice m times, and R = 1 gives
f = 1. A shift ratio that is not 1 at the origin, or that would give f
poles, is refused with a typed error.
"""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import DomainError, RegimeMismatch
from jacksonq.qcore import QParam
from jacksonq.qode import RationalFunction, solve_shifted_series
from jacksonq.qspecial import (
    _BIG_E_RATIO,
    _ETILDE_RATIO,
    BigEProduct,
    EtildeProduct,
    LatticeProduct,
    product_solution,
)

# real sign, or None for complex q; |q| keeps inside 0.25 .. 0.85
REGIMES = {"0 < q < 1": 1.0, "-1 < q < 0": -1.0, "complex |q| < 1": None}


@st.composite
def bases(draw):
    sign = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    modulus = draw(st.floats(0.25, 0.85))
    if sign is None:
        angle = draw(st.floats(0.05, math.pi - 0.05))
        return modulus * cmath.exp(1j * angle * draw(st.sampled_from((1, -1))))
    return sign * modulus


parts = st.floats(-2.0, 2.0)
coefficients = st.builds(complex, parts, parts)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(q=bases(), P=st.lists(coefficients, min_size=1, max_size=3),
       frac=st.floats(0.01, 1.0), phase=st.floats(0.0, 2.0 * math.pi))
@example(q=0.5, P=[1.0, -0.3 + 0.2j, 0.7], frac=0.8, phase=0.3)
@example(q=-0.6, P=[2.0 - 1.0j, 1.5j], frac=0.5, phase=1.1)
@example(q=0.3 + 0.4j, P=[-1.2], frac=1.0, phase=2.0)
def test_product_solution_matches_the_series(q, P, frac, phase):
    qp = QParam(q)
    prod = product_solution(P, qp)
    series = solve_shifted_series(1, RationalFunction([-p for p in P]), qp,
                                  (1.0,), 300)
    r = frac * min(series.safe_radius, 1e3)
    zs = r * np.exp(1j * (phase + np.linspace(0.0, 2.0 * np.pi, 6,
                                              endpoint=False)))
    # the rounding scale of the partial sum: sum_n |c_n| |z|^n
    scale = np.polyval(np.abs(series.coeffs)[::-1], r)
    assert np.all(np.abs(prod.eval(zs) - series.eval(zs)) <= 1e-12 * scale)


@pytest.mark.parametrize("q, P", [(0.5, [1.0, -0.3, 0.2]),
                                  (-0.6, [2.0, 1j]),
                                  (0.3 + 0.4j, [0.5, 0.0, 1.0])])
def test_zeros_are_the_lattices_over_the_roots(q, P):
    qp = QParam(q)
    radius = 1e4
    den = np.append(1.0, (1.0 - qp.q) * np.asarray(P, dtype=complex))
    want = sorted((b / qp.q ** n for b in np.roots(den[::-1])
                   for n in range(200) if abs(b / qp.q ** n) <= radius),
                  key=abs)
    got = sorted(product_solution(P, qp).zeros_up_to(radius),
                 key=lambda zm: abs(zm[0]))
    assert [m for _, m in got] == [1] * len(want)
    assert np.allclose([z for z, _ in got], want, rtol=1e-12, atol=0.0)


def test_multiple_root_and_unit_ratio():
    qp = QParam(0.5)
    single = LatticeProduct(RationalFunction([1.0], [1.0, 0.5]), qp)
    double = LatticeProduct(RationalFunction([1.0], [1.0, 1.0, 0.25]), qp)
    zs = np.array([0.7, -3.0 + 1.0j, 40.0j])
    assert double.eval(zs) == pytest.approx(single.eval(zs) ** 2, rel=1e-14)
    assert double.log_abs(zs) == pytest.approx(2.0 * single.log_abs(zs),
                                               rel=1e-14)
    zeros, want = double.zeros_up_to(20.0), single.zeros_up_to(20.0)
    assert [m for _, m in zeros] == [2] * len(want) == [2] * 4
    assert np.allclose([z for z, _ in zeros], [z for z, _ in want],
                       rtol=1e-12, atol=0.0)
    one = product_solution([0.0], qp)  # D_q f = 0: f = 1
    assert one.zeros_up_to(1e9) == []
    assert one.eval(3.0) == 1.0 and np.all(one.eval(zs) == 1.0)
    assert np.all(one.log_abs(zs) == 0.0) and one.log_eval(3.0) == 0.0


@pytest.mark.parametrize("product", [BigEProduct(QParam(1 - 1e-7)),
                                     EtildeProduct(QParam(1 + 1e-7))],
                         ids=["E_q", "etilde_q"])
@pytest.mark.parametrize("reduce, z", [
    ("eval", 1.0), ("log_eval", 1.0), ("eval", np.array([1.0, 2.0j])),
    ("log_abs", 10.0 * np.exp(2j * np.pi * np.arange(512) / 512))])
def test_q_near_one_refuses_before_the_first_step(product, reduce, z):
    # |t_0| = 1 needs about 4.8e8 factors to reach the cutoff 1e-21: the
    # kernel refuses on the factor budget of q_pochhammer_inf instead
    t = time.perf_counter()
    with pytest.raises(DomainError, match="more than 100000 factors"):
        getattr(product, reduce)(z)
    assert time.perf_counter() - t < 1.0


def test_typed_refusals():
    with pytest.raises(DomainError):  # |q| = 1: no QParam to build on
        LatticeProduct(_ETILDE_RATIO, QParam(1.0))
    with pytest.raises(DomainError):  # R(0) = 2
        LatticeProduct(RationalFunction([2.0, -1.0]), QParam(2.0))
    with pytest.raises(DomainError):  # 1/(1 + z) at |q| > 1: poles at -q^n
        LatticeProduct(_BIG_E_RATIO, QParam(2.0))
    with pytest.raises(DomainError):  # 1 - z at |q| < 1: poles at q^-n
        LatticeProduct(_ETILDE_RATIO, QParam(0.5))
    with pytest.raises(RegimeMismatch):
        product_solution([1.0], QParam(-1.5))
