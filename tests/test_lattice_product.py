"""LatticeProduct: the entire f with f(qz) = R(z) f(z) and f(0) = 1.

product_solution(P, qp) is the LatticeProduct of R = 1/(1 + (1-q) z P(z)),
the solution of D_q f = P(z) f(qz) for |q| < 1. It must match the series
solution of the same equation inside the series' certified radius and
have its zeros on the lattices over the roots of 1 + (1-q) z P(z); its
shift ratio's exact logderiv route is tested in test_shift_ratio.py. A
root of multiplicity m counts its lattice m times, and R = 1 gives
f = 1. A shift ratio that is not 1 at the origin, or that would give f
poles, is refused with a typed error, and so is a point with finite
parts whose |z/z_0| passes double range, on arrays as on one point, a
point that is not finite, or a tol that is not finite and positive (as
q_pochhammer_inf refuses it).
"""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import DomainError, RegimeMismatch
from jacksonq.nevanlinna import MeroModel, counting_N
from jacksonq.qcore import QParam
from jacksonq.qode import RationalFunction, solve_shifted_series
from jacksonq.qspecial import (
    _BIG_E_RATIO,
    _ETILDE_RATIO,
    BigEProduct,
    EtildeProduct,
    LatticeProduct,
    product_solution,
    q_pochhammer_inf,
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
    ("log_abs", 10.0 * np.exp(2j * np.pi * np.arange(512) / 512)),
    ("zeros_up_to", 1e4), ("counting_N", 1e4)])
def test_q_near_one_refuses_before_the_first_step(product, reduce, z):
    # |t_0| = 1 needs about 4.8e8 factors to reach the cutoff 1e-21, and
    # the zero walk to 1e4 about 9.2e7: both refuse on the factor budget
    # of every lattice walk instead (counting_N reads the zero walk)
    run = ((lambda r: counting_N(MeroModel.from_product(product), r))
           if reduce == "counting_N" else getattr(product, reduce))
    t = time.perf_counter()
    with pytest.raises(DomainError, match="more than 100000 factors"):
        run(z)
    assert time.perf_counter() - t < 1.0


def test_zero_walk_inside_the_budget():
    # 92099 steps out to 1e4 at |q| = 1 - 1e-4: under the budget of 100000
    assert len(BigEProduct(QParam(1 - 1e-4)).zeros_up_to(1e4)) == 92099


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


@pytest.mark.parametrize("reduce", ["log_abs", "eval", "log_eval"])
def test_array_point_past_double_range_is_refused(reduce):
    # both parts finite, |t_0| = |z/z_0| past double range: the first
    # factor's log|1 - t_0| would read inf, so the array path refuses the
    # point as the one-point path does
    zs = np.array([1.5e308 + 1.5e308j, 1e308])
    product = BigEProduct(QParam(0.5))  # z_0 = -1
    with pytest.raises(DomainError, match="past double range"):
        getattr(product, reduce)(zs)
    if reduce != "log_abs":  # log_abs takes one point as an array
        with pytest.raises(DomainError, match="past double range"):
            getattr(product, reduce)(complex(zs[0]))


def test_nan_point_in_an_array_is_refused():
    # NaN fails the kernel's live test |t| >= cutoff: unchecked, the point
    # would take no factor and read log|f| = 0 beside its neighbours
    with pytest.raises(DomainError, match="not finite"):
        BigEProduct(QParam(0.5)).log_abs(np.array([complex(math.nan, 1), 2.0]))


def test_array_point_in_range_after_z0_keeps_its_value():
    # etilde_q at q = 2 has z_0 = 2, so |t_0| = |z|/2 is in range there
    got = EtildeProduct(QParam(2.0)).log_abs(
        np.array([1.5e308 + 1.5e308j, 1e308]))
    assert [float(x).hex() for x in got] == ["0x1.62b56e990aff7p+18",
                                             "0x1.61f443a68bac2p+18"]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-14])
def test_tol_not_finite_and_positive_is_refused(tol):
    # a NaN or infinite tol would stop every lattice before its first
    # factor (Etilde_2(5) would read 1), and tol <= 0 would never stop it
    message = rf"^tol = {tol:g} is not finite and positive$"
    for build in (lambda: LatticeProduct(RationalFunction([1, -1]),
                                         QParam(2), tol=tol),
                  lambda: EtildeProduct(QParam(2), tol),
                  lambda: BigEProduct(QParam(0.5), tol),
                  lambda: q_pochhammer_inf(0.5, QParam(0.5), tol=tol)):
        with pytest.raises(DomainError, match=message):
            build()
    assert LatticeProduct(RationalFunction([1, -1]), QParam(2)).eval(5.0) \
        == pytest.approx(0.0694768113913, rel=1e-12)
    assert q_pochhammer_inf(0.5, QParam(0.5)) \
        == pytest.approx(0.288788095086602, rel=1e-12)
