"""D_q^k f / f in closed form from the shift ratio.

EtildeProduct, BigEProduct and product_solution satisfy
f(qz) = R(z) f(z) with a rational shift ratio R, so D_q^k f / f is a
rational function (dqk_quotient). A q_product model that carries R
takes that exact route in logderiv_lemma_check when the operator has
the product's own base; it must agree with the pointwise orbit sum
dqk_closed_form(s, z) / s(z). A rational f = P/Q with f(0) not in
{0, infinity} takes the same route at any base, with
R = P(qz) Q(z) / (P(z) Q(qz)); it must agree with D_q^k f times 1/f.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jacksonq.nevanlinna as nevanlinna
from jacksonq.errors import DomainError
from jacksonq.nevanlinna import (
    MeroModel,
    RadialGrid,
    RationalModel,
    logderiv_lemma_check,
    proximity,
)
from jacksonq.qcore import QParam
from jacksonq.qode import RationalFunction, dqk_quotient, dqk_rational
from jacksonq.qoperator import dqk_closed_form
from jacksonq.qspecial import BigEProduct, EtildeProduct, product_solution

# (|q| range, real sign or None for complex q)
REGIMES = {
    "q > 1": ((1.2, 4.0), 1.0),
    "q < -1": ((1.2, 4.0), -1.0),
    "0 < q < 1": ((0.25, 0.85), 1.0),
    "-1 < q < 0": ((0.25, 0.85), -1.0),
    "complex |q| > 1": ((1.2, 4.0), None),
    "complex |q| < 1": ((0.25, 0.85), None),
}


@st.composite
def bases(draw):
    (lo, hi), sign = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    modulus = draw(st.floats(lo, hi))
    if sign is None:
        angle = draw(st.floats(0.05, math.pi - 0.05))
        return modulus * cmath.exp(1j * angle * draw(st.sampled_from((1, -1))))
    return sign * modulus


def lattice_products():
    return bases().map(lambda q: EtildeProduct(QParam(q)) if abs(q) > 1.0
                       else BigEProduct(QParam(q)))


def between_lattice(prod, n: int) -> float:
    """Geometric midpoint of the n-th and (n+1)-th lattice moduli."""
    step = max(abs(prod.qp.q), 1.0 / abs(prod.qp.q))
    moduli = [abs(z) for z, _ in prod.zeros_up_to(step ** (n + 3))]
    return math.sqrt(moduli[n] * moduli[n + 1])


def product_model(prod, with_ratio: bool = True) -> MeroModel:
    return MeroModel.from_q_product(
        prod.zeros_up_to, prod.log_eval, eval_fn=prod.eval, qp=prod.qp,
        shift_ratio=prod.shift_ratio if with_ratio else None)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(prod=lattice_products(), n=st.integers(0, 10), k=st.integers(1, 3),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_exact_quotient_matches_orbit_sum(prod, n, k, phase):
    r = between_lattice(prod, n)
    zs = r * np.exp(1j * (phase + np.linspace(0.0, 2.0 * np.pi, 6,
                                              endpoint=False)))
    ratio = dqk_quotient(prod.shift_ratio, prod.qp, k)
    s = prod.sampler()
    want = np.array([dqk_closed_form(s, z, prod.qp, k) / s(z) for z in zs])
    got = ratio(zs)
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
    # the structural identity behind it, on a whole array of points
    lhs = prod.eval(prod.qp.q * zs)
    rhs = prod.shift_ratio(zs) * prod.eval(zs)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs))


@pytest.mark.parametrize("qv", [2.0, -1.7, 1.5 * cmath.exp(0.4j)])
def test_etilde_first_quotient_is_constant(qv):
    qp = QParam(qv)
    ratio = dqk_quotient(EtildeProduct(qp).shift_ratio, qp, 1)
    assert ratio.num_degree == ratio.den_degree == 0
    assert ratio(3.0 + 1.0j) == pytest.approx(-1.0 / (qp.q - 1.0), rel=1e-15)


@pytest.mark.parametrize("qv", [0.5, -0.3, 0.6 * cmath.exp(1.1j)])
def test_big_e_first_quotient(qv):
    qp = QParam(qv)
    ratio = dqk_quotient(BigEProduct(qp).shift_ratio, qp, 1)
    z = 2.5 - 0.7j
    assert ratio(z) == pytest.approx(-1.0 / ((qp.q - 1.0) * (1.0 + z)),
                                     rel=1e-15)


def test_quotient_rejects_bad_input():
    qp = QParam(2.0)
    with pytest.raises(DomainError):
        dqk_quotient(RationalFunction([2.0, 1.0]), qp, 1)  # R(0) = 2
    with pytest.raises(DomainError):
        dqk_quotient(EtildeProduct(qp).shift_ratio, qp, 0)
    prod = EtildeProduct(qp)
    with pytest.raises(DomainError):
        MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                 shift_ratio=prod.shift_ratio)


def count_orbit_sums(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return dqk_closed_form(*args, **kwargs)

    monkeypatch.setattr(nevanlinna, "dqk_closed_form", counted)
    return calls


GRID = RadialGrid.log_spaced(10.0, 1e4, 5, angular_nodes=256)


@pytest.mark.parametrize("prod", [EtildeProduct(QParam(2.0)),
                                  BigEProduct(QParam(0.5))])
def test_product_with_ratio_makes_no_orbit_sums(prod, monkeypatch):
    calls = count_orbit_sums(monkeypatch)
    rows = logderiv_lemma_check(product_model(prod), prod.qp, 1, GRID)
    assert calls == []
    assert [row.m_ratio for row in rows] == [0.0] * len(GRID.radii)


def test_routes_agree_on_rows(monkeypatch):
    prod = BigEProduct(QParam(0.7))
    grid = RadialGrid.log_spaced(1.5, 40.0, 4, angular_nodes=128)
    exact = logderiv_lemma_check(product_model(prod), prod.qp, 2, grid)
    calls = count_orbit_sums(monkeypatch)
    pointwise = logderiv_lemma_check(product_model(prod, with_ratio=False),
                                     prod.qp, 2, grid)
    assert len(calls) > 0
    for a, b in zip(exact, pointwise):
        assert a.r == b.r and a.T == b.T
        assert a.m_ratio == pytest.approx(b.m_ratio, rel=1e-9, abs=1e-12)
    assert exact[0].m_ratio > 0.0


def test_product_solution_takes_the_exact_route(monkeypatch):
    prod = product_solution([1.0, -0.5j], QParam(0.6))
    grid = RadialGrid.log_spaced(1.5, 40.0, 4, angular_nodes=128)
    calls = count_orbit_sums(monkeypatch)
    exact = logderiv_lemma_check(product_model(prod), prod.qp, 2, grid)
    assert calls == []
    pointwise = logderiv_lemma_check(product_model(prod, with_ratio=False),
                                     prod.qp, 2, grid)
    assert len(calls) > 0
    for a, b in zip(exact, pointwise):
        assert a.r == b.r and a.T == b.T
        assert a.m_ratio == pytest.approx(b.m_ratio, rel=1e-9, abs=1e-12)


def test_other_base_keeps_pointwise_route(monkeypatch):
    prod = EtildeProduct(QParam(2.0))
    calls = count_orbit_sums(monkeypatch)
    logderiv_lemma_check(product_model(prod), QParam(3.0), 1,
                         RadialGrid((10.0, 100.0), 64))
    assert len(calls) == 2 * 64


@pytest.mark.parametrize("k", [1, 2, 3])
def test_etilde_reads_k_log_one_over_q_minus_one(k):
    # D_q^k etilde / etilde = (-1/(q-1))^k, a constant of modulus 0.3^-k
    qp = QParam(1.3)
    rows = logderiv_lemma_check(product_model(EtildeProduct(qp)), qp, k,
                                GRID)
    for row in rows:
        assert row.m_ratio == pytest.approx(k * math.log(1.0 / 0.3),
                                            rel=1e-13)


def off_origin_points(lo: int, hi: int):
    """Lists of lo..hi points with moduli in [0.3, 2]."""
    return st.lists(st.builds(cmath.rect, st.floats(0.3, 2.0),
                              st.floats(-math.pi, math.pi)),
                    min_size=lo, max_size=hi)


APART_NODES = 64


def grid_apart(f: RationalFunction, qp: QParam, k: int) -> RadialGrid:
    """Radii geometrically between the nonzero moduli of the poles of
    D_q^k f / f (the zeros of f and the poles of f(q^j z), j <= k), one
    below and one above them all: circles that keep away from the poles,
    where |D_q^k f / f| still exceeds 1 on part of some circle."""
    mods = sorted(({abs(z) for z, _ in f.zeros()}
                   | {abs(p) / abs(qp.q) ** j for p, _ in f.poles()
                      for j in range(k + 1)}) - {0.0})
    radii = ([mods[0] / 1.5]
             + [math.sqrt(a * b) for a, b in zip(mods, mods[1:]) if b > 1.3 * a]
             + [mods[-1] * 1.5])
    return RadialGrid(tuple(radii), APART_NODES)


def old_route_rows(f: RationalFunction, qp: QParam, k: int, rows) -> list:
    """m(r, D_q^k f / f) at each row's radius, with the quotient formed as
    D_q^k f times 1/f, which cancels shared factors by root solving."""
    ratio = RationalModel(dqk_rational(f, qp, k) * f.reciprocal())
    return [proximity(ratio, row.r, APART_NODES) for row in rows]


# The root-solving cancel of the old route moves its rows by up to about
# 3e-6 relative at k = 3 (seen against a 40-digit evaluation of the
# quotient on the same nodes), so the routes are compared at 1e-5.
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(q=bases(), zeros=off_origin_points(1, 3),
       poles=off_origin_points(0, 2), k=st.integers(1, 3))
@example(q=0.5, zeros=[0.8, -1.1j], poles=[1.5], k=1)
@example(q=-0.6, zeros=[0.5 + 0.5j, 1.7], poles=[-0.4j], k=2)
@example(q=2.0, zeros=[1.2, 0.4j, -0.9], poles=[0.7 - 0.7j], k=3)
@example(q=-1.7, zeros=[1.9j], poles=[0.35, -1.0], k=1)
@example(q=0.7 * cmath.exp(1.1j), zeros=[-0.3 + 0.2j], poles=[1.0j], k=2)
@example(q=1.6 * cmath.exp(-2.4j), zeros=[1.0, 1.5j, -0.6 - 0.6j, 0.4],
         poles=[], k=3)
def test_rational_takes_the_exact_route(q, zeros, poles, k):
    assume(all(abs(a - b) > 0.1 for a in zeros for b in poles))
    qp = QParam(q)
    f = RationalFunction.from_roots(zeros, poles, lead=0.7 - 0.2j)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_orbit_sums(mp)
        rows = logderiv_lemma_check(MeroModel.from_rational(f, qp), qp, k,
                                    grid_apart(f, qp, k))
    assert calls == []
    # rows that all read 0 compare nothing (each pinned example has some)
    assume(max(row.m_ratio for row in rows) > 0.0)
    for row, want in zip(rows, old_route_rows(f, qp, k, rows)):
        assert row.m_ratio == pytest.approx(want, rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("f", [
    RationalFunction.from_roots([0.0, 0.8, -0.5j], [1.3]),
    RationalFunction.from_roots([0.6 + 0.6j], [0.0, -1.2]),
], ids=["zero at 0", "pole at 0"])
@pytest.mark.parametrize("qv", [0.5, 2.0])
def test_origin_zero_or_pole_takes_the_orbit_route(f, qv, monkeypatch):
    # R(0) = q^lam != 1 here, which dqk_quotient refuses. The orbit rows
    # match a 40-digit evaluation to 3e-16; the old route's are off by up
    # to 4e-9, hence the tolerance.
    qp = QParam(qv)
    calls = count_orbit_sums(monkeypatch)
    rows = logderiv_lemma_check(MeroModel.from_rational(f, qp), qp, 2,
                                grid_apart(f, qp, 2))
    assert len(calls) > 0
    for row, want in zip(rows, old_route_rows(f, qp, 2, rows)):
        assert row.m_ratio == pytest.approx(want, rel=1e-7, abs=1e-12)
    assert max(row.m_ratio for row in rows) > 0.0
