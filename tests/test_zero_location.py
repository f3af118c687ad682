"""Certified zero location for series models.

series_zero_moduli takes the eigenvalues of the truncated polynomial and
certifies each annulus count by one winding number in the gap above it.
On etilde_q (|q| > 1) and big_e_q (|q| < 1) the counts must equal the
exact lattice counts and the moduli must match the lattice moduli; a
count the winding numbers do not confirm, or coefficients that are not
finite, must raise DomainError. All first-pass winding circles are
evaluated in one array call; a circle whose node count doubles evaluates
again at the new count.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq import nevanlinna, polyroots, qode
from jacksonq.errors import DomainError
from jacksonq.nevanlinna import series_zero_moduli
from jacksonq.qcore import QParam, TruncatedSeries
from jacksonq.qspecial import BigEProduct, EtildeProduct, big_e_q, etilde_q

N = 96
REL = 1e-9

# (|q| range, real sign or None for complex q). The near-1 ranges stop
# at 1.3 and 0.77: closer to 1, a q on or near the positive axis makes
# the zeros of the N = 96 series too ill-conditioned for 1e-9 in double
# precision (at q = 1.25 about 3e-9 even after Newton polishing), while
# the counts stay exact.
REGIMES = {
    "q > 1": ((1.6, 2.6), 1.0),
    "q < -1": ((1.6, 2.6), -1.0),
    "complex |q| > 1": ((1.6, 2.6), None),
    "0 < q < 1": ((0.38, 0.62), 1.0),
    "-1 < q < 0": ((0.38, 0.62), -1.0),
    "complex |q| < 1": ((0.38, 0.62), None),
    "q > 1 near 1": ((1.3, 1.6), 1.0),
    "q < -1 near 1": ((1.3, 1.6), -1.0),
    "complex |q| > 1 near 1": ((1.3, 1.6), None),
    "0 < q < 1 near 1": ((0.62, 0.77), 1.0),
    "-1 < q < 0 near 1": ((0.62, 0.77), -1.0),
    "complex |q| < 1 near 1": ((0.62, 0.77), None),
}


def series_and_lattice(q: complex):
    """The N = 96 series of etilde_q or big_e_q and its lattice moduli."""
    qp = QParam(q)
    if abs(q) > 1.0:
        series, prod = etilde_q(qp, N), EtildeProduct(qp)
    else:
        series, prod = big_e_q(qp, N), BigEProduct(qp)
    return series, sorted(abs(z) for z, _ in prod.zeros_up_to(1e8))


def between_lattice(moduli, target: float) -> float:
    """Geometric midpoint of the two lattice moduli around target."""
    lo = max(m for m in moduli if m <= target)
    hi = min(m for m in moduli if m > target)
    return math.sqrt(lo * hi)


def assert_matches_lattice(q: complex, r: float):
    series, lattice = series_and_lattice(q)
    got = series_zero_moduli(series, r)
    assert all(isinstance(m, float) for m, _ in got)
    flat = [m for m, c in got for _ in range(c)]
    want = [m for m in lattice if m < r]
    assert len(flat) == len(want)
    for g, w in zip(flat, want):
        assert abs(g / w - 1.0) <= REL, (q, g, w)


@st.composite
def q_values(draw):
    (lo, hi), sign = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    modulus = draw(st.floats(lo, hi))
    if sign is not None:
        return sign * modulus
    angle = draw(st.floats(0.05, math.pi - 0.05))
    return modulus * cmath.exp(1j * angle * draw(st.sampled_from((1, -1))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=q_values(), index=st.integers(0, N))
# one pinned example per regime of REGIMES, in its order, which runs in
# every collection whatever examples hypothesis draws there
@example(q=2.0, index=0)
@example(q=-2.3, index=17)
@example(q=cmath.rect(2.1, 0.6), index=N)
@example(q=0.5, index=40)
@example(q=-0.45, index=5)
@example(q=cmath.rect(0.48, -0.9), index=61)
@example(q=1.45, index=90)
@example(q=-1.35, index=1)
@example(q=cmath.rect(1.4, -1.2), index=33)
@example(q=0.7, index=72)
@example(q=-0.75, index=N - 1)
@example(q=cmath.rect(0.65, 2.5), index=48)
def test_locator_matches_lattice_and_fails_loudly(q, index):
    series, lattice = series_and_lattice(q)
    r = between_lattice(lattice, min(300.0, 0.5 * series.safe_radius))
    assert_matches_lattice(q, r)

    # a winding count one too high in every annulus is refused
    true_winding = nevanlinna.winding_number
    with mock.patch.object(nevanlinna, "winding_number",
                           lambda ev, rho: true_winding(ev, rho) + 1):
        with pytest.raises(DomainError, match="disagrees"):
            series_zero_moduli(series, r)

    # a non-finite coefficient is refused before any eigenvalue solve
    for bad in (math.nan, math.inf):
        coeffs = series.coeffs.copy()
        coeffs[index] = bad
        with pytest.raises(DomainError, match="not finite"):
            series_zero_moduli(TruncatedSeries(coeffs), r)


@pytest.mark.parametrize("q", [
    2.1 * cmath.exp(0.6j), 0.48 * cmath.exp(0.9j), 2.0, 0.5])
def test_regressions_inside_about_300(q):
    # the complex q used to fail with "winding number did not stabilise"
    _, lattice = series_and_lattice(q)
    assert_matches_lattice(q, between_lattice(lattice, 300.0))


@pytest.mark.parametrize("q", [0.446994, 0.4469943, -0.4469943])
def test_real_q_regressions_at_300(q):
    # winding bisection from 3e-7 to 300 landed next to a zero of E_q
    # at q = 0.4469943 (at r = 5.00491) and failed to stabilise
    assert_matches_lattice(q, 300.0)


def test_large_radius_no_overflow():
    # 1e6 ** 72 overflows; the power-of-two rescaling does not
    _, lattice = series_and_lattice(2.0)
    assert_matches_lattice(2.0, between_lattice(lattice, 1e6))


def test_origin_zeros_and_empty_disc():
    ts = etilde_q(QParam(2.0), 72).shifted(2)
    assert [c for _, c in series_zero_moduli(ts, 10.0)] == [1, 1, 1]
    assert series_zero_moduli(ts, 1.5) == []
    with mock.patch.object(nevanlinna, "winding_number", lambda ev, rho: 3):
        with pytest.raises(DomainError, match="disagrees with 0"):
            series_zero_moduli(ts, 1.5)


def test_eigenvalue_failure_is_typed():
    failing = mock.Mock(side_effect=np.linalg.LinAlgError("no convergence"))
    with mock.patch.object(nevanlinna.np, "roots", failing):
        with pytest.raises(DomainError, match="companion"):
            series_zero_moduli(etilde_q(QParam(2.0), 48), 10.0)


def test_multiple_zeros_merge():
    coeffs = np.polynomial.polynomial.polyfromroots([3, 3, 3, 7, -2j])
    got = series_zero_moduli(TruncatedSeries.from_polynomial(coeffs), 10.0)
    assert [c for _, c in got] == [1, 3, 1]
    for (m, _), want in zip(got, (2.0, 3.0, 7.0)):
        assert abs(m / want - 1.0) < 1e-4


def test_winding_calls_one_per_group():
    series, lattice = series_and_lattice(2.1 * cmath.exp(0.6j))
    r = between_lattice(lattice, 300.0)
    calls = []
    true_winding = nevanlinna.winding_number

    def counted(ev, rho):
        calls.append(rho)
        return true_winding(ev, rho)

    with mock.patch.object(nevanlinna, "winding_number", counted), \
            mock.patch.object(polyroots, "roots_with_multiplicity",
                              side_effect=AssertionError), \
            mock.patch.object(qode, "roots_with_multiplicity",
                              side_effect=AssertionError):
        groups = series_zero_moduli(series, r)
    assert len(calls) == len(groups) and calls[-1] == r


def test_one_series_eval_for_all_first_pass_circles(monkeypatch):
    sizes = []
    real = TruncatedSeries.eval

    def counted(self, z):
        sizes.append(np.size(z))
        return real(self, z)

    monkeypatch.setattr(TruncatedSeries, "eval", counted)
    series, lattice = series_and_lattice(2.0)
    groups = series_zero_moduli(series, between_lattice(lattice, 300.0))
    assert len(groups) == 8 and sizes == [8 * nevanlinna._WINDING_NODES]

    # z^200 (1 + z/10) winds 200 times around |z| = 2, too fast for 512
    # nodes: that circle evaluates again at 1024
    sizes.clear()
    ts = TruncatedSeries.from_polynomial(np.r_[np.zeros(200), 1.0, 0.1])
    assert series_zero_moduli(ts, 2.0) == []
    assert sizes == [512, 1024]
