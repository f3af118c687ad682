"""Certified zero location for series models.

series_zero_moduli takes the eigenvalues of the truncated polynomial and
certifies each annulus count by one winding number in the gap above it.
On etilde_q (|q| > 1) and big_e_q (|q| < 1) the counts must equal the
exact lattice counts and the moduli must match the lattice moduli; a
count the winding numbers do not confirm, or coefficients that are not
finite, must raise DomainError. A winding circle's node values come
from one inverse FFT of the scaled coefficients per node count, at the
exact roots of unity, never from TruncatedSeries.eval; they match Horner
on _unit_circle to a stated tolerance, and only the winding integers
leave, so the moduli are the eigenvalues' alone.
"""

import cmath
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq import nevanlinna, polyroots, qode
from jacksonq.errors import DomainError, JacksonQError, PoleOnCircle
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


def test_winding_circles_take_one_inverse_fft_and_no_series_eval(
        monkeypatch):
    sizes = []
    real = np.fft.ifft

    def counted(a, **kwargs):
        out = real(a, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(TruncatedSeries, "eval", mock.Mock(
        side_effect=AssertionError("series_zero_moduli called eval")))
    monkeypatch.setattr(np.fft, "ifft", counted)
    series, lattice = series_and_lattice(2.0)
    groups = series_zero_moduli(series, between_lattice(lattice, 300.0))
    assert len(groups) == 8 and sizes == [nevanlinna._WINDING_NODES] * 8

    # z^200 (1 + z/10) winds 200 times around |z| = 2, too fast for 512
    # nodes: that circle takes a second transform at 1024
    sizes.clear()
    ts = TruncatedSeries.from_polynomial(np.r_[np.zeros(200), 1.0, 0.1])
    assert series_zero_moduli(ts, 2.0) == []
    assert sizes == [512, 1024]


_RNG = np.random.default_rng(3)
_LONG = TruncatedSeries.from_polynomial(  # degree 1500: folds mod M
    _RNG.normal(size=1501) + 1j * _RNG.normal(size=1501))


@pytest.mark.parametrize("M", [512, 1024])
@pytest.mark.parametrize("series, rho", [
    (etilde_q(QParam(2.0), N), 300.0),
    (big_e_q(QParam(cmath.rect(0.48, 0.9)), N), 300.0),
    (etilde_q(QParam(2.0), N), 1e6),  # 1e6 ** 96 overflows
    (_LONG, 1.0),
    (_LONG, 1.01),
    (etilde_q(QParam(2.0), 72).shifted(2), 10.0),  # a double zero at 0
], ids=["etilde", "big_e complex q", "r=1e6", "fold", "fold r>1",
        "origin zero"])
def test_dft_node_values_match_horner(series, rho, M):
    # Both give p(rho w^j) over 2^top, top the largest log2 of a scaled
    # term |c_n| rho^n. Horner rounds term n by about n eps, and
    # _unit_circle's nodes miss the exact roots of unity by about n eps
    # in z^n, so the two differ by at most about (N + 1)^2 eps there.
    c = series.coeffs
    got = nevanlinna._dft_nodes(nevanlinna._scaled_terms(c, [rho])[0], M)
    with np.errstate(divide="ignore"):
        top = np.max(np.log2(np.abs(c)) + np.arange(c.size) * math.log2(rho))
    want = series.eval(rho * nevanlinna._unit_circle(M)) * 2.0 ** -top
    assert np.all(np.abs(got - want) <= c.size ** 2 * np.finfo(float).eps)


def winding_number_ref(node_values, r: float) -> int:
    """winding_number as it summed its angles before: np.roll of the
    node values, one complex division, np.angle, np.sum, np.max(np.abs)."""
    M = nevanlinna._WINDING_NODES
    while True:
        vals = np.asarray(node_values(M))
        if np.any(vals == 0) or not np.all(np.isfinite(vals)):
            raise PoleOnCircle(f"zero/invalid value on circle r = {r:g}")
        rolled = np.roll(vals, -1)
        inc = np.angle(rolled / vals)
        total = float(np.sum(inc)) / (2.0 * np.pi)
        if (np.max(np.abs(inc)) < 0.5 * np.pi
                and abs(total - round(total)) < 1e-2):
            return int(round(total))
        M *= 2
        if M > nevanlinna._WINDING_MAX_NODES:
            raise DomainError(
                f"winding number did not stabilise at r = {r:g}")


def recording(winding, log: list):
    """winding, appending (radius, outcome, node counts asked) to log."""
    def run(node_values, rho):
        sizes = []

        def values(M):
            sizes.append(M)
            return node_values(M)
        try:
            outcome = winding(values, rho)
        except JacksonQError as exc:
            log.append((rho, repr(exc), sizes))
            raise
        log.append((rho, outcome, sizes))
        return outcome
    return run


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=q_values(), index=st.integers(0, N))
# the pinned examples of test_locator_matches_lattice_and_fails_loudly
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
def test_winding_sum_keeps_every_integer_and_node_count(q, index):
    # the locator's circles, then circles either side of a lattice zero
    # inside r, where the loop doubles its nodes, on one side at least
    series, lattice = series_and_lattice(q)
    r = between_lattice(lattice, min(300.0, 0.5 * series.safe_radius))
    inside = [m for m in lattice if m < r]
    zero = inside[index % len(inside)]
    near = [zero * (1.0 + rel) for rel in (1e-4, -1e-4, 1e-6, -1e-6)]
    runs = []
    for winding in (nevanlinna.winding_number, winding_number_ref):
        log = []
        with mock.patch.object(nevanlinna, "winding_number",
                               recording(winding, log)):
            moduli = series_zero_moduli(series, r)
            for rho, terms in zip(near, nevanlinna._scaled_terms(
                    series.coeffs, near)):
                try:
                    nevanlinna.winding_number(
                        functools.partial(nevanlinna._dft_nodes, terms), rho)
                except JacksonQError:
                    pass
        runs.append((moduli, log))
    assert runs[0] == runs[1]
    assert max(len(sizes) for _, _, sizes in runs[0][1]) > 1
