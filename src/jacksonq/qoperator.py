"""Jackson difference operators, the Jackson integral, and the q-Casorati.

The Jackson difference operator acts on a function f as

    D_q f(z) = (f(qz) - f(z)) / ((q - 1) z),

lowering polynomial degree by one and reducing to d/dz as q -> 1. It has
two faces here: an exact coefficient map on TruncatedSeries, and a
divided-difference evaluation on black-box Samplers (rejected at z = 0,
where only the series path is defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    BracketOverflow,
    DomainError,
    NonconvergentSample,
    OriginSingular,
    OutsideDomain,
)
from .qcore import QParam, TruncatedSeries, q_binomial, q_brackets


@dataclass(frozen=True)
class Sampler:
    """A function of one complex variable as an evaluable object.

    ``eval`` must be deterministic and re-entrant. ``domain_radius``
    restricts where evaluation is allowed (None = whole plane);
    ``pole_list`` optionally records known poles as (location,
    multiplicity) pairs for callers that must avoid them.
    """

    eval: Callable[[complex], complex]
    domain_radius: Optional[float] = None
    pole_list: Optional[tuple] = None

    def __call__(self, z: complex) -> complex:
        if self.domain_radius is not None and abs(z) > self.domain_radius:
            raise OutsideDomain(
                f"|z| = {abs(z):g} outside sampler domain "
                f"radius {self.domain_radius:g}")
        return self.eval(z)


FunctionLike = Union[TruncatedSeries, Sampler]


@dataclass(frozen=True)
class CasoratiPair:
    """Two nonconstant functions sharing a base q, for C_J(f1, f2)."""

    f1: FunctionLike
    f2: FunctionLike
    qp: QParam

    def __post_init__(self):
        for f in (self.f1, self.f2):
            if isinstance(f, TruncatedSeries) and f.is_constant():
                raise DomainError("Casorati operands must be nonconstant")


def dq_series(f: TruncatedSeries, qp: QParam) -> TruncatedSeries:
    """D_q on a series: coefficient map b_n = [n+1]_q c_{n+1}, order N-1.

    Monomials map as D_q z^k = [k]_q z^{k-1}; constants go to the zero
    series (the kernel of D_q consists exactly of constants). Raises
    BracketOverflow if some [n]_q leaves double range (|q|^n overflowed),
    rather than returning NaN coefficients; for an exact polynomial only
    a nonzero coefficient meeting such a bracket raises, and its exact
    zeros map to exact zeros.
    """
    return _dq_step(f, np.array(q_brackets(f.order, qp)))


def dqk_series(f: TruncatedSeries, qp: QParam, k: int) -> TruncatedSeries:
    """k-fold D_q on a series: b_n = c_{n+k} prod_{j=1..k} [n+j]_q.

    Runs k passes of dq_series on one bracket ladder, so it returns and
    raises exactly what k dq_series calls would."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    brackets = np.array(q_brackets(f.order, qp))
    out = f
    for _ in range(k):
        out = _dq_step(out, brackets)
    return out


def _dq_step(f: TruncatedSeries, brackets: np.ndarray) -> TruncatedSeries:
    """One D_q pass, reading [m]_q from brackets[m] for 1 <= m <= f.order."""
    if f.order < 1:
        return TruncatedSeries.from_polynomial([0.0])
    c = f.coeffs[1:]
    br = brackets[1: f.order + 1]
    finite = np.isfinite(br)
    overflowed = np.flatnonzero(
        ~finite & (c != 0) if f.is_exact_polynomial else ~finite)
    if overflowed.size:
        raise BracketOverflow(
            f"bracket [{overflowed[0] + 1}]_q is not finite")
    return TruncatedSeries(c * np.where(finite, br, 0.0), f.tail_tol,
                           exact_polynomial=f.is_exact_polynomial)


def dq_sample(f: Sampler, z: complex, qp: QParam) -> complex:
    """Divided difference (f(qz) - f(z)) / ((q-1) z); z must be nonzero."""
    if z == 0:
        raise OriginSingular("D_q at the origin is defined only on series")
    q = qp.q
    return (f(q * z) - f(z)) / ((q - 1.0) * z)


def dqk_sample(f: Sampler, z: complex, qp: QParam, k: int) -> complex:
    """k-fold D_q by literal iteration of divided differences."""
    if k == 0:
        return f(z)
    if k == 1:
        return dq_sample(f, z, qp)
    inner = Sampler(lambda w: dqk_sample(f, w, qp, k - 1),
                    f.domain_radius, f.pole_list)
    return dq_sample(inner, z, qp)


def dqk_closed_form(f: Sampler, z: complex, qp: QParam, k: int) -> complex:
    """k-th Jackson difference in one pass over the orbit q^{k-j} z:

        D_q^k f(z) = (q-1)^{-k} z^{-k} q^{-k(k-1)/2}
                     * sum_{j=0..k} (-1)^j [k over j]_q q^{j(j-1)/2} f(q^{k-j} z).

    Collapses to the plain divided difference at k = 1.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if z == 0:
        raise OriginSingular("D_q^k at the origin is defined only on series")
    q = qp.q
    acc = 0.0 + 0.0j
    for j in range(k + 1):
        w = q ** (k - j) * z
        term = ((-1) ** j * q_binomial(k, j, qp)
                * q ** (j * (j - 1) // 2) * f(w))
        acc += term
    pref = (q - 1.0) ** (-k) * z ** (-k) * q ** (-(k * (k - 1) // 2))
    return pref * acc


def jackson_integral(f: Sampler, a: complex, z: complex, qp: QParam,
                     tol: float = 1e-12) -> complex:
    """Jackson q-integral along the geometric spiral from a to z:

        (z - a)(1 - q) sum_{j>=0} q^j f(a + q^j (z - a)),   |q| < 1.

    The sum truncates once |q|^j * sup|f| (sup estimated from the first
    200 orbit samples) drops below tol; the dropped tail is then bounded
    by 2 tol |z - a|. Inverts D_q when a = 0.
    """
    if abs(qp.q) >= 1.0:
        raise DomainError("jackson_integral requires |q| < 1")
    if z == a:
        return 0.0 + 0.0j
    q = qp.q
    qj = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    sup = 0.0
    first = None
    for j in range(100000):
        w = a + qj * (z - a)
        val = f(w)
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


def casorati(pair: CasoratiPair):
    """Jackson q-Casorati determinant C_J = f1 D_q f2 - f2 D_q f1.

    Returns a TruncatedSeries when both operands are series, otherwise a
    Sampler evaluating the determinant pointwise. C_J vanishes
    identically exactly when f1, f2 are linearly dependent.
    """
    f1, f2, qp = pair.f1, pair.f2, pair.qp
    if isinstance(f1, TruncatedSeries) and isinstance(f2, TruncatedSeries):
        return f1 * dq_series(f2, qp) - f2 * dq_series(f1, qp)
    s1 = _as_sampler(f1)
    s2 = _as_sampler(f2)
    rad = _min_opt(s1.domain_radius, s2.domain_radius)

    def det(z: complex) -> complex:
        return s1(z) * dq_sample(s2, z, qp) - s2(z) * dq_sample(s1, z, qp)

    return Sampler(det, rad)


def kernel_check(f: TruncatedSeries, qp: QParam, tol: float = 1e-12) -> bool:
    """True iff D_q f is the zero series to within tol, relative to the
    coefficient scale of f (constants are the whole kernel)."""
    scale = max(1.0, float(np.max(np.abs(f.coeffs))) if f.coeffs.size else 1.0)
    df = dq_series(f, qp)
    return bool(np.all(np.abs(df.coeffs) < tol * scale))


def series_sampler(f: TruncatedSeries) -> Sampler:
    """Wrap a series as a Sampler honoring its certified radius."""
    rad = f.safe_radius
    if rad is not None and math.isinf(rad):
        rad = None
    return Sampler(lambda z: f.eval(z), rad)


def _as_sampler(f: FunctionLike) -> Sampler:
    if isinstance(f, Sampler):
        return f
    return series_sampler(f)


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
