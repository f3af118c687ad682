"""Jackson difference operators, the Jackson integral, and the q-Casorati.

The Jackson difference operator acts on a function f as

    D_q f(z) = (f(qz) - f(z)) / ((q - 1) z),

lowering polynomial degree by one and reducing to d/dz as q -> 1. It has
two faces here: an exact coefficient map on TruncatedSeries, and a
divided-difference evaluation on one-point callables (rejected at z = 0,
where only the series path is defined). A TruncatedSeries is itself a
one-point callable, refusing past its certified radius by its own rule.

The sampled operators (dqk_sample, dqk_closed_form, jackson_integral)
read f on a q-orbit. A TruncatedSeries is evaluated on the orbit in one
array call, which gives each point the bits a call at that point alone
gives (numpy rounds each element of an array as it rounds a 0-d array;
see polyroots.poly_eval), and so is each series of an integration-by-parts
integrand u(s w) D_q v(w) (_PartsIntegrand); any other callable is called
point by point, in orbit order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketOverflow,
    DomainError,
    JacksonQError,
    NonconvergentSample,
    OriginSingular,
)
from .qcore import QParam, TruncatedSeries, q_binomial, q_brackets


# what the sampled operators read: a TruncatedSeries or any one-point callable
Pointwise = Callable[[complex], complex]


@dataclass(frozen=True)
class CasoratiPair:
    """Two nonconstant functions sharing a base q, for C_J(f1, f2)."""

    f1: Pointwise
    f2: Pointwise
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
    return TruncatedSeries(c * np.where(finite, br, 0.0),
                           exact_polynomial=f.is_exact_polynomial)


def dq_sample(f: Pointwise, z: complex, qp: QParam) -> complex:
    """Divided difference (f(qz) - f(z)) / ((q-1) z); z must be nonzero."""
    return dqk_sample(f, z, qp, 1)


def dqk_sample(f: Pointwise, z: complex, qp: QParam, k: int) -> complex:
    """k-fold D_q as a divided-difference table on p_0 = z, p_{m+1} = q p_m:
    D^j(p_m) = (D^{j-1}(p_{m+1}) - D^{j-1}(p_m)) / ((q-1) p_m), D^0 = f.
    The points and operations of k nested divided differences, so their
    result bit for bit, from k+1 calls of f (p_k first) instead of 2^k.
    Raises OriginSingular when some p_m, m < k, is 0."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    q = qp.q
    orbit = [z]
    for _ in range(k):
        if orbit[-1] == 0:
            raise OriginSingular("D_q at the origin is defined only on series")
        orbit.append(q * orbit[-1])
    vals = list(_orbit_values(f, orbit[::-1]))[::-1]
    for _ in range(k):
        vals = [(b - a) / ((q - 1.0) * p)
                for a, b, p in zip(vals, vals[1:], orbit)]
    return vals[0]


def dqk_closed_form(f: Pointwise, z: complex, qp: QParam, k: int) -> complex:
    """k-th Jackson difference in one pass over the orbit q^{k-j} z:

        D_q^k f(z) = (q-1)^{-k} z^{-k} q^{-k(k-1)/2}
                     * sum_{j=0..k} (-1)^j [k over j]_q q^{j(j-1)/2} f(q^{k-j} z).

    Collapses to the plain divided difference at k = 1.
    """
    return _closed_form(f, z, qp, k)[0]


def _closed_form(f: Pointwise, z: complex, qp: QParam, k: int) -> tuple:
    """(D_q^k f(z) as dqk_closed_form gives it, f at the orbit's last
    point q^0 z). That point is z up to the sign of a zero part, so a
    caller that needs f(z) beside D_q^k f(z) need not sample z again."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if z == 0:
        raise OriginSingular("D_q^k at the origin is defined only on series")
    q = qp.q
    vals = _orbit_values(f, [q ** (k - j) * z for j in range(k + 1)])
    acc = 0.0 + 0.0j
    for j, val in enumerate(vals):
        term = ((-1) ** j * q_binomial(k, j, qp)
                * q ** (j * (j - 1) // 2) * val)
        acc += term
    pref = (q - 1.0) ** (-k) * z ** (-k) * q ** (-(k * (k - 1) // 2))
    return pref * acc, val


def jackson_integral(f: Pointwise, a: complex, z: complex, qp: QParam,
                     tol: float = 1e-12) -> complex:
    """Jackson q-integral along the geometric spiral from a to z:

        (z - a)(1 - q) sum_{j>=0} q^j f(a + q^j (z - a)),   |q| < 1.

    The sum truncates once |q|^j * sup|f| (sup estimated from the first
    200 orbit samples) drops below tol; the dropped tail is then bounded
    by 2 tol |z - a|. Inverts D_q when a = 0. A sample that is not
    finite, or whose modulus leaves double range, raises
    NonconvergentSample.

    f is sampled in runs: each run holds the orbit points from the next
    one up to the last the stop rule cannot end before, given the sup
    seen so far, and a series takes a run in one array call.
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
    left = 0
    for j in range(100000):
        if not left:
            run = _spiral_run(a, z, q, qj, j, max(sup, 1.0), tol)
            left, vals = len(run), _orbit_values(f, run)
        left -= 1
        val = next(vals)
        try:
            av = abs(val)
        except OverflowError:
            av = math.inf
        if not math.isfinite(av):  # inf, nan, or |val| past double range
            raise NonconvergentSample(
                "sample is not finite or its modulus leaves double range "
                "along the integration orbit")
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


def _spiral_run(a, z, q, qj, j, scale, tol) -> list:
    """The points a + q^i (z - a), i = j, j+1, ..., formed as
    jackson_integral forms them (q^j = qj, a running product), while its
    stop rule cannot fire: that needs i >= 1 and |q^(i+1)| scale < tol,
    and scale never exceeds the max(sup, 1) it tests."""
    pts = [a + qj * (z - a)]
    qj *= q
    while j < 99999 and (j == 0 or abs(qj) * scale >= tol):
        j += 1
        pts.append(a + qj * (z - a))
        qj *= q
    return pts


@dataclass(frozen=True)
class _PartsIntegrand:
    """w -> u(s w) D_q v(w) for series u and v, s = q if shifted else 1:
    an integrand of Jackson integration by parts. A call takes one point,
    u.eval(s w) * dq_sample(v, w, qp); _orbit_values reads a run of
    points through _values."""

    u: TruncatedSeries
    v: TruncatedSeries
    qp: QParam
    shifted: bool = False

    def __call__(self, w):
        return (self.u.eval(self.qp.q * w if self.shifted else w)
                * dq_sample(self.v, w, self.qp))

    def _values(self, points):
        """The calls' values at nonzero points, from one array call of u
        and one of v on the distinct points of [w ...] + [q w ...]: a q w_j
        with the bits of w_{j+1} (q a power of two) reads v(w_{j+1}), the
        same bits, since an array call rounds each element alone. The
        Python-complex steps of a call (q w, the difference, the division
        by (q - 1) w and the product) run one point at a time as the
        iterator is read."""
        q, n = self.qp.q, len(points)
        qw = [q * w for w in points]
        us = self.u.eval(np.array(qw if self.shifted else points)).tolist()
        ws = np.array(points, dtype=np.complex128)
        qws = np.array(qw, dtype=np.complex128)
        same = np.zeros(n, dtype=bool)
        same[:-1] = (qws[:-1].view(np.uint64).reshape(-1, 2)
                     == ws[1:].view(np.uint64).reshape(-1, 2)).all(axis=1)
        vs = self.v.eval(np.concatenate([ws, qws[~same]]))
        vqw = np.empty(n, dtype=vs.dtype)
        vqw[:-1] = vs[1:n]
        vqw[~same] = vs[n:]
        return (a * ((b - c) / ((q - 1.0) * w))
                for a, b, c, w in zip(us, vqw.tolist(), vs[:n].tolist(),
                                      points))


def _orbit_values(f, points):
    """f at each point, as an iterator. A TruncatedSeries takes all the
    points in one array call, and a _PartsIntegrand off the origin one
    call of each series, in which a floating-point overflow or invalid
    operation raises instead of warning. If that call raises, and for
    any other callable, f is called one point at a time as the iterator
    is read, so the first failing point raises or warns as it always
    did, even where the caller stops reading before it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            if isinstance(f, TruncatedSeries):
                return iter(f.eval(np.array(points)).tolist())
            if isinstance(f, _PartsIntegrand) and 0 not in points:
                return f._values(points)
    except (JacksonQError, FloatingPointError):
        pass
    return map(f, points)


def casorati(pair: CasoratiPair):
    """Jackson q-Casorati determinant C_J = f1 D_q f2 - f2 D_q f1.

    Returns a TruncatedSeries when both operands are series, otherwise a
    one-point closure evaluating the determinant, at which a series
    operand refuses by its own radius rule. C_J vanishes identically
    exactly when f1, f2 are linearly dependent.
    """
    f1, f2, qp = pair.f1, pair.f2, pair.qp
    if isinstance(f1, TruncatedSeries) and isinstance(f2, TruncatedSeries):
        return f1 * dq_series(f2, qp) - f2 * dq_series(f1, qp)

    def det(z: complex) -> complex:
        return f1(z) * dq_sample(f2, z, qp) - f2(z) * dq_sample(f1, z, qp)

    return det


def kernel_check(f: TruncatedSeries, qp: QParam) -> bool:
    """True iff D_q f is the zero series to within 1e-12, relative to
    the coefficient scale of f (constants are the whole kernel)."""
    scale = max(1.0, float(np.max(np.abs(f.coeffs))) if f.coeffs.size else 1.0)
    df = dq_series(f, qp)
    return bool(np.all(np.abs(df.coeffs) < 1e-12 * scale))


def series_sampler(f: TruncatedSeries) -> TruncatedSeries:
    """f itself: a series is its own one-point callable and refuses past
    its certified radius by its own rule. Kept only as the name that
    perfbench's series_solve check calls; it goes when that check passes
    the series itself (ROADMAP item 9)."""
    return f
