"""q-special functions in series and product form.

Series forms (coefficients of z^n):

    exp_q      1/[n]_q!                 solves D_q f = f
    etilde_q   1/(q;q)_n                solves D_q f + f/(q-1) = 0
    big_e_q    q^{n(n-1)/2}/(q;q)_n     satisfies etilde_q(z) big_e_q(-z) = 1

and the basic hypergeometric series

    phi_rs: sum_j  prod(alpha_i;q)_j / prod(beta_i;q)_j
                   * [(-1)^j q^{j(j-1)/2}]^{1+s-r} * z^j / (q;q)_j.

Product forms are LatticeProducts: the entire f with f(qz) = R(z) f(z)
and f(0) = 1 for a rational shift ratio R with R(0) = 1. Their zeros are
exact lattices over the roots of R's polynomial side, which downstream
counting functions use verbatim:

    etilde_q(z) = prod_{n>=1} (1 - q^{-n} z)   (|q| > 1, R = 1 - z,
                                                zeros at q^n)
    big_e_q(z)  = prod_{n>=0} (1 + q^n z)      (|q| < 1, R = 1/(1 + z),
                                                zeros at -q^{-n})
    product_solution(P): the solution of D_q f = P(z) f(qz), |q| < 1,
                         R = 1/(1 + (1-q) z P(z))

etilde_q and big_e_q are phi_rs at fixed parameters, so they share its
one coefficient ladder; exp_q keeps its own ladder over [n]_q (its
rescaling etilde_q((1-q) z) differs from it in the last bits). Both
ladders are built multiplicatively; for |q| > 1 the denominators
(q;q)_n blow up superexponentially and coefficients saturate to exact
zero past the double-precision floor, which is harmless for evaluation
inside the certified radius.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DenominatorPochhammerZero, DomainError, RegimeMismatch
from .qcore import QParam, TruncatedSeries, _bracket_array, q_brackets
from .qode import RationalFunction

_PHI_GUARD_ORDER = 64  # the highest m at which PhiParams checks beta q^m


@dataclass(frozen=True)
class PhiParams:
    """Parameters of the basic hypergeometric series _r phi_s.

    Construction checks that no lower parameter beta_j equals q^{-m} for
    0 <= m <= _PHI_GUARD_ORDER, which would zero a denominator Pochhammer.
    """

    alphas: tuple
    betas: tuple
    qp: QParam

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(complex(b) for b in self.betas))
        q = self.qp.q
        qm = 1.0 + 0.0j
        for m in range(_PHI_GUARD_ORDER + 1):
            for b in self.betas:
                if abs(b * qm - 1.0) < 1e-12:
                    raise DenominatorPochhammerZero(
                        f"beta = {b} equals q^-{m}; series undefined")
            qm *= q

    @property
    def r(self) -> int:
        return len(self.alphas)

    @property
    def s(self) -> int:
        return len(self.betas)


def phi_rs(params: PhiParams, N: int) -> TruncatedSeries:
    """Basic hypergeometric series to order N.

    Term ladder: t_0 = 1 and

        t_{j+1}/t_j = prod_i (1 - alpha_i q^j) / prod_i (1 - beta_i q^j)
                      * [(-1) q^j]^{1+s-r} / (1 - q^{j+1}).

    A term that is not finite saturates to exact zero, and so do all
    after it. That includes a factor [(-1) q^j]^{1+s-r} that is
    infinite: |q^j|^{1+s-r} past double range, or q^j underflowed to 0
    with 1+s-r < 0. A beta with beta q^j = 1 exactly past _PHI_GUARD_ORDER
    raises DenominatorPochhammerZero, as PhiParams does up to it.
    """
    q = params.qp.q
    alphas, betas = params.alphas, params.betas
    terms = []
    t = 1.0 + 0.0j
    qj = 1.0 + 0.0j  # q^j
    expo = 1 + params.s - params.r
    for j in range(N + 1):
        terms.append(t)
        for a in alphas:
            t *= 1.0 - a * qj
        for b in betas:
            try:
                t /= 1.0 - b * qj
            except ZeroDivisionError:
                raise DenominatorPochhammerZero(
                    f"beta = {b} equals q^-{j}; series undefined") from None
        if expo:
            try:
                t *= (-qj) ** expo
            except (OverflowError, ZeroDivisionError):  # an infinite
                # factor; the non-finite rule below saturates t to zero
                t = complex(math.nan, math.nan)
        t /= 1.0 - qj * q
        qj *= q
        if not cmath.isfinite(t):
            t = 0.0 + 0.0j
    return TruncatedSeries(np.array(terms, dtype=np.complex128))


def exp_q(qp: QParam, N: int) -> TruncatedSeries:
    """q-exponential e_q^z = sum z^n/[n]_q!; the solution of D_q f = f
    with f(0) = 1. Identity: e_q^z = etilde_q((1-q) z).

    The coefficients 1/[n]_q! (_reciprocal_factorials) are kept
    read-only on qp for its lifetime and rebuilt only when a larger N is
    asked for; a prefix of a longer ladder is the shorter one. Every call
    builds its own series and certifies its radius on the first N + 1
    coefficients."""
    if N < 0:
        raise DomainError("coefficients must form a nonempty 1-d list")
    coeffs = qp._exp_coeffs
    if coeffs is None or coeffs.size <= N:
        coeffs = _reciprocal_factorials(q_brackets(N, qp),
                                        _bracket_array(N, qp))
        coeffs.setflags(write=False)
        object.__setattr__(qp, "_exp_coeffs", coeffs)
    return TruncatedSeries(coeffs[: N + 1])


def _reciprocal_factorials(brackets: list, ladder: np.ndarray) -> np.ndarray:
    """1/[n]_q! for n = 0 .. N from the brackets [0]_q .. [N]_q, given as
    a list of Python complex and as the same values in an array: the
    running quotient c_n = c_{n-1} / [n]_q from c_0 = 1, or 0 from a
    bracket that is zero or whose real part is not finite.

    Up to the first bracket whose modulus is zero or not finite, which
    the array finds, the quotients are one accumulate of CPython's
    complex division on the list (numpy divides complex numbers by
    another method, and would move last bits); from that bracket on,
    the loop takes the rule bracket by bracket."""
    N = len(brackets) - 1
    parts = ladder[1:].view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.hypot(parts[0::2], parts[1::2])
    plain = np.isfinite(sizes) & (sizes > 0)
    stop = N + 1 if plain.all() else int(np.argmin(plain)) + 1
    head = list(itertools.accumulate(brackets[1:stop], operator.truediv,
                                     initial=1.0 + 0.0j))
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    coeffs[:stop] = head
    c = head[-1]
    for n in range(stop, N + 1):
        br = brackets[n]
        c = c / br if (math.isfinite(br.real) and abs(br) > 0) else 0.0
        coeffs[n] = c
    return coeffs


def etilde_q(qp: QParam, N: int) -> TruncatedSeries:
    """Series sum z^n/(q;q)_n = 1phi0(0;-;q,z); solves
    D_q f + f/(q-1) = 0."""
    return phi_rs(PhiParams((0.0,), (), qp), N)


def big_e_q(qp: QParam, N: int) -> TruncatedSeries:
    """Series sum q^{n(n-1)/2} z^n/(q;q)_n = 0phi0(-;-;q,-z), the
    reciprocal partner of etilde_q: etilde_q(z) * big_e_q(-z) = 1."""
    return phi_rs(PhiParams((), (), qp), N).scale_arg(-1)


def sinq_cosq(qp: QParam, N: int):
    """q-sine and q-cosine from exp_q's coefficients e_n = 1/[n]_q!:

        cos_q = (e_q^{iz} + e_q^{-iz})/2 = sum_n (-1)^n e_{2n} z^{2n},
        sin_q = (e_q^{iz} - e_q^{-iz})/(2i) = sum_n (-1)^n e_{2n+1} z^{2n+1}.

    They solve D_q^2 f + f = 0 with D_q sin_q = cos_q and
    D_q cos_q = -sin_q. Every coefficient is 0 or +-e_n, so
    |c_n| <= |e_n| for all n: exp_q's geometric tail model bounds both
    tails too, and both carry exp_q's certified radius, certified when
    one of theirs is first read.
    """
    e = exp_q(qp, N)
    n = np.arange(N + 1)
    signed = np.where(n % 4 < 2, e.coeffs, -e.coeffs)
    odd = n % 2 == 1
    sin_q = e._sharing_radius(np.where(odd, signed, 0.0), e)
    cos_q = e._sharing_radius(np.where(odd, 0.0, signed), e)
    return sin_q, cos_q


# ---------------------------------------------------------------------------
# Product forms with exact zero lattices
# ---------------------------------------------------------------------------


_POCHHAMMER_MAX_FACTORS = 100000
_TAIL_FROM = 1e-2  # |t_n| below which log_abs sums a lattice in closed form


def _lattice_product(t, q: complex, tol: float, reduce: str, tail=None):
    """The factors 1 - t_n of a lattice product, for t_0 = t and
    t_{n+1} = t_n rho, rho = 1/q if |q| > 1, else q, reduced to one of

        "prod"     prod_n (1 - t_n)                      (eval)
        "log"      sum_n Log(1 - t_n), principal logs    (log_eval)
        "log_abs"  sum_n log|1 - t_n|, real              (log_abs)

    "prod" and "log" take each point's factors down to its first |t_n|
    below the cutoff tol (1 - |rho|). "log_abs" takes them down to its
    first |t_n| below _TAIL_FROM = delta and then adds the rest of the
    lattice in closed form: for |t| < 1

        sum_{n>=0} log|1 - t rho^n| = -Re sum_{k>=1} c_k t^k,
        c_k = 1/(k (1 - rho^k)),

    by Horner on the K terms of tail = (c_K, ..., c_1), which the caller
    passes from _tail_coeffs(q) ("log_abs" alone reads it). K is the least
    count with delta^(K+1)/((K+1)(1 - |rho|)(1 - delta)) <= 2^-60, which
    bounds the dropped terms (|1 - rho^k| >= 1 - |rho|^k), so the sum is
    within 2^-60 of the whole lattice's; the direct factors and Horner
    add their rounding. "log_abs" takes the float log of the modulus, a
    vectorised loop, where the complex log calls the C library's clog
    once per element (about 40 times slower on a circle); it is the real
    part of "log" up to the latter's truncation and a few ulp. A numpy
    array t gives, bit for bit, what the one-point loop gives on each of
    its elements ("prod" and "log"), or what one element gives alone
    ("log_abs" takes arrays only).

    On arrays each step is one masked numpy step over all points, each
    point keeping its own t_n once it stops, except that "log_abs" first
    sums in bulk the K + 1 rows t_0 .. t_K that every point keeps live
    (_bulk_steps, _log_abs_bulk): K the largest count with
    min|t_0| (|rho| (1 - 1e-12))^K >= delta, a margin above the rounding
    of K steps, so no mask is needed. On a circle the masked loop then
    runs no step (one only where |t_(K+1)| falls inside that margin), and
    max|t_0| (|rho| (1 + 1e-12))^(K+1) < delta proves it without a scan.
    Arrays of one point skip the bulk, since numpy would sum a one-column
    block pairwise.
    One precondition, checked once for a point or an array before the
    first step, raises DomainError unless it holds: max|t_0| is finite (no
    NaN or infinite part, no modulus past double range, where log|1 - t_0|
    would read inf) and falls below the cutoff within the factor budget
    (|q| near 1, _check_factor_budget), for every reduction.
    """
    shrink = abs(q) > 1.0
    ratio = 1.0 / abs(q) if shrink else abs(q)
    cutoff = tol * (1.0 - ratio)
    mags = np.abs(t)
    top = float(mags.max(initial=0.0))
    if not math.isfinite(top):
        raise DomainError("a lattice point z/z_0 not finite or with |z/z_0| "
                          "past double range: the product leaves it too")
    _check_factor_budget(top, ratio, cutoff)
    if not isinstance(t, np.ndarray):
        log = reduce == "log"
        out = 0.0 + 0.0j if log else 1.0 + 0.0j
        while abs(t) >= cutoff:
            out = out + np.log(1.0 - t) if log else out * (1.0 - t)
            t = t / q if shrink else t * q
        return complex(out)
    start, step = _REDUCTIONS[reduce]
    if reduce == "log_abs":  # direct factors down to delta, then the tail
        cutoff = _TAIL_FROM
        steps = _bulk_steps(mags, ratio, cutoff)
        out, t = _log_abs_bulk(t, q, shrink, steps)
        if steps and _power(top, ratio * (1.0 + 1e-12), steps) < cutoff:
            return out - _log_abs_tail(t, tail)  # no point is live
        mags = np.abs(t)
    else:
        out = np.full(t.shape, start)
    live = mags >= cutoff
    while live.any():
        out = np.where(live, step(out, 1.0 - t), out)
        t = np.where(live, t / q if shrink else _times(t, q), t)
        live &= np.abs(t) >= cutoff
    if reduce == "log_abs":
        out = out - _log_abs_tail(t, tail)
    return out


def _tail_coeffs(q: complex) -> tuple:
    """(c_K, ..., c_1), c_k = 1/(k (1 - rho^k)), rho = 1/q if |q| > 1,
    else q: the closed-form tail of "log_abs" (_lattice_product), K the
    least count with _TAIL_FROM^(K+1)/((K+1)(1 - |rho|)(1 - _TAIL_FROM))
    <= 2^-60 (8 at |q| = 2). They depend on q alone."""
    rho = 1.0 / q if abs(q) > 1.0 else q
    gap = (1.0 - abs(rho)) * (1.0 - _TAIL_FROM)
    K = 1
    while _TAIL_FROM ** (K + 1) / ((K + 1) * gap) > 2.0 ** -60:
        K += 1
    return tuple(np.complex128(1.0 / (k * (1.0 - rho ** k)))
                 for k in range(K, 0, -1))


def _log_abs_tail(t: np.ndarray, tail: tuple) -> np.ndarray:
    """Re sum_k c_k t^k for tail = (c_K, ..., c_1), by Horner. Each step
    is elementwise and out of place (acc * t + c), so an element rounds
    alone as it does inside an array; a step written into an input
    rounds differently (polyroots.poly_eval_desc)."""
    acc = tail[0]
    for c in tail[1:]:
        acc = acc * t + c
    return (acc * t).real


def _check_tol(tol: float):
    """Refuse a truncation tolerance that is not finite and positive: a
    NaN or infinite tol would stop a lattice walk before its first
    factor, and tol <= 0 would never stop it."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol = {tol:g} is not finite and positive")


def _check_factor_budget(top: float, ratio: float, cutoff: float,
                         message: str = "the lattice product needs more "
                         "than {n} factors to reach |t_n| < {cutoff:.3g}"):
    """The step budget of every lattice walk, checked before its first
    step: refuse a finite top that needs more than _POCHHAMMER_MAX_FACTORS
    steps of ratio < 1 to fall below cutoff (a log estimate of the count).
    message names the walk; it is formatted with n, top and cutoff."""
    if math.isfinite(top) and top >= cutoff and (
            cutoff <= 0.0 or math.log(top) - math.log(cutoff)
            >= _POCHHAMMER_MAX_FACTORS * -math.log(ratio)):
        raise DomainError(message.format(
            n=_POCHHAMMER_MAX_FACTORS, top=top, cutoff=cutoff)
            + ": |q| is too close to 1")


def _times(x: np.ndarray, m) -> np.ndarray:
    """x * m rounded as the one-point loop rounds it: numpy's array
    product may fuse a multiply and an add, which moves last bits."""
    out = np.empty(np.broadcast(x, m).shape, dtype=np.complex128)
    scratch = np.empty(out.shape)
    re, im = out.real, out.imag
    np.subtract(np.multiply(x.real, m.real, out=re),
                np.multiply(x.imag, m.imag, out=scratch), out=re)
    np.add(np.multiply(x.real, m.imag, out=im),
           np.multiply(x.imag, m.real, out=scratch), out=im)
    return out


_BLOCK = 2 ** 14  # elements in one block of rows of the log_abs bulk phase
_TINY = float(np.finfo(float).tiny)


def _power(x: float, ratio: float, k: int) -> float:
    """x ratio^k, the power in two halves: ratio^k alone may underflow
    where x is large; its halves do not."""
    return x * ratio ** (k // 2) * ratio ** (k - k // 2)


def _bulk_steps(mags: np.ndarray, ratio: float, cutoff: float) -> int:
    """The count of rows t_0 .. t_K that every point keeps live: K + 1,
    K the most lattice steps with min(mags) (ratio (1 - 1e-12))^K >=
    cutoff, mags = |t_0|, all finite; 0 where min(mags) < cutoff (or the
    cutoff is subnormal), and for fewer than two points (numpy would sum
    a one-column block pairwise).
    Each computed step and np.abs round |t| by a few ulp, orders of
    magnitude below the 1e-12 margin per step, so every |t_n|, n <= K,
    is still >= cutoff and all K + 1 rows are live in the masked loop
    too."""
    if mags.size < 2:
        return 0
    lo = float(mags.min())
    if not lo >= cutoff >= _TINY:
        return 0
    ratio *= 1.0 - 1e-12
    steps = int((math.log(lo) - math.log(cutoff)) / -math.log(ratio))
    while steps and _power(lo, ratio, steps) < cutoff:
        steps -= 1
    return steps + 1


def _log_abs_bulk(t: np.ndarray, q: complex, shrink: bool, steps: int):
    """(sum_{n<S} log|1 - t_n|, t_S): the unmasked first S = steps rows
    of the "log_abs" reduction, t_0 .. t_(S-1), the K + 1 rows that
    _bulk_steps proves live (on a circle, every row the loop would take),
    and the row t_S after them.

    The rows t_1 .. t_S are built one row at a time by the masked loop's
    own step, t/q or _times(t, q), whose four real products stand in for
    numpy's complex multiply: its fused multiply-adds move last bits.
    Complex q inside the unit circle forms those products from the
    float64 view, in four calls where _times makes six; outside it
    np.divide stays. A real q multiplies the float64 view instead, one
    ufunc call per row: by q inside the unit circle, the same products as
    _times' six calls, and by 1/q outside it, which is what numpy's
    complex division by a divisor with a zero imaginary part computes
    (Smith's quotient with ratio 0 scales by 1/q). Both agree with the
    loop's step but for the sign of zero, which |t|, |1 - t| and the
    closed form's real part ignore; tests/test_lattice_step.py pins the
    quotient on finite points from 1e-300 to 1e300. The rows come in
    blocks of about _BLOCK elements (at least two rows) spanning all
    points: a 512-node circle takes one or two blocks, whose rows and
    float buffer for log|1 - t_n| take under 400 kB (a larger _BLOCK
    raised the peak RSS of a product's circles for little speed). A block
    takes log|1 - t_n| in one pass, the running sum goes in as its first
    row and np.add.reduce(axis=0) adds the rows in order, as the loop
    does."""
    flat = t.reshape(-1)
    if not steps:
        return np.zeros(t.shape), t
    height = min(steps, max(1, _BLOCK // flat.size))
    rows = np.empty((height + 1, flat.size), dtype=np.complex128)
    rows[0] = flat
    floats = rows.view(np.float64)
    if q.imag == 0.0:  # t/q divides by exactly 1/q
        factor = 1.0 / q.real if shrink else q.real
    elif not shrink:  # _times' products from the float view, four calls
        pairs = floats.reshape(height + 1, flat.size, 2)
        prods = np.empty((2, flat.size, 2))
    logs = np.empty((height, flat.size))
    out = np.zeros(flat.size)
    while steps:
        n = min(steps, height)
        if q.imag == 0.0:  # t/q or _times(t, q) up to the sign of zero
            for x, y in zip(floats[:n], floats[1:n + 1]):
                np.multiply(x, factor, out=y)
        elif shrink:
            for x, y in zip(rows[:n], rows[1:n + 1]):
                np.divide(x, q, out=y)
        else:  # re = (Re x, Im x) Re q, im = (Re x, Im x) Im q
            for x, y in zip(pairs[:n], pairs[1:n + 1]):
                re = np.multiply(x, q.real, out=prods[0])
                im = np.multiply(x, q.imag, out=prods[1])
                np.subtract(re[:, 0], im[:, 1], out=y[:, 0])
                np.add(im[:, 0], re[:, 1], out=y[:, 1])
        block = np.abs(np.subtract(1.0, rows[:n], out=rows[:n]), out=logs[:n])
        np.log(block, out=block)
        block[0] += out  # the running sum comes first, as in the loop
        np.add.reduce(block, axis=0, out=out)
        rows[0] = rows[n]
        steps -= n
    return out.reshape(t.shape), rows[0].reshape(t.shape)


# start value and step of each reduction of _lattice_product on arrays
_REDUCTIONS = {
    "prod": (1.0 + 0.0j, _times),
    "log": (0.0j, lambda out, f: out + np.log(f)),
    "log_abs": (0.0, lambda out, f: out + np.log(np.abs(f))),
}


def q_pochhammer_inf(a: complex, qp: QParam, tol: float = 1e-14) -> complex:
    """(a;q)_inf = prod_{n>=0} (1 - a q^n), for |q| < 1: the lattice
    kernel's one-point walk, _lattice_product at t_0 = a. It stops once
    |a q^n| < tol*(1-|q|), where the dropped tail multiplies the result by
    a factor within exp(+-2*tol) of 1, and raises DomainError before the
    first factor, not a truncated product, where the kernel refuses a: not
    finite, or more than 100000 factors to the cutoff (|q| near 1), and
    where tol is not finite and positive."""
    if abs(qp.q) >= 1.0:
        raise DomainError("q_pochhammer_inf requires |q| < 1")
    _check_tol(tol)
    return _lattice_product(complex(a), qp.q, tol, "prod")


@dataclass(frozen=True)
class LatticeProduct:
    """The entire f with f(qz) = R(z) f(z) and f(0) = 1, for the rational
    shift ratio R with R(0) = 1:

        f(z) = prod_{j>=1} R(z/q^j)       (|q| > 1, R a polynomial)
        f(z) = prod_{j>=0} 1/R(q^j z)     (|q| < 1, 1/R a polynomial).

    Each root a of that polynomial, of multiplicity m, gives m copies of
    the lattice prod_n (1 - z/z_n), z_0 = a q and z_{n+1} = z_n q for
    |q| > 1, z_0 = a and z_{n+1} = z_n/q for |q| < 1; these are all the
    zeros of f. The roots, and the closed-form tail's coefficients, which
    depend on q alone, are read once, at construction. eval and log_eval
    take a point or a numpy array of points and stop each lattice at its
    first |z/z_n| below tol (1 - min(|q|, 1/|q|)); log_abs gives log|f| as
    a real sum, without a complex log, on an array (a point is a
    one-element array), the one reduction a quadrature circle needs, and
    sums each lattice's small factors in closed form, within 2^-60 of the
    whole product (_lattice_product). tol, refused at construction
    unless finite and positive, also sets the factor budget that every
    call checks, so log_abs refuses what eval refuses. Each
    runs _lattice_product once per lattice at t_0 = z/z_0 and combines the
    results starting from the first, so a single lattice gives that call's
    value unchanged.
    """

    shift_ratio: RationalFunction
    qp: QParam
    tol: float = 1e-14

    def __post_init__(self):
        _check_tol(self.tol)
        R, q = self.shift_ratio, self.qp.q  # QParam refuses |q| = 1
        if R.den[0] == 0 or abs(R.num[0] - R.den[0]) > 1e-12 * abs(R.den[0]):
            raise DomainError("shift ratio must equal 1 at the origin")
        grow = abs(q) > 1.0
        if R.den_degree if grow else R.num_degree:
            raise DomainError("this shift ratio gives f poles; a lattice "
                              "product is entire")
        roots = R.zeros() if grow else R.poles()
        object.__setattr__(self, "_lattices",
                           tuple((a * q if grow else a, m) for a, m in roots))
        object.__setattr__(self, "_tail", _tail_coeffs(q))

    def _reduce(self, z, reduce: str):
        q, tol = self.qp.q, self.tol
        parts = []
        for z0, m in self._lattices:
            # a non-finite z/z_0 is the kernel's to refuse, not numpy's
            with np.errstate(invalid="ignore", over="ignore"):
                t = z / z0
            parts += [_lattice_product(t, q, tol, reduce, self._tail)] * m
        if not parts:  # R = 1, so f = 1
            return np.full(np.shape(z), _REDUCTIONS[reduce][0])[()]
        combine = operator.mul if reduce == "prod" else operator.add
        return functools.reduce(combine, parts)

    def eval(self, z):
        return self._reduce(z, "prod")

    def log_eval(self, z):
        """Principal-branch sum of logs; real part is log|f|."""
        return self._reduce(z, "log")

    def log_abs(self, z):
        """log|f| as a float array shaped like z, without a complex log."""
        z = np.asarray(z, dtype=np.complex128)
        return self._reduce(np.atleast_1d(z), "log_abs").reshape(z.shape)

    def zeros_up_to(self, radius: float):
        """All zeros with modulus <= radius, lattice by lattice, as
        (location, mult). The walk out from the nearest lattice base
        refuses on the factor budget as the kernel does (|q| near 1), and
        a radius that is not finite raises DomainError."""
        if not math.isfinite(radius):
            raise DomainError(f"radius r = {radius:g} is not finite")
        q = self.qp.q
        grow = abs(q) > 1.0
        _check_factor_budget(
            radius, min(abs(q), 1.0 / abs(q)),
            min((abs(z0) for z0, _ in self._lattices), default=math.inf),
            "the zero walk needs more than {n} factors to pass radius "
            "{top:g}")
        out = []
        for zn, m in self._lattices:
            while abs(zn) <= radius:
                out.append((zn, m))
                zn = zn * q if grow else zn / q
        return out


# The two fixed shift ratios, built once with their exact roots attached,
# so that constructing either product solves no polynomial.
_ETILDE_RATIO = RationalFunction.from_roots([1.0], [], lead=-1.0)  # 1 - z
_BIG_E_RATIO = RationalFunction.from_roots([], [-1.0])  # 1/(1 + z)


class EtildeProduct(LatticeProduct):
    """etilde_q as the entire product prod_{n>=1}(1 - q^{-n} z), |q| > 1:
    the LatticeProduct of R(z) = 1 - z. Zeros sit exactly on the geometric
    lattice {q^n : n >= 1}, all simple, and D_q f / f = -1/(q-1).
    """

    def __init__(self, qp: QParam, tol: float = 1e-14):
        if abs(qp.q) <= 1.0:
            raise RegimeMismatch("etilde product form requires |q| > 1")
        super().__init__(_ETILDE_RATIO, qp, tol)

    # an attribute of this class, so that each product's log_eval can be
    # wrapped and counted on its own class
    log_eval = LatticeProduct.log_eval


class BigEProduct(LatticeProduct):
    """big_e_q as the entire product prod_{n>=0}(1 + q^n z), |q| < 1: the
    LatticeProduct of R(z) = 1/(1 + z). Zeros sit exactly on
    {-q^{-n} : n >= 0}, all simple, and D_q f + f/((q-1)(z+1)) = 0.
    """

    def __init__(self, qp: QParam, tol: float = 1e-14):
        if abs(qp.q) >= 1.0:
            raise RegimeMismatch("big-E product form requires |q| < 1")
        super().__init__(_BIG_E_RATIO, qp, tol)

    # as for EtildeProduct.log_eval
    log_eval = LatticeProduct.log_eval


def product_solution(P, qp: QParam, tol: float = 1e-14) -> LatticeProduct:
    """The entire solution with f(0) = 1 of D_q f = P(z) f(qz), for
    |q| < 1 and a polynomial P (coefficients lowest first):

        f(z) = prod_{j>=0} (1 + (1-q) q^j z P(q^j z)),

    the LatticeProduct of R = 1/(1 + (1-q) z P(z)). For constant P = a
    this is exp_{1/q}(a z).
    """
    if abs(qp.q) >= 1.0:
        raise RegimeMismatch("product solution requires |q| < 1")
    den = np.append(1.0, (1.0 - qp.q) * np.asarray(P, dtype=np.complex128))
    return LatticeProduct(RationalFunction([1.0], den), qp, tol)
