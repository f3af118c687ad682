"""q-special functions in series and product form.

Series forms (coefficients of z^n):

    exp_q      1/[n]_q!                 solves D_q f = f
    etilde_q   1/(q;q)_n                solves D_q f + f/(q-1) = 0
    big_e_q    q^{n(n-1)/2}/(q;q)_n     satisfies etilde_q(z) big_e_q(-z) = 1

and the basic hypergeometric series

    phi_rs: sum_j  prod(alpha_i;q)_j / prod(beta_i;q)_j
                   * [(-1)^j q^{j(j-1)/2}]^{1+s-r} * z^j / (q;q)_j.

Product forms carry exact zero lattices, which downstream counting
functions use verbatim:

    etilde_q(z) = prod_{n>=1} (1 - q^{-n} z)   (|q| > 1, zeros at q^n)
    big_e_q(z)  = prod_{n>=0} (1 + q^n z)      (|q| < 1, zeros at -q^{-n})

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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DenominatorPochhammerZero, RegimeMismatch
from .qcore import QParam, TruncatedSeries, q_brackets
from .qode import RationalFunction
from .qoperator import Sampler


@dataclass(frozen=True)
class PhiParams:
    """Parameters of the basic hypergeometric series _r phi_s.

    Construction checks that no lower parameter beta_j equals q^{-m} for
    0 <= m <= guard_order, which would zero a denominator Pochhammer.
    """

    alphas: tuple
    betas: tuple
    qp: QParam
    guard_order: int = 64

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(complex(b) for b in self.betas))
        q = self.qp.q
        qm = 1.0 + 0.0j
        for m in range(self.guard_order + 1):
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


def phi_rs(params: PhiParams, N: int, z: Optional[complex] = None):
    """Basic hypergeometric series to order N; evaluated at z if given.

    Term ladder: t_0 = 1 and

        t_{j+1}/t_j = prod_i (1 - alpha_i q^j) / prod_i (1 - beta_i q^j)
                      * [(-1) q^j]^{1+s-r} / (1 - q^{j+1}).
    """
    q = params.qp.q
    alphas, betas = params.alphas, params.betas
    terms = []
    t = 1.0 + 0.0j
    qj = 1.0 + 0.0j  # q^j
    expo = 1 + params.s - params.r
    for _ in range(N + 1):
        terms.append(t)
        for a in alphas:
            t *= 1.0 - a * qj
        for b in betas:
            t /= 1.0 - b * qj
        if expo:
            try:
                t *= (-qj) ** expo
            except OverflowError:  # |q^j| ** expo left double range;
                # the non-finite rule below saturates t to exact zero
                t = complex(math.nan, math.nan)
        t /= 1.0 - qj * q
        qj *= q
        if not cmath.isfinite(t):
            t = 0.0 + 0.0j
    series = TruncatedSeries(np.array(terms, dtype=np.complex128))
    if z is None:
        return series
    return series.eval(z)


def exp_q(qp: QParam, N: int) -> TruncatedSeries:
    """q-exponential e_q^z = sum z^n/[n]_q!; the solution of D_q f = f
    with f(0) = 1. Identity: e_q^z = etilde_q((1-q) z).

    The coefficients 1/[n]_q! are kept read-only on qp for its lifetime
    and rebuilt only when a larger N is asked for; each is the running
    quotient over the brackets up to n, so a prefix of a longer ladder is
    the shorter one. Every call builds its own series and certifies its
    radius on the first N + 1 coefficients."""
    coeffs = qp._exp_coeffs
    if coeffs is None or coeffs.size <= N:
        coeffs = np.zeros(N + 1, dtype=np.complex128)
        c = 1.0 + 0.0j
        coeffs[0] = c
        brackets = q_brackets(N, qp)
        for n in range(1, N + 1):
            br = brackets[n]
            c = c / br if (math.isfinite(br.real) and abs(br) > 0) else 0.0
            coeffs[n] = c
        coeffs.setflags(write=False)
        object.__setattr__(qp, "_exp_coeffs", coeffs)
    return TruncatedSeries(coeffs[: N + 1])


def etilde_q(qp: QParam, N: int) -> TruncatedSeries:
    """Series sum z^n/(q;q)_n = 1phi0(0;-;q,z); solves
    D_q f + f/(q-1) = 0."""
    return phi_rs(PhiParams((0.0,), (), qp), N)


def big_e_q(qp: QParam, N: int) -> TruncatedSeries:
    """Series sum q^{n(n-1)/2} z^n/(q;q)_n = 0phi0(-;-;q,-z), the
    reciprocal partner of etilde_q: etilde_q(z) * big_e_q(-z) = 1."""
    return phi_rs(PhiParams((), (), qp), N).scale_arg(-1)


def sinq_cosq(qp: QParam, N: int):
    """q-sine and q-cosine built from exp_q via z -> +-iz:

        cos_q = (e_q^{iz} + e_q^{-iz})/2,   sin_q = (e_q^{iz} - e_q^{-iz})/(2i).

    They solve D_q^2 f + f = 0 with D_q sin_q = cos_q and
    D_q cos_q = -sin_q; sin_q keeps only odd powers, cos_q only even.
    """
    e = exp_q(qp, N)
    ei = e.scale_arg(1j)
    emi = e.scale_arg(-1j)
    sin_q = (ei - emi) * (1.0 / 2j)
    cos_q = (ei + emi) * 0.5
    return sin_q, cos_q


# ---------------------------------------------------------------------------
# Product forms with exact zero lattices
# ---------------------------------------------------------------------------


def _lattice_product(t, q: complex, tol: float, reduce: str):
    """The factors 1 - t_n of a lattice product, for t_0 = t and
    t_{n+1} = t_n/q if |q| > 1, else t_n q, each point stopping at its
    first |t_n| below tol (1 - min(|q|, 1/|q|)), reduced to one of

        "prod"     prod_n (1 - t_n)                      (eval)
        "log"      sum_n Log(1 - t_n), principal logs    (log_eval)
        "log_abs"  sum_n log|1 - t_n|, real              (log_abs)

    "log_abs" is the real part of "log", log|f|, which is all a
    quadrature circle needs. It takes the float log of the modulus, a
    vectorised loop, where the complex log calls the C library's clog
    once per element (about 40 times slower on a circle); the two round
    differently, so they agree to a few ulp of log|f|, not bit for bit.
    A numpy array t gives, bit for bit, what the one-point loop gives on
    each of its elements; "log_abs" takes arrays only, a point being a
    one-element array.

    On arrays each step is one masked numpy step over all points, except
    that "log_abs" first runs K steps in bulk, K the largest count with
    min|t_0| (ratio (1 - 1e-12))^K >= 4 cutoff, ratio = min(|q|, 1/|q|):
    the margins exceed the rounding of K steps, so every point is live
    through all of them and no mask is needed. The rows t_1 .. t_K are
    built one row at a time by the loop's own step, t/q or _times(t, q),
    whose four real products stand in for numpy's complex multiply: its
    fused multiply-adds move last bits. A real q inside the unit circle
    multiplies the float64 view instead, one ufunc call for _times' six:
    the same products but for the sign of zero, which |t| and |1 - t|
    ignore. The rows come in blocks of about _BLOCK elements (at least
    two rows) spanning all points. A block takes log|1 - t_n| in one
    pass, the running sum goes in as its first row and
    np.add.reduce(axis=0) adds the rows in order, as the loop does; numpy
    would sum a one-column block pairwise instead, so arrays of one point
    skip the bulk. The masked loop then finishes from t_K.
    """
    shrink = abs(q) > 1.0
    cutoff = tol * (1.0 - (1.0 / abs(q) if shrink else abs(q)))
    if not isinstance(t, np.ndarray):
        log = reduce == "log"
        out = 0.0 + 0.0j if log else 1.0 + 0.0j
        while abs(t) >= cutoff:
            out = out + np.log(1.0 - t) if log else out * (1.0 - t)
            t = t / q if shrink else t * q
        return complex(out)
    start, step = _REDUCTIONS[reduce]
    if reduce == "log_abs":
        out, t = _log_abs_bulk(t, q, shrink, cutoff)
    else:
        out = np.full(t.shape, start)
    live = np.abs(t) >= cutoff
    while live.any():
        out = np.where(live, step(out, 1.0 - t), out)
        t = t / q if shrink else _times(t, q)
        live &= np.abs(t) >= cutoff
    return out


def _times(x: np.ndarray, m, out=None, scratch=None) -> np.ndarray:
    """x * m rounded as the one-point loop rounds it: numpy's array
    product may fuse a multiply and an add, which moves last bits. out
    (not x) and a float scratch of its shape may be given to reuse."""
    if out is None:
        out = np.empty(np.broadcast(x, m).shape, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(out.shape)
    re, im = out.real, out.imag
    np.subtract(np.multiply(x.real, m.real, out=re),
                np.multiply(x.imag, m.imag, out=scratch), out=re)
    np.add(np.multiply(x.real, m.imag, out=im),
           np.multiply(x.imag, m.real, out=scratch), out=im)
    return out


_BLOCK = 2 ** 12  # elements in one block of rows of the log_abs bulk phase


def _bulk_steps(flat: np.ndarray, q: complex, shrink: bool,
                cutoff: float) -> int:
    """K, the most lattice steps with min|t_0| (ratio (1 - 1e-12))^K >=
    4 cutoff; 0 for fewer than two points, whose one-column block numpy
    would sum pairwise, or for non-finite ones."""
    if flat.size < 2:
        return 0
    mags = np.abs(flat)
    lo, floor = float(mags.min()), 4.0 * cutoff
    if not (np.isfinite(mags.max()) and lo >= floor >= np.finfo(float).tiny):
        return 0
    ratio = (1.0 / abs(q) if shrink else abs(q)) * (1.0 - 1e-12)
    steps = int((math.log(lo) - math.log(floor)) / -math.log(ratio))
    while steps and lo * ratio ** steps < floor:
        steps -= 1
    return steps


def _log_abs_bulk(t: np.ndarray, q: complex, shrink: bool, cutoff: float):
    """(sum_{n<K} log|1 - t_n|, t_K): the unmasked first K steps of the
    "log_abs" reduction, K = _bulk_steps."""
    flat = t.reshape(-1)
    steps = _bulk_steps(flat, q, shrink, cutoff)
    if not steps:
        return np.zeros(t.shape), t
    height = min(steps, max(1, _BLOCK // flat.size))
    rows = np.empty((height + 1, flat.size), dtype=np.complex128)
    rows[0] = flat
    out = np.zeros(flat.size)
    tmp = np.empty(flat.size)
    while steps:
        n = min(steps, height)
        for x, y in zip(rows[:n], rows[1:n + 1]):
            if shrink:
                np.divide(x, q, out=y)
            elif q.imag == 0.0:  # _times up to the sign of zero
                np.multiply(x.view(np.float64), q.real, out=y.view(np.float64))
            else:
                _times(x, q, y, tmp)
        logs = np.abs(np.subtract(1.0, rows[:n], out=rows[:n]))
        np.log(logs, out=logs)
        logs[0] += out  # the running sum comes first, as in the loop
        out = np.add.reduce(logs, axis=0)
        rows[0] = rows[n]
        steps -= n
    return out.reshape(t.shape), rows[0].reshape(t.shape)


# start value and step of each reduction of _lattice_product on arrays
_REDUCTIONS = {
    "prod": (1.0 + 0.0j, _times),
    "log": (0.0j, lambda out, f: out + np.log(f)),
    "log_abs": (0.0, lambda out, f: out + np.log(np.abs(f))),
}


def _lattice_zeros(zero: complex, q: complex, radius: float) -> list:
    """(z_n, 1) for the zeros z_0 = zero, z_{n+1} = z_n q if |q| > 1, else
    z_n/q, up to modulus radius: the zeros of prod_n (1 - z/z_n)."""
    out = []
    zn = complex(zero)
    while abs(zn) <= radius:
        out.append((zn, 1))
        zn = zn * q if abs(q) > 1.0 else zn / q
    return out


@dataclass(frozen=True)
class EtildeProduct:
    """etilde_q as the entire product prod_{n>=1}(1 - q^{-n} z), |q| > 1.

    Zeros sit exactly on the geometric lattice {q^n : n >= 1}, all simple;
    f(qz) = (1 - z) f(z), so D_q f / f = -1/(q-1). eval and log_eval
    take a point or a numpy array of points; log_abs gives log|f| as the
    real sum of log|1 - q^{-n} z|, the one reduction a quadrature circle
    needs, on an array (a point is a one-element array).
    """

    qp: QParam
    tol: float = 1e-14

    def __post_init__(self):
        if abs(self.qp.q) <= 1.0:
            raise RegimeMismatch("etilde product form requires |q| > 1")

    def eval(self, z):
        return _lattice_product(z / self.qp.q, self.qp.q, self.tol, "prod")

    def log_eval(self, z):
        """Principal-branch sum of logs; real part is log|f|."""
        return _lattice_product(z / self.qp.q, self.qp.q, self.tol, "log")

    def log_abs(self, z):
        """log|f| as a float array shaped like z, without a complex log."""
        z = np.asarray(z, dtype=np.complex128)
        return _lattice_product(np.atleast_1d(z) / self.qp.q, self.qp.q,
                                self.tol, "log_abs").reshape(z.shape)

    def zeros_up_to(self, radius: float):
        """All lattice zeros with modulus <= radius, as (location, mult)."""
        return _lattice_zeros(self.qp.q, self.qp.q, radius)

    @property
    def shift_ratio(self) -> RationalFunction:
        """R with f(qz) = R(z) f(z): here R(z) = 1 - z."""
        return RationalFunction([1.0, -1.0])

    def sampler(self) -> Sampler:
        return Sampler(self.eval)


@dataclass(frozen=True)
class BigEProduct:
    """big_e_q as the entire product prod_{n>=0}(1 + q^n z), |q| < 1.

    Zeros sit exactly on {-q^{-n} : n >= 0}, all simple; f(qz) =
    f(z)/(1 + z), so D_q f + f/((q-1)(z+1)) = 0. eval and log_eval take
    a point or a numpy array of points; log_abs gives log|f| as the real
    sum of log|1 + q^n z|, without a complex log, as EtildeProduct does.
    """

    qp: QParam
    tol: float = 1e-14

    def __post_init__(self):
        if abs(self.qp.q) >= 1.0:
            raise RegimeMismatch("big-E product form requires |q| < 1")

    def eval(self, z):
        return _lattice_product(z / (-1.0 + 0.0j), self.qp.q, self.tol, "prod")

    def log_eval(self, z):
        return _lattice_product(z / (-1.0 + 0.0j), self.qp.q, self.tol, "log")

    def log_abs(self, z):
        z = np.asarray(z, dtype=np.complex128)
        return _lattice_product(np.atleast_1d(z) / (-1.0 + 0.0j), self.qp.q,
                                self.tol, "log_abs").reshape(z.shape)

    def zeros_up_to(self, radius: float):
        return _lattice_zeros(-1.0 + 0.0j, self.qp.q, radius)

    @property
    def shift_ratio(self) -> RationalFunction:
        """R with f(qz) = R(z) f(z): here R(z) = 1/(1 + z)."""
        return RationalFunction([1.0], [1.0, 1.0])

    def sampler(self) -> Sampler:
        return Sampler(self.eval)


def etilde_product(z: complex, qp: QParam, tol: float = 1e-14) -> complex:
    """Pointwise etilde_q(z) by its infinite product (|q| > 1)."""
    return EtildeProduct(qp, tol).eval(z)


def big_e_product(z: complex, qp: QParam, tol: float = 1e-14) -> complex:
    """Pointwise big_e_q(z) by its infinite product (|q| < 1)."""
    return BigEProduct(qp, tol).eval(z)
