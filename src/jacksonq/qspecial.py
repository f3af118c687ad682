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
from .qcore import QParam, TruncatedSeries, q_bracket
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
    with f(0) = 1. Identity: e_q^z = etilde_q((1-q) z)."""
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    c = 1.0 + 0.0j
    coeffs[0] = c
    for n in range(1, N + 1):
        br = q_bracket(n, qp)
        c = c / br if (math.isfinite(br.real) and abs(br) > 0) else 0.0
        coeffs[n] = c
    return TruncatedSeries(coeffs)


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


def _lattice_product(t, q: complex, tol: float, log: bool):
    """prod_n (1 - t_n) for t_0 = t and t_{n+1} = t_n/q if |q| > 1, else
    t_n q, each point stopping at its first |t_n| below
    tol (1 - min(|q|, 1/|q|)); with log, the sum of the factors'
    principal logs. A numpy array t gives, bit for bit, what the
    one-point loop gives on each of its elements."""
    shrink = abs(q) > 1.0
    cutoff = tol * (1.0 - (1.0 / abs(q) if shrink else abs(q)))
    if not isinstance(t, np.ndarray):
        out = 0.0 + 0.0j if log else 1.0 + 0.0j
        while abs(t) >= cutoff:
            out = out + np.log(1.0 - t) if log else out * (1.0 - t)
            t = t / q if shrink else t * q
        return complex(out)
    out = np.full(t.shape, 0.0j if log else 1.0 + 0.0j)
    live = np.abs(t) >= cutoff
    while live.any():
        f = 1.0 - t
        out = np.where(live, out + np.log(f) if log else _times(out, f), out)
        t = t / q if shrink else _times(t, q)
        live &= np.abs(t) >= cutoff
    return out


def _times(x: np.ndarray, m) -> np.ndarray:
    """x * m rounded as the one-point loop rounds it: numpy's array
    product may fuse a multiply and an add, which moves last bits."""
    out = np.empty(np.broadcast(x, m).shape, dtype=np.complex128)
    out.real = x.real * m.real - x.imag * m.imag
    out.imag = x.real * m.imag + x.imag * m.real
    return out


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
    take a point or a numpy array of points.
    """

    qp: QParam
    tol: float = 1e-14

    def __post_init__(self):
        if abs(self.qp.q) <= 1.0:
            raise RegimeMismatch("etilde product form requires |q| > 1")

    def eval(self, z):
        return _lattice_product(z / self.qp.q, self.qp.q, self.tol, False)

    def log_eval(self, z):
        """Principal-branch sum of logs; real part is log|f|."""
        return _lattice_product(z / self.qp.q, self.qp.q, self.tol, True)

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
    a point or a numpy array of points.
    """

    qp: QParam
    tol: float = 1e-14

    def __post_init__(self):
        if abs(self.qp.q) >= 1.0:
            raise RegimeMismatch("big-E product form requires |q| < 1")

    def eval(self, z):
        return _lattice_product(z / (-1.0 + 0.0j), self.qp.q, self.tol, False)

    def log_eval(self, z):
        return _lattice_product(z / (-1.0 + 0.0j), self.qp.q, self.tol, True)

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
