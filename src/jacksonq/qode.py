"""Series solver and residual verifier for linear Jackson q-difference
equations

    D_q^k f + A(z) f = B(z)    and    D_q^k f(z) + A(z) f(q^k z) = 0

with rational coefficients analytic at the origin. Matching coefficients
of z^n turns both into one explicit recurrence, with s = 0 for the first
form and s = k, b = 0 for the argument-shifted one:

    c_{n+k} * prod_{j=1..k} [n+j]_q = b_n - sum_m a_m q^{s(n-m)} c_{n-m},

where a, b are the origin expansions of A, B; the first k coefficients
are free initial data. The solvers never expand A = P/Q: the term A f
solves a recurrence with a band of deg P + 1 and deg Q terms
(_recurrence), so a solve to order N costs O(N (deg P + deg Q)).
Both forms share one overflow rule: the solvers raise BracketOverflow
once a bracket product or a new coefficient is not finite, and never
return non-finite coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BracketOverflow,
    BracketUnderflow,
    CoefficientPoleAtOrigin,
    ConditioningWarning,
    DomainError,
    FormalRegimeWarning,
    OutsideDomain,
)
from .polyroots import (
    CLUSTER_TOL,
    poly_deflate,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_trim,
    roots_with_multiplicity,
)
from .qcore import QParam, TruncatedSeries, _banded_steps, _bracket_array
from .qoperator import Pointwise, _closed_form, dqk_series

_CONDITION_WARN = 1e-3


class RationalFunction:
    """Ratio of two complex polynomials, kept coprime by cancelling the
    roots that the numerator and denominator share unless built with
    cancel=False.

    zeros() and poles() are the function's root lists, sorted
    (location, multiplicity) pairs kept on the instance: the lists
    attached by from_roots, or else one solve per polynomial. A solve
    reads the origin multiplicity exactly off the coefficients (the index
    of the first nonzero one, the order origin_order gives) and finds the
    other roots with roots_with_multiplicity on the rest. Cancelling
    solves both polynomials at construction, so it keeps both lists.
    """

    def __init__(self, num, den=(1.0,), cancel: bool = True):
        num = poly_trim(num)
        den = poly_trim(den)
        if np.all(np.abs(den) == 0.0):
            raise DomainError("denominator is identically zero")
        self.num = num
        self.den = den
        self._zeros = None
        self._poles = None
        if cancel and num.size > 1 and den.size > 1 and np.any(np.abs(num) > 0):
            self._cancel_common()

    @classmethod
    def from_roots(cls, zeros: Sequence[complex], poles: Sequence[complex],
                   lead: complex = 1.0) -> "RationalFunction":
        """Build from explicit zero/pole lists; the lists are attached
        exactly, bypassing the root finder."""
        obj = cls(poly_from_roots(zeros, lead), poly_from_roots(poles),
                  cancel=False)
        obj._zeros = _group(zeros)
        obj._poles = _group(poles)
        return obj

    @property
    def num_degree(self) -> int:
        return self.num.size - 1

    @property
    def den_degree(self) -> int:
        return self.den.size - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(np.abs(self.num) == 0.0))

    @property
    def is_polynomial(self) -> bool:
        return self.den_degree == 0

    def eval(self, z):
        return poly_eval(self.num, z) / poly_eval(self.den, z)

    def __call__(self, z):
        return self.eval(z)

    def zeros(self):
        if self._zeros is None:
            self._zeros = _root_list(self.num)
        return self._zeros

    def poles(self):
        if self._poles is None:
            self._poles = _root_list(self.den)
        return self._poles

    def _cancel_common(self):
        """Pair each zero with a pole within CLUSTER_TOL of the scale
        max(1, max |z|) of both lists, deflate num and den by the shared
        multiplicity (at their midpoint, or at 0 within the tolerance of
        the origin) and keep both lists less the shared entries."""
        zeros, poles = _root_list(self.num), _root_list(self.den)
        tol = CLUSTER_TOL * max([1.0] + [abs(z) for z, _ in zeros + poles])
        num, den = self.num, self.den
        for i, (zloc, zm) in enumerate(zeros):
            for j, (ploc, pm) in enumerate(poles):
                if pm and abs(zloc - ploc) <= tol:
                    shared = min(zm, pm)
                    root = 0.5 * (zloc + ploc)
                    if abs(root) < tol:
                        root = 0.0
                    for _ in range(shared):
                        num = poly_deflate(num, root)
                        den = poly_deflate(den, root)
                    zeros[i] = (zloc, zm - shared)
                    poles[j] = (ploc, pm - shared)
                    break
        self.num, self.den = poly_trim(num), poly_trim(den)
        self._zeros = [(z, m) for z, m in zeros if m]
        self._poles = [(z, m) for z, m in poles if m]

    def origin_order(self) -> tuple[int, int]:
        """(ord_0 num, ord_0 den): indices of the first nonzero coefficients."""
        on = int(np.flatnonzero(np.abs(self.num) > 0)[0]) if not self.is_zero else 0
        od = int(np.flatnonzero(np.abs(self.den) > 0)[0])
        return on, od

    def origin_leading(self) -> tuple[int, complex]:
        """Leading origin exponent lam and coefficient c_lam of the local
        expansion f = c_lam z^lam (1 + O(z))."""
        if self.is_zero:
            raise DomainError("zero function has no leading coefficient")
        on, od = self.origin_order()
        return on - od, complex(self.num[on] / self.den[od])

    def origin_series(self, order: int) -> TruncatedSeries:
        """Taylor expansion at the origin; requires den(0) != 0: num / den
        by TruncatedSeries.divide, so a polynomial that fits the order
        (a constant denominator) stays an exact polynomial.

        The expansion at each order is kept on the instance for its
        lifetime, so a repeated call returns the same series; treat it
        as read-only."""
        if abs(self.den[0]) == 0.0:
            raise CoefficientPoleAtOrigin("denominator vanishes at z = 0")
        kept = self.__dict__.setdefault("_origin_series", {})
        if order not in kept:
            nums = TruncatedSeries.from_polynomial(self.num, order=order)
            dens = TruncatedSeries.from_polynomial(self.den, order=order)
            kept[order] = nums.divide(dens)
        return kept[order]

    # -- rational arithmetic used by counting and operator routines ---------

    def subtract_const(self, a: complex) -> "RationalFunction":
        n = max(self.num.size, self.den.size)
        num = np.zeros(n, dtype=np.complex128)
        num[: self.num.size] += self.num
        num[: self.den.size] -= a * self.den
        # gcd(P - aQ, Q) = gcd(P, Q): f - a is coprime exactly when f is
        return RationalFunction(num, self.den.copy(), cancel=False)

    def scale_arg(self, c: complex) -> "RationalFunction":
        """z -> f(c z)."""
        powers_n = c ** np.arange(self.num.size)
        powers_d = c ** np.arange(self.den.size)
        return RationalFunction(self.num * powers_n, self.den * powers_d,
                                cancel=False)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(poly_mul(self.num, other.num),
                                    poly_mul(self.den, other.den))
        return RationalFunction(self.num * complex(other), self.den.copy(),
                                cancel=False)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"RationalFunction(deg_num={self.num_degree}, "
                f"deg_den={self.den_degree})")


def _root_list(coeffs: np.ndarray) -> list:
    """Roots of a polynomial with multiplicities: the origin entry, one
    per low coefficient that is exactly zero (as in origin_order), then
    the solved roots of the rest."""
    nonzero = np.flatnonzero(np.abs(coeffs) > 0)
    if nonzero.size == 0:
        raise DomainError("the zero polynomial has no root list")
    lam = int(nonzero[0])
    rest = coeffs[lam:]
    roots = roots_with_multiplicity(rest) if rest.size > 1 else []
    return ([(0j, lam)] if lam else []) + roots


def _group(points):
    out = []
    for p in points:
        for i, (loc, m) in enumerate(out):
            if abs(p - loc) <= 1e-12 * max(1.0, abs(loc)):
                out[i] = (loc, m + 1)
                break
        else:
            out.append((complex(p), 1))
    out.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return out


def dq_rational(f: RationalFunction, qp: QParam) -> RationalFunction:
    """D_q of a rational function, as a rational function:

        D_q (P/Q) = [P(qz) Q(z) - P(z) Q(qz)] / ((q-1) z Q(z) Q(qz)).

    The numerator always vanishes at z = 0; that factor is removed
    exactly so the origin stays regular when P/Q is.
    """
    q = qp.q
    pn_q = f.num * q ** np.arange(f.num.size)
    qd_q = f.den * q ** np.arange(f.den.size)
    top = poly_mul(pn_q, f.den) - poly_mul(f.num, qd_q)
    top = np.asarray(top, dtype=np.complex128)
    # exact z factor: the constant term cancels identically
    top[0] = 0.0
    top = top[1:] if top.size > 1 else np.zeros(1, dtype=np.complex128)
    bottom = (q - 1.0) * poly_mul(f.den, qd_q)
    return RationalFunction(top, bottom)


def dqk_rational(f: RationalFunction, qp: QParam, k: int) -> RationalFunction:
    out = f
    for _ in range(k):
        out = dq_rational(out, qp)
    return out


def dqk_quotient(R: RationalFunction, qp: QParam, k: int) -> RationalFunction:
    """D_q^k f / f as a rational function, for an f with f(0) != 0 and
    the shift ratio f(qz) = R(z) f(z) (so R(0) = 1). The quotients
    g_j = D_q^j f / f obey

        g_0 = 1,   g_{j+1}(z) = (g_j(qz) R(z) - g_j(z)) / ((q-1) z).

    With R = A/B, g_j is kept as P_j / D_j over the common denominator
    D_j = (q-1)^j prod_{i<j} B(q^i z), so no step needs a root solve:

        P_{j+1} = [P_j(qz) A(z) - P_j(z) B(q^j z)] / z,
        D_{j+1} = (q-1) D_j(qz) B(z) = (q-1) D_j(z) B(q^j z).

    The bracket vanishes at z = 0 since A(0) = B(0); that factor is
    removed exactly, as in dq_rational.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    A, B = R.num, R.den
    if B[0] == 0 or abs(A[0] - B[0]) > 1e-12 * abs(B[0]):
        raise DomainError("shift ratio must equal 1 at the origin")
    q = qp.q
    top = np.ones(1, dtype=np.complex128)
    bottom = np.ones(1, dtype=np.complex128)
    for j in range(k):
        left = poly_mul(top * q ** np.arange(top.size), A)
        right = poly_mul(top, B * q ** (j * np.arange(B.size)))
        # pad to one length: numpy would broadcast a size-1 array instead
        diff = np.zeros(max(left.size, right.size), dtype=np.complex128)
        diff[: left.size] += left
        diff[: right.size] -= right
        top = diff[1:] if diff.size > 1 else np.zeros(1, dtype=np.complex128)
        bottom = (q - 1.0) * poly_mul(bottom * q ** np.arange(bottom.size), B)
    return RationalFunction(top, bottom)


@dataclass(frozen=True)
class QdeProblem:
    """The equation D_q^k f + A f = B with k initial coefficients."""

    k: int
    A: RationalFunction
    B: RationalFunction
    qp: QParam
    initial: tuple = field(default=(1.0,))

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("order k must be >= 1")
        object.__setattr__(self, "initial",
                           tuple(complex(c) for c in self.initial))
        if len(self.initial) != self.k:
            raise DomainError(
                f"need exactly k = {self.k} initial coefficients")
        for name, rf in (("A", self.A), ("B", self.B)):
            if abs(rf.den[0]) == 0.0:
                raise CoefficientPoleAtOrigin(
                    f"coefficient {name} has a pole at the origin")

    @classmethod
    def homogeneous(cls, k: int, A: RationalFunction, qp: QParam,
                    initial) -> "QdeProblem":
        return cls(k, A, RationalFunction([0.0]), qp, tuple(initial))


def solve_series(prob: QdeProblem, N: int) -> TruncatedSeries:
    """Solve for the series coefficients up to order N by the recurrence
    with s = 0, under the module's overflow rule.

    Raises BracketUnderflow when a bracket product falls below the guard.
    Emits ConditioningWarning when one is tiny (noise amplification near
    a root of unity) and FormalRegimeWarning when |q| < 1 with
    polynomial A, where the series may have a finite radius of
    convergence and so is formal as an entire-function candidate.
    """
    if abs(prob.qp.q) < 1.0 and prob.A.is_polynomial and not prob.A.is_zero:
        warnings.warn(
            "polynomial coefficient with |q| < 1: series solution may have "
            "finite radius (formal, not entire)", FormalRegimeWarning,
            stacklevel=2)
    return _recurrence(prob, N, 0)


def _recurrence(prob: QdeProblem, N: int, s: int) -> TruncatedSeries:
    """c_0..c_N from the recurrence with weights q^{s(n-m)}, with A = P/Q
    never expanded: the term u = A d, d_j = q^{sj} c_j, solves Q u = P d,

        u_n = (sum_m P_m d_{n-m} - sum_{j>=1} Q_j u_{n-j}) / Q_0,
        c_{n+k} = (b_n - u_n) / D_n,     D_n = prod_{j=1..k} [n+j]_q,

    so each step is qcore._banded_steps' sum over deg P + 1 and deg Q
    terms, O(N (deg P + deg Q)) in all (a polynomial A is the case
    Q = [1]), and B is expanded to the orders read, n <= N - k. Clearing
    Q from the whole equation instead (Q y + P d = Q b, y_n = D_n c_{n+k})
    divides b and y by Q too: where Q has a root inside the unit disc,
    that division grows their rounding geometrically, although u alone
    may hold no such mode.

    The bracket products are checked before the loop. It runs up to the
    first order whose product is not finite (BracketOverflow) or below
    the guard (BracketUnderflow), in segments split at the orders whose
    product is below _CONDITION_WARN, so each ConditioningWarning comes
    before its coefficient, in order. A sum that overflows, through a
    term or a power of q, leaves c_{n+k} non-finite and raises
    BracketOverflow at the first such order, after the warnings before
    it."""
    if N < prob.k:
        raise DomainError("truncation order must be at least k")
    qp, k = prob.qp, prob.k
    b = prob.B.origin_series(N - k).coeffs.tolist()
    p, q = prob.A.num.tolist(), prob.A.den.tolist()
    # u and d (the c_j for s = 0) sit behind w zeros, as the kernel reads
    w = max(len(p), len(q)) - 1
    u = [0j] * (w + N - k + 1)
    c = np.empty(N + 1, dtype=np.complex128)
    c[:k] = prob.initial
    # an overflowing sum raises BracketOverflow below; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        denoms = _bracket_products(qp, N, k)
        # abs of each product, bit for bit: np.hypot on the parts is libm's
        # hypot, as abs is (np.abs of a complex array takes another route
        # that moves last bits), and reads inf where abs raises
        # OverflowError (finite parts, modulus beyond double range)
        sizes = np.hypot(denoms.real, denoms.imag)
        bad = np.flatnonzero(~(np.isfinite(sizes) & (sizes >= qp.guard_tol)))
        stop = int(bad[0]) if bad.size else N - k + 1
        if s:
            weights = np.cumprod(np.concatenate(
                ([1.0], np.full(N, qp.q ** s)))).tolist()
            out = [0j] * w + list(prob.initial) + [0j] * (N - k + 1)
            d = ([0j] * w + [wj * cj for wj, cj in zip(weights, prob.initial)]
                 + [0j] * (N - k + 1))
        else:  # d is c itself
            weights = None
            out = d = [0j] * w + list(prob.initial) + [0j] * (N - k + 1)
        # c_{n+k} = (b_n - u_n) times 1 / D_n, the reciprocal numpy's
        # complex division takes: the strided loop divided that way
        recips = (1.0 / denoms[:stop]).tolist()
        weak = np.flatnonzero(sizes[:stop] < _CONDITION_WARN).tolist()
        lo = 0
        for hi in weak + [stop]:
            _banded_steps(p, q, u, d, lo, hi, b, recips, k, out, weights)
            c[lo + k: hi + k] = out[w + lo + k: w + hi + k]
            nonfinite = np.flatnonzero(~np.isfinite(c[lo + k: hi + k]))
            if nonfinite.size:
                raise BracketOverflow(f"coefficient at order "
                                      f"{lo + k + int(nonfinite[0])} "
                                      "is not finite")
            if hi < stop:
                warnings.warn(
                    f"bracket product {float(sizes[hi]):.2e} at order "
                    f"{hi + k}; coefficient poorly conditioned",
                    ConditioningWarning, stacklevel=3)
            lo = hi
    if stop <= N - k:
        if np.isfinite(sizes[stop]):
            raise BracketUnderflow(
                f"bracket product at order {stop + k} below guard")
        raise BracketOverflow(
            f"bracket product at order {stop + k} is not finite")
    return TruncatedSeries(c)


def _bracket_products(qp: QParam, N: int, k: int) -> np.ndarray:
    """D_n = prod_{j=1..k} [n+j]_q for n = 0 .. N - k, each as
    math.prod(brackets[n + 1: n + k + 1], start=1.0 + 0.0j) forms it: k
    passes of CPython's unfused complex product (ar br - ai bi,
    ar bi + ai br) on the float view of the ladder, from 1 + 0j. numpy's
    complex product rounds otherwise. An overflowing product reads inf
    or NaN; the caller sets numpy's error state."""
    count = N - k + 1
    parts = _bracket_array(N, qp).view(np.float64)
    re, im = np.ones(count), np.zeros(count)
    for j in range(1, k + 1):
        br = parts[2 * j: 2 * (j + count): 2]
        bi = parts[2 * j + 1: 2 * (j + count): 2]
        re, im = re * br - im * bi, re * bi + im * br
    out = np.empty(count, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def residual(prob: QdeProblem, f: TruncatedSeries):
    """Series of D_q^k f + A f - B to order N - k, and its max coefficient
    modulus, with A f from _times_a."""
    if f.order < prob.k:
        raise DomainError("series too short for the operator order")
    out_order = f.order - prob.k
    lhs = dqk_series(f, prob.qp, prob.k)
    b = prob.B.origin_series(out_order)
    res = lhs + _times_a(prob.A, f, out_order) - b
    return res, float(np.max(np.abs(res.coeffs)))


def _times_a(A: RationalFunction, f: TruncatedSeries,
             order: int) -> TruncatedSeries:
    """A f to order <= f.order. A polynomial A expands to an exact
    polynomial, whose band alone is convolved with f. A rational A = P/Q
    is never expanded: u = A f solves Q u = P f on _banded_steps, as in
    _recurrence, O(order (deg P + deg Q)), and is one series derived
    from f."""
    if A.is_polynomial:
        return (A.origin_series(f.order) * f).truncated(order)
    p, q = A.num.tolist(), A.den.tolist()
    w = max(len(p), len(q)) - 1
    u = [0j] * (w + order + 1)
    _banded_steps(p, q, u, [0j] * w + f.coeffs[: order + 1].tolist(), 0,
                  order + 1)
    return TruncatedSeries._derived(np.array(u[w:], dtype=np.complex128),
                                    False, f)


def verify_pointwise(prob: QdeProblem, f: Pointwise, points) -> list:
    """Relative residual |D_q^k f + A f - B| / scale at each point, where
    scale is the largest magnitude among the three terms (floored at 1).

    Points must avoid the origin and the poles of A and B."""
    out = []
    for z in points:
        z = complex(z)
        if z == 0:
            raise OutsideDomain("pointwise residual undefined at the origin")
        for rf in (prob.A, prob.B):
            if abs(poly_eval(rf.den, z)) < 1e-12 * max(
                    1.0, float(np.max(np.abs(rf.den)))) * max(1.0, abs(z)) ** rf.den_degree:
                raise OutsideDomain(f"point {z} is numerically at a pole")
        d, fz = _closed_form(f, z, prob.qp, prob.k)
        af = prob.A.eval(z) * fz
        bv = prob.B.eval(z)
        scale = max(1.0, abs(d), abs(af), abs(bv))
        out.append(abs(d + af - bv) / scale)
    return out


@dataclass(frozen=True)
class DegreeCondition:
    """Outcome of the polynomial-admissibility test for D_q^k f + A f = 0:
    a polynomial solution forces deg(den) - deg(num) = k exactly."""

    deg_num: int
    deg_den: int
    k: int

    @property
    def polynomial_admissible(self) -> bool:
        return self.deg_den - self.deg_num == self.k


def polynomial_degree_condition(prob: QdeProblem) -> DegreeCondition:
    if not prob.B.is_zero:
        raise DomainError("degree condition applies to homogeneous problems")
    return DegreeCondition(prob.A.num_degree, prob.A.den_degree, prob.k)


def solve_shifted_series(k: int, A: RationalFunction, qp: QParam,
                         initial, N: int) -> TruncatedSeries:
    """Series solution of D_q^k f(z) + A(z) f(q^k z) = 0: the recurrence
    with s = k and b = 0, under the module's overflow rule, with the
    guard and warning of solve_series. It is solved at q itself: the
    plain form at 1/q (shifted_to_plain) would refuse large N at |q| < 1,
    where the brackets at 1/q overflow.
    """
    return _recurrence(QdeProblem.homogeneous(k, A, qp, initial), N, k)


def shifted_to_plain(k: int, A: RationalFunction, qp: QParam):
    """Rewrite D_q^k f(z) + A(z) f(q^k z) = 0 in plain form.

    The base-inversion identity, checked on monomials, is

        (D_{1/q}^k f)(q^k z) = q^{-k(k-1)/2} D_q^k f(z),

    so with w = q^k z the same f satisfies

        D_{1/q}^k f(w) + q^{-k(k-1)/2} A(q^{-k} w) f(w) = 0.

    Returns the (QParam, RationalFunction) pair for the plain solver.
    """
    qp_inv = qp.inverse()
    factor = qp.q ** (-(k * (k - 1)) // 2) if k > 1 else 1.0
    A_new = factor * A.scale_arg(qp.q ** (-k))
    return qp_inv, A_new
