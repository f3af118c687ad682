"""q-arithmetic primitives and truncated power series.

Conventions used throughout the package:

    [n]_q   = (q^n - 1)/(q - 1)                 (q-bracket)
    [n]_q!  = prod_{j=1..n} [j]_q               (q-factorial)
    (a;q)_n = prod_{j=0..n-1} (1 - a q^j)       (q-Pochhammer)

    [n over j]_q = (q;q)_n / ((q;q)_j (q;q)_{n-j})   (q-binomial)

All products are computed multiplicatively, never by exponentiating sums
of logarithms, so relative error stays at the n-times-ulp scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivisorSingular, DomainError, OutsideSafeRadius
from .polyroots import poly_eval_desc

_ROOT_OF_UNITY_TOL = 1e-9
_DEFAULT_TAIL_TOL = 1e-12
_POCHHAMMER_MAX_FACTORS = 100000


@dataclass(frozen=True)
class QParam:
    """Validated base q for Jackson difference operators.

    Construction rejects |q| in {0, 1} and any q whose powers come within
    ``guard_tol`` of 1 up to ``guard_order``; that keeps every bracket
    [n]_q used by series arithmetic safely away from zero.

    An instance also keeps the coefficient ladders that depend on q alone
    (the brackets of q_brackets, the 1/[n]_q! of qspecial.exp_q) for its
    whole lifetime, rebuilt whenever a longer one is asked for. They take
    no part in equality, hashing or repr.
    """

    q: complex
    guard_order: int = 128
    guard_tol: float = _ROOT_OF_UNITY_TOL
    _brackets: list = field(default_factory=list, init=False, repr=False,
                            compare=False)
    _exp_coeffs: np.ndarray = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        q = complex(self.q)
        object.__setattr__(self, "q", q)
        if q == 0:
            raise DomainError("q must be nonzero")
        if abs(abs(q) - 1.0) < 1e-12:
            raise DomainError("|q| must differ from 1")
        qn = 1.0 + 0.0j
        for n in range(1, self.guard_order + 1):
            qn *= q
            an = abs(qn)
            if an > 2.0 or an < 0.5:
                break
            if abs(qn - 1.0) <= self.guard_tol:
                raise DomainError(
                    f"q is within {self.guard_tol:g} of a root of unity "
                    f"(order {n}); brackets would underflow"
                )

    def inverse(self) -> "QParam":
        return QParam(1.0 / self.q, self.guard_order, self.guard_tol)


def q_bracket(n: int, qp: QParam) -> complex:
    """q-analogue of the integer n: (q^n - 1)/(q - 1), for one n.

    Equals 1 + q + ... + q^{n-1}; 0 for n = 0; inf + 0j once a partial
    product of q^n (see _pow) has a part above 1e300 or NaN. For the whole
    ladder [0]_q .. [N]_q use q_brackets, which gives these same values
    bit for bit in one pass.
    """
    if n < 0:
        raise DomainError("q_bracket requires n >= 0")
    q = qp.q
    if n == 0:
        return 0.0 + 0.0j
    if n == 1:
        return 1.0 + 0.0j
    qn = _pow(q, n)
    if qn is None:  # |q|^n overflowed; bracket is astronomically large
        return complex(math.inf, 0.0)
    return (qn - 1.0) / (q - 1.0)


def q_brackets(N: int, qp: QParam) -> list:
    """The ladder [0]_q, [1]_q, .. [N]_q as a fresh list of Python complex.

    Each entry equals q_bracket(n, qp) bit for bit, signs of zero and the
    inf + 0j saturation included, so a prefix of a longer ladder is the
    shorter ladder. qp keeps the longest ladder built so far for its
    lifetime and rebuilds it only when a larger N is asked for; every
    call returns a new list, so a caller may change it freely.
    """
    if N < 0:
        raise DomainError("q_brackets requires N >= 0")
    if len(qp._brackets) <= N:
        object.__setattr__(qp, "_brackets", _bracket_ladder(qp.q, N))
    return qp._brackets[: N + 1]


def _bracket_ladder(q: complex, N: int) -> list:
    """[0]_q .. [N]_q in one pass. _pow forms q^n by multiplying the
    squares q^(2^i) of the set bits of n into 1, lowest bit first, so
    its last product is q^(n - 2^t) * q^(2^t) for the top bit t of n:
    the ladder reuses q^(n - 2^t) from its own earlier entry, and flags
    n as overflowed with _pow's rule (a part above 1e300 or NaN)
    applied to that prefix and to the product. The arithmetic stays on
    Python complex: numpy divides complex numbers by another method than
    CPython and would move last bits.
    """
    qm1 = q - 1.0
    inf = complex(math.inf, 0.0)
    out = [0.0 + 0.0j, 1.0 + 0.0j][: N + 1]
    powers = [1.0 + 0.0j]  # q^m as _pow forms it, for m < len(powers)
    over = [False]  # _pow(q, m) is None
    square = q  # q^(2^t)
    low = 1  # 2^t
    while low <= N:
        for m in range(min(low, N + 1 - low)):
            qn = powers[m] * square
            flag = over[m] or not (abs(qn.real) <= 1e300
                                    and abs(qn.imag) <= 1e300)
            powers.append(qn)
            over.append(flag)
            if low + m >= 2:
                out.append(inf if flag else (qn - 1.0) / qm1)
        square *= square
        low <<= 1
    return out


def q_factorial(n: int, qp: QParam) -> complex:
    """[n]_q! = prod_{j=1..n} (1 - q^j)/(1 - q), with [0]_q! = 1."""
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    out = 1.0 + 0.0j
    q = qp.q
    qj = 1.0 + 0.0j
    for j in range(1, n + 1):
        qj *= q
        out *= (qj - 1.0) / (q - 1.0)
        if not _finite(out):
            return complex(math.inf, 0.0)
    return out


def q_pochhammer(a: complex, qp: QParam, n: int) -> complex:
    """(a;q)_n = prod_{j=0..n-1} (1 - a q^j)."""
    if n < 0:
        raise DomainError("q_pochhammer requires n >= 0")
    out = 1.0 + 0.0j
    aqj = complex(a)
    for _ in range(n):
        out *= 1.0 - aqj
        aqj *= qp.q
        if not _finite(out):
            return complex(math.inf, 0.0)
    return out


def q_pochhammer_inf(a: complex, qp: QParam, tol: float = 1e-14) -> complex:
    """(a;q)_inf = prod_{n>=0} (1 - a q^n), for |q| < 1.

    The partial product stops once |a q^n| < tol*(1-|q|); the dropped tail
    then multiplies the result by a factor within exp(+-2*tol) of 1. A
    non-finite a, or a cutoff not reached within 100000 factors (|q| near
    1), raises DomainError rather than return a truncated product.
    """
    if abs(qp.q) >= 1.0:
        raise DomainError("q_pochhammer_inf requires |q| < 1")
    if tol <= 0:
        raise DomainError("tol must be positive")
    aqn = complex(a)
    if not _finite(aqn):
        raise DomainError("q_pochhammer_inf requires a finite a")
    cutoff = tol * (1.0 - abs(qp.q))
    out = 1.0 + 0.0j
    for _ in range(_POCHHAMMER_MAX_FACTORS):
        if abs(aqn) < cutoff:
            return out
        out *= 1.0 - aqn
        aqn *= qp.q
    raise DomainError(
        f"(a;q)_inf did not reach |a q^n| < {cutoff:.3g} within "
        f"{_POCHHAMMER_MAX_FACTORS} factors")


def q_binomial(n: int, j: int, qp: QParam) -> complex:
    """Gaussian binomial [n over j]_q via the multiplicative recurrence

        prod_{i=1..j} (1 - q^{n-j+i})/(1 - q^i),

    which avoids the cancellation of forming (q;q)_n ratios directly.
    """
    if j < 0 or j > n:
        raise DomainError("q_binomial requires 0 <= j <= n")
    j = min(j, n - j)
    q = qp.q
    out = 1.0 + 0.0j
    qi = 1.0 + 0.0j
    qtop = _pow(q, n - j)
    if qtop is None:
        raise DomainError("q-binomial overflow; n too large for this |q|")
    for i in range(1, j + 1):
        qi *= q
        qtop *= q
        out *= (1.0 - qtop) / (1.0 - qi)
    return out


def q_pochhammer_mp(a: complex, q: complex, n: int, dps: int = 30):
    """Extended-precision (a;q)_n for q near roots of unity.

    Computes with mpmath at ``dps`` significant digits and returns a
    Python complex rounded from the high-precision product, which removes
    the cancellation a double-precision product would suffer in factors
    1 - a q^j with a q^j near 1.
    """
    import mpmath as mp

    with mp.workdps(dps):
        am = mp.mpc(a)
        qm = mp.mpc(q)
        out = mp.mpc(1)
        aqj = am
        for _ in range(n):
            out *= 1 - aqj
            aqj *= qm
        return complex(out)


def q_binomial_mp(n: int, j: int, q: complex, dps: int = 30):
    """Extended-precision Gaussian binomial; see q_pochhammer_mp."""
    import mpmath as mp

    if j < 0 or j > n:
        raise DomainError("q_binomial requires 0 <= j <= n")
    with mp.workdps(dps):
        qm = mp.mpc(q)
        out = mp.mpc(1)
        for i in range(1, min(j, n - j) + 1):
            out *= (1 - qm ** (n - min(j, n - j) + i)) / (1 - qm**i)
        return complex(out)


def _pow(q: complex, n: int):
    """q**n by squaring; None once a partial product has a part that is
    not at most 1e300: above it, or NaN (a square inf + 0j squares to
    inf + nanj, which a > 1e300 test would let through)."""
    out = 1.0 + 0.0j
    base = q
    m = n
    try:
        while m:
            if m & 1:
                out *= base
            m >>= 1
            if m:
                base *= base
            if not (abs(out.real) <= 1e300 and abs(out.imag) <= 1e300):
                return None
    except OverflowError:
        return None
    return out


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Complex power series about the origin, stored to a fixed order.

    ``coeffs[n]`` is the coefficient of z^n. Arithmetic never invents
    coefficients beyond what both operands determine: results carry the
    minimum truncation order of the operands.

    ``safe_radius`` is a certified evaluation radius: for |z| inside it,
    the dropped tail sum_{n>N} c_n z^n is bounded by ``tail_tol``. It is
    certified by a geometric extrapolation of the coefficient decay seen
    on the last quarter of the stored range; ``None`` means the
    coefficients do not decay or some coefficient is not finite, and no
    radius is claimed; ``inf`` marks an exact polynomial with no tail at
    all. The certificate bounds the truncation tail only, not the
    rounding of the partial sum.
    """

    __slots__ = ("_coeffs", "safe_radius", "tail_tol", "_horner")

    def __init__(self, coeffs, tail_tol: float = _DEFAULT_TAIL_TOL,
                 exact_polynomial: bool = False):
        arr = np.asarray(coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d list")
        arr.setflags(write=False)
        self._coeffs = arr
        self._horner = None
        self.tail_tol = float(tail_tol)
        if exact_polynomial:
            # no tail to bound, but a non-finite coefficient certifies nothing
            self.safe_radius = (math.inf if np.all(np.isfinite(arr))
                                else None)
        else:
            self.safe_radius = _certify_radius(arr, self.tail_tol)

    @classmethod
    def from_polynomial(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Series that *is* a polynomial: infinite safe radius (None if a
        coefficient is not finite), optionally zero-padded up to
        ``order``. Cut to an ``order`` below a nonzero coefficient, it is
        no longer the polynomial and certifies its radius as any series."""
        arr = list(np.asarray(coeffs, dtype=np.complex128))
        exact = True
        if order is not None:
            if order + 1 < len(arr):
                exact = not any(arr[order + 1:])
                arr = arr[: order + 1]
            else:
                arr = arr + [0.0] * (order + 1 - len(arr))
        return cls(arr, exact_polynomial=exact)

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def order(self) -> int:
        return self._coeffs.size - 1

    def c(self, n: int) -> complex:
        """Coefficient of z^n (0 beyond the stored order)."""
        if 0 <= n < self._coeffs.size:
            return complex(self._coeffs[n])
        return 0.0 + 0.0j

    def coeffs_to(self, order: int) -> np.ndarray:
        """Coefficients zero-padded/truncated to exactly order+1 entries."""
        out = np.zeros(order + 1, dtype=np.complex128)
        m = min(order + 1, self._coeffs.size)
        out[:m] = self._coeffs[:m]
        return out

    def is_constant(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self._coeffs[1:]) <= tol))

    @property
    def is_exact_polynomial(self) -> bool:
        """True when the stored coefficients are the whole function (no
        tail beyond the truncation order)."""
        return self.safe_radius is not None and math.isinf(self.safe_radius)

    def _degree(self) -> int:
        nz = np.flatnonzero(np.abs(self._coeffs) > 0)
        return int(nz[-1]) if nz.size else -1

    # -- arithmetic ---------------------------------------------------------
    # Ring operations on exact polynomials stay exact as long as the
    # truncation does not cut real coefficients; everything else falls
    # back to re-certifying decay and capping by the operand radii.

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            exact = (self.is_exact_polynomial and other.is_exact_polynomial
                     and max(self._degree(), other._degree()) <= n)
            return self._wrap(self._coeffs[: n + 1] + other._coeffs[: n + 1],
                              other, exact)
        return self._wrap_scalar_add(complex(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __neg__(self):
        return self._wrap(-self._coeffs, self, self.is_exact_polynomial)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            full = np.convolve(self._coeffs[: n + 1], other._coeffs[: n + 1])
            da, db = self._degree(), other._degree()
            exact = (self.is_exact_polynomial and other.is_exact_polynomial
                     and (da < 0 or db < 0 or da + db <= n))
            return self._wrap(full[: n + 1], other, exact)
        return self._wrap(self._coeffs * complex(other), self,
                          self.is_exact_polynomial)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.divide(other)
        return self._wrap(self._coeffs / complex(other), self,
                          self.is_exact_polynomial)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Power-series long division; requires the divisor's constant term
        to be nonzero. Quotients are never exact polynomials.

        The quotient q_m = (a_m - sum_{j=1..m} b_j q_{m-j}) / b_0 is the
        solver's recurrence with k = 1 and a constant denominator, on the
        same kernel (_triangular_steps). The quotient is kept reversed, so
        no dot operand has a negative stride, which numpy would copy
        before BLAS reads it. Each dot stays full length even where b is
        a short polynomial: banding it to b's degree moves last bits."""
        if abs(other._coeffs[0]) == 0.0:
            raise DivisorSingular("divisor has zero constant term")
        n = min(self.order, other.order)
        a = self.coeffs_to(n)
        b = other.coeffs_to(n)
        rev = np.zeros(n + 1, dtype=np.complex128)
        rev[n] = a[0] / b[0]
        _triangular_steps(b[1:], a[1:], [b[0]] * n, rev, 1, 0, n)
        return self._wrap(rev[::-1], other)

    def scale_arg(self, factor: complex) -> "TruncatedSeries":
        """Series of z -> f(factor * z): c_n -> factor^n c_n."""
        fac = complex(factor)
        powers = np.empty(self._coeffs.size, dtype=np.complex128)
        p = 1.0 + 0.0j
        for n in range(self._coeffs.size):
            powers[n] = p
            p *= fac
        arr = self._coeffs * powers
        if self.is_exact_polynomial:
            return TruncatedSeries(arr, self.tail_tol, exact_polynomial=True)
        if fac in (1, -1, 1j, -1j):
            # every |c_n| is unchanged, so the certificate (or its
            # absence) carries over
            return self._with_radius(arr, self.safe_radius)
        out = TruncatedSeries(arr, self.tail_tol)
        if self.safe_radius is not None and fac != 0:
            inherited = self.safe_radius / abs(fac)
            out.safe_radius = _min_radius(out.safe_radius, inherited)
        return out

    def shifted(self, m: int) -> "TruncatedSeries":
        """Series of z^m * f(z); exact, order grows by m."""
        if m < 0:
            raise DomainError("shift must be nonnegative")
        out_arr = np.concatenate([np.zeros(m, dtype=np.complex128),
                                  self._coeffs])
        if self.is_exact_polynomial:
            return TruncatedSeries(out_arr, self.tail_tol,
                                   exact_polynomial=True)
        out = TruncatedSeries(out_arr, self.tail_tol)
        out.safe_radius = _min_radius(out.safe_radius, self.safe_radius)
        return out

    def truncated(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        exact = self.is_exact_polynomial and self._degree() <= order
        return self._wrap(self._coeffs[: order + 1], self, exact)

    # -- evaluation ---------------------------------------------------------

    def eval(self, z):
        """Horner evaluation at a scalar or array of points.

        Raises OutsideSafeRadius when a certified radius is set and some
        |z| exceeds it; with radius ``None`` the caller takes
        responsibility for convergence.

        An array rounds each element exactly as a 0-d array holding that
        point alone (see polyroots.poly_eval), so the sampled operators
        of qoperator read a whole q-orbit in one call. No Horner step
        writes over its input, which would move last bits
        (polyroots.poly_eval_desc). One point runs no numpy reduction.
        The reversed coefficients are kept on first use, and at finite
        points the exact-zero top ones are left out, which moves no bit
        (_horner_lists).
        """
        zs = np.asarray(z, dtype=np.complex128)
        one = zs.ndim == 0
        if one:
            z = complex(zs)
        rad = self.safe_radius
        if rad is not None and not math.isinf(rad):
            # np.abs, not abs: |z| past double range reads inf, no error
            far = np.abs(zs) > rad * (1.0 + 1e-12)
            if far if one else far.any():
                raise OutsideSafeRadius(
                    f"|z| exceeds certified radius {rad:g}")
        if self._horner is None:
            self._horner = _horner_lists(self._coeffs)
        full, kept = self._horner
        if kept is not full and (cmath.isfinite(z) if one
                                 else np.all(np.isfinite(zs))):
            full = kept
        res = poly_eval_desc(full, zs)
        if one:
            return complex(res)
        return res

    def __call__(self, z):
        return self.eval(z)

    # -- helpers ------------------------------------------------------------

    def _with_radius(self, arr: np.ndarray, radius) -> "TruncatedSeries":
        """Series on a fresh array with a radius already certified."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        arr.setflags(write=False)
        out._coeffs, out.tail_tol, out.safe_radius = arr, self.tail_tol, radius
        out._horner = None
        return out

    def _wrap(self, arr, other, exact: bool = False) -> "TruncatedSeries":
        if exact:
            return TruncatedSeries(arr, self.tail_tol, exact_polynomial=True)
        out = TruncatedSeries(arr, self.tail_tol)
        cap = self.safe_radius
        if isinstance(other, TruncatedSeries) and other is not self:
            cap = _min_radius(cap, other.safe_radius)
        out.safe_radius = _min_radius(out.safe_radius, cap)
        return out

    def _wrap_scalar_add(self, w: complex) -> "TruncatedSeries":
        arr = self._coeffs.copy()
        arr[0] += w
        return self._wrap(arr, self, self.is_exact_polynomial)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self._coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return (f"TruncatedSeries(order={self.order}, coeffs=[{head}{tail}], "
                f"safe_radius={self.safe_radius})")


def _horner_lists(coeffs: np.ndarray) -> tuple:
    """The coefficients for Horner, highest power first, as numpy scalars:
    (all of them, those for finite points). Horner's running value stays
    a signed zero through the exact-zero top coefficients, and at a
    finite z the first nonzero one, c, then replaces it by c exactly,
    unless a component of c is -0.0 (-0.0 + 0.0 is +0.0). So, when that
    holds, the second list leaves those zeros out (keeping at least c_0);
    otherwise it is the first."""
    rev = list(coeffs[::-1])
    top = 0
    while top < len(rev) - 1 and rev[top] == 0:
        top += 1
    c = rev[top]
    if top == 0 or any(part == 0 and math.copysign(1.0, part) < 0
                       for part in (c.real, c.imag)):
        return rev, rev
    return rev, rev[top:]


def _triangular_steps(g, rhs, denom, rev, k: int, start: int, stop: int,
                      out=None, weights=None) -> None:
    """Steps n = start .. stop - 1 of the lower-triangular recurrence

        x_{n+k} = (rhs[n] - sum_{m=0..n} g[m] d_{n-m}) / denom[n],

    the one loop behind the series solver (qode._recurrence) and series
    division (TruncatedSeries.divide). Here d_j = weights[j] x_j, and out
    takes each x_{n+k}, when weights are given; d_j = x_j otherwise.

    The d_j sit reversed in rev, rev[N - j] = d_j with N = rev.size - 1,
    so each sum is np.dot(g[:n+1], rev[N-n:]) on two contiguous
    operands. d[n::-1] would hand BLAS the same values in the same
    order, so the same bits, but numpy first copies an operand with a
    negative stride into a fresh array. The dot stays full length:
    banding it to the nonzero g moves last bits. Each step is numpy
    scalar arithmetic, as the loops it replaced were; a Python complex
    mixed in would move last bits too. No value is checked here: the
    caller reads out or rev for non-finite entries.
    """
    dot = np.dot
    N = rev.size - 1
    if weights is None:
        for n in range(start, stop):
            rev[N - n - k] = (rhs[n] - dot(g[: n + 1], rev[N - n:])) / denom[n]
    else:
        for n in range(start, stop):
            out[n + k] = x = (rhs[n] - dot(g[: n + 1], rev[N - n:])) / denom[n]
            rev[N - n - k] = weights[n + k] * x


def _min_radius(a, b):
    """Min of two optional radii where None means 'unknown' (treated as
    the weaker claim and therefore dominant)."""
    if a is None or b is None:
        return None
    return min(a, b)


def _certify_radius(coeffs: np.ndarray, tail_tol: float):
    """Certify an evaluation radius from coefficient decay.

    Uses the last quarter of stored coefficients: the largest stepwise
    ratio between consecutive nonzero magnitudes, inflated by a 1.25
    safety factor, models the tail as |c_n| <= |c_m| rho^{n-m} beyond the
    last nonzero index m. The radius returned makes that geometric tail
    sum at most tail_tol. Returns None when no decay is visible (as with
    one stored coefficient, whatever the function's tail) or some
    coefficient is not finite, inf when the series has no tail to speak
    of (all-zero trailing data plus no evidence of growth is still
    extrapolated from the nonzero part).
    """
    mags = np.abs(coeffs)
    if not np.all(np.isfinite(mags)) or mags.size == 1:
        return None
    n = mags.size - 1
    nz = np.flatnonzero(mags > 0.0)
    if nz.size == 0:
        return math.inf  # zero series
    if nz.size == 1 and nz[0] == 0:
        return math.inf  # constant
    start = max(0, (3 * (n + 1)) // 4 - 1)
    window = nz[nz >= start]
    if window.size < 2:
        window = nz[-2:] if nz.size >= 2 else nz
    if window.size < 2:
        return None
    # the stepwise ratio (|c_j|/|c_i|)^(1/(j-i)); adjacent indices need no
    # root, so only the gaps wider than one step take the scalar power
    gaps = np.diff(window)
    ratios = mags[window[1:]] / mags[window[:-1]]
    adjacent = gaps == 1
    rho = np.max(ratios[adjacent]) if adjacent.any() else 0.0
    for ratio, gap in zip(ratios[~adjacent], gaps[~adjacent]):
        rho = max(rho, ratio ** (1.0 / gap))
    rho *= 1.25
    if rho <= 0.0:
        return math.inf
    if rho >= 1.0:
        return None
    m = int(nz[-1])
    log_anchor = math.log(mags[m])
    log_rho = math.log(rho)
    rmax = (1.0 - 1e-9) / rho
    log_tol = math.log(tail_tol)

    def log_tail(radius: float) -> float:
        x = rho * radius
        if x >= 1.0:
            return math.inf
        # sum_{k > n} anchor * rho^{k-m} * radius^k, geometric in rho*radius
        return (log_anchor + (n + 1 - m) * log_rho
                + (n + 1) * math.log(radius) - math.log1p(-x))

    if log_tail(rmax) <= log_tol:
        return rmax
    lo, hi = 0.0, rmax
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # a fixed point: lo would stay, hi has already failed the test
            break
        if mid <= 0.0 or log_tail(mid) <= log_tol:
            lo = mid
        else:
            hi = mid
    return lo if lo > 0.0 else None
