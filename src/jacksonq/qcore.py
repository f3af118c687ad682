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
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DivisorSingular, DomainError, OutsideSafeRadius
from .polyroots import poly_eval_desc

_ROOT_OF_UNITY_TOL = 1e-9
_DEFAULT_TAIL_TOL = 1e-12

# A TruncatedSeries radius not yet certified, and the _defer divisor that
# takes the parent's radius as it is.
_PENDING = object()
_SAME = object()
# Generations of operands one read of a pending radius may have to certify.
_PENDING_GENERATIONS = 4


@dataclass(frozen=True)
class QParam:
    """Validated base q for Jackson difference operators.

    Construction rejects q not finite, |q| in {0, 1} and any q whose
    powers come within ``guard_tol`` of 1 up to ``guard_order``; that
    keeps every bracket [n]_q used by series arithmetic away from zero.

    An instance also keeps the coefficient ladders that depend on q alone
    (the brackets of q_brackets, the 1/[n]_q! of qspecial.exp_q) for its
    whole lifetime, rebuilt whenever a longer one is asked for. They take
    no part in equality, hashing or repr.
    """

    q: complex
    guard_order: int = 128
    guard_tol: float = _ROOT_OF_UNITY_TOL
    _brackets: np.ndarray = field(default=None, init=False, repr=False,
                                  compare=False)
    _exp_coeffs: np.ndarray = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        q = complex(self.q)
        object.__setattr__(self, "q", q)
        if not cmath.isfinite(q):
            raise DomainError("q must be finite")
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
    return _bracket_array(N, qp).tolist()


def _bracket_array(N: int, qp: QParam) -> np.ndarray:
    """q_brackets(N, qp) as a read-only complex array: a view of the
    ladder qp keeps."""
    if N < 0:
        raise DomainError("q_brackets requires N >= 0")
    if qp._brackets is None or qp._brackets.size <= N:
        object.__setattr__(qp, "_brackets", _bracket_ladder(qp.q, N))
    return qp._brackets[: N + 1]


# A doubling block of the ladder at least this long runs as array passes;
# a shorter one costs less on Python complex than the passes' overhead.
_LADDER_BLOCK = 128


def _bracket_ladder(q: complex, N: int) -> np.ndarray:
    """[0]_q .. [N]_q in one pass, as a read-only complex array. _pow
    forms q^n by multiplying the squares q^(2^i) of the set bits of n
    into 1, lowest bit first, so its last product is q^(n - 2^t) *
    q^(2^t) for the top bit t of n: the ladder reuses q^(n - 2^t) from
    its own earlier entry, and flags n as overflowed with _pow's rule (a
    part above 1e300 or NaN) applied to that prefix and to the product.

    The block of n in [2^t, 2^(t+1)) reads only the block before it, so
    a block of _LADDER_BLOCK entries or more runs as one set of passes
    on float arrays, which round as CPython's complex arithmetic does:
    its unfused product (ar br - ai bi, ar bi + ai br) and Smith's
    division, whose branch one scalar divisor q - 1 fixes. numpy's own
    complex product and division round otherwise and would move last
    bits. A shorter block stays on Python complex.
    """
    qm1 = q - 1.0
    inf = complex(math.inf, 0.0)
    out = [0.0 + 0.0j, 1.0 + 0.0j][: N + 1]
    powers = [1.0 + 0.0j]  # q^m as _pow forms it, for m < len(powers)
    over = [False]  # _pow(q, m) is None
    # from the first long block: the ladder, with ladder[:done] written
    # and out the entries after it, and the real and imaginary parts of
    # powers and the flags over as arrays of N + 1 entries
    ladder = arrays = None
    done = 0
    square = q  # q^(2^t)
    low = 1  # 2^t
    while low <= N:
        size = min(low, N + 1 - low)
        if size < _LADDER_BLOCK:
            # only the first blocks and the last: powers holds every m
            for m in range(size):
                qn = powers[m] * square
                flag = over[m] or not (abs(qn.real) <= 1e300
                                        and abs(qn.imag) <= 1e300)
                powers.append(qn)
                over.append(flag)
                if low + m >= 2:
                    out.append(inf if flag else (qn - 1.0) / qm1)
        else:
            if ladder is None:
                ladder = np.empty(N + 1, dtype=np.complex128)
                head = np.array(powers, dtype=np.complex128)
                re, im = np.empty(N + 1), np.empty(N + 1)
                flags = np.empty(N + 1, dtype=bool)
                re[:low], im[:low], flags[:low] = head.real, head.imag, over
                arrays = (re, im, flags)
            ladder[done: done + len(out)] = out
            _ladder_block(arrays, ladder, low, size, square, qm1)
            done, out = low + size, []
        square *= square
        low <<= 1
    if ladder is None:
        ladder = np.array(out, dtype=np.complex128)
    else:
        ladder[done:] = out
    ladder.setflags(write=False)
    return ladder


def _ladder_block(arrays: tuple, ladder: np.ndarray, low: int, size: int,
                  square: complex, qm1: complex) -> None:
    """Entries low .. low + size - 1 of the ladder as float passes: the
    power q^(low + m) = q^m * square and its flag go to arrays, the
    bracket, or inf + 0j where flagged, to ladder's float view."""
    re, im, flags = arrays
    ar, ai = re[:size], im[:size]
    sr, si = square.real, square.imag
    nr, ni = re[low: low + size], im[low: low + size]
    # an overflowing power reads inf or NaN, and is flagged
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(ar * sr, ai * si, out=nr)
        np.add(ar * si, ai * sr, out=ni)
        flag = flags[low: low + size]
        np.logical_or(flags[:size], ~((np.abs(nr) <= 1e300)
                                      & (np.abs(ni) <= 1e300)), out=flag)
        # (q^n - 1) / (q - 1): q^n - 1.0 leaves the imaginary part as it is
        tr = nr - 1.0
        if abs(qm1.real) >= abs(qm1.imag):
            ratio = qm1.imag / qm1.real
            denom = qm1.real + qm1.imag * ratio
            br = (tr + ni * ratio) / denom
            bi = (ni - tr * ratio) / denom
        else:
            ratio = qm1.real / qm1.imag
            denom = qm1.real * ratio + qm1.imag
            br = (tr * ratio + ni) / denom
            bi = (ni * ratio - tr) / denom
    block = ladder[low: low + size].view(np.float64).reshape(size, 2)
    block[:, 0] = np.where(flag, math.inf, br)
    block[:, 1] = np.where(flag, 0.0, bi)


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
        if not cmath.isfinite(out):
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
        if not cmath.isfinite(out):
            return complex(math.inf, 0.0)
    return out


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


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Complex power series about the origin, stored to a fixed order.

    ``coeffs[n]`` is the coefficient of z^n. Arithmetic never invents
    coefficients beyond what both operands determine: results carry the
    minimum truncation order of the operands.

    ``safe_radius`` is a certified evaluation radius: for |z| inside it,
    the dropped tail sum_{n>N} c_n z^n is bounded by ``tail_tol``, a
    class constant. It is certified by a geometric extrapolation of the
    coefficient decay seen on the last quarter of the stored range;
    ``None`` means the coefficients do not decay or some coefficient is
    not finite, and no radius is claimed; ``inf`` means no tail at all.
    The certificate bounds the truncation tail only, not the rounding of
    the partial sum.

    An exact polynomial (radius inf, no certificate) is declared where it
    is built, never inferred from a certificate that comes out inf: see
    is_exact_polynomial.

    The radius is certified on first read, then kept: a series that is
    only read through its coefficients never runs the certificate. A
    series computed from others keeps them until then and caps its own
    certificate by their radii as it is read (_derived), so every radius
    is, bit for bit, the one a certificate at construction gives. At most
    _PENDING_GENERATIONS generations of operands wait on one read; an
    operand that old is certified before anything is derived from it.
    """

    __slots__ = ("_coeffs", "_radius", "_basis", "_horner", "_exact")
    tail_tol = _DEFAULT_TAIL_TOL

    def __init__(self, coeffs, *, exact_polynomial: bool = False):
        arr = np.asarray(coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d list")
        arr.setflags(write=False)
        self._coeffs = arr
        self._horner = None
        self._exact = exact_polynomial and bool(np.all(np.isfinite(arr)))
        if exact_polynomial:
            # no tail to bound, but a non-finite coefficient certifies nothing
            self.safe_radius = math.inf if self._exact else None
        else:  # its own certificate, on first read
            self._radius, self._basis = _PENDING, ((), None, 0)

    @property
    def safe_radius(self):
        if self._radius is _PENDING:
            self._radius = self._resolve()
            self._basis = None  # the operands may go
        return self._radius

    @safe_radius.setter
    def safe_radius(self, radius):
        self._radius, self._basis = radius, None

    @classmethod
    def from_polynomial(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Series that *is* a polynomial: infinite safe radius (None if a
        coefficient is not finite), optionally zero-padded up to
        ``order``. Cut to an ``order`` below a nonzero coefficient, it is
        no longer the polynomial and certifies its radius as any series."""
        arr = np.asarray(coeffs, dtype=np.complex128)
        exact = True
        if order is not None and arr.ndim == 1:
            if order + 1 < arr.size:
                exact = not arr[order + 1:].any()
                arr = arr[: order + 1]
            else:
                padded = np.zeros(order + 1, dtype=np.complex128)
                padded[: arr.size] = arr
                arr = padded
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

    def is_constant(self) -> bool:
        return not self._coeffs[1:].any()

    @property
    def is_exact_polynomial(self) -> bool:
        """True when the stored coefficients are the whole function, as
        declared where the series was built: exact_polynomial=True with
        finite coefficients (from_polynomial), the ring rules on exact
        operands, scale_arg(0) and division by an exact constant."""
        return self._exact

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
        arr = self._coeffs.copy()
        arr[0] += complex(other)
        return self._wrap(arr, self, self.is_exact_polynomial)

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
        """Product to the lower of the two orders. An exact-polynomial
        operand convolves only its band up to its degree, so a product
        with a polynomial of degree d costs O(N d), not O(N^2)."""
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
            da, db = self._degree(), other._degree()
            exact_a = self.is_exact_polynomial
            exact_b = other.is_exact_polynomial
            if exact_a:
                a = a[: max(da, 0) + 1]
            elif exact_b:
                b = b[: max(db, 0) + 1]
            exact = (exact_a and exact_b
                     and (da < 0 or db < 0 or da + db <= n))
            return self._wrap(np.convolve(a, b)[: n + 1], other, exact)
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
        to be nonzero. Only an exact constant divisor keeps an exact
        dividend that fits the order exact.

        The quotient is q_m = (a_m - sum_{j=1..m} b_j q_{m-j}) / b_0. An
        exact-polynomial divisor of degree d has only d terms in that
        sum: the quotient is _banded_steps' division with P = [1], O(N d),
        and a constant divisor divides each coefficient once, as numpy
        divides an array. Any other divisor takes one full-length dot per
        coefficient, on numpy scalars, with the quotient kept reversed so
        that no dot operand has a negative stride, which numpy would copy
        before BLAS reads it."""
        if abs(other._coeffs[0]) == 0.0:
            raise DivisorSingular("divisor has zero constant term")
        n = min(self.order, other.order)
        a = self.coeffs_to(n)
        if other.is_exact_polynomial:
            band = other._coeffs[: min(other._degree(), n) + 1]
            if band.size == 1:
                exact = (self.is_exact_polynomial and other._degree() == 0
                         and self._degree() <= n)
                return self._wrap(a / band[0], other, exact)
            w = band.size - 1
            quot = [0j] * (w + n + 1)
            _banded_steps([1.0], band.tolist(), quot, [0j] * w + a.tolist(),
                          0, n + 1)
            return self._wrap(np.array(quot[w:], dtype=np.complex128), other)
        b = other.coeffs_to(n)
        rev = np.zeros(n + 1, dtype=np.complex128)
        rev[n] = a[0] / b[0]
        dot = np.dot
        for m in range(1, n + 1):
            rev[n - m] = (a[m] - dot(b[1: m + 1], rev[n - m + 1:])) / b[0]
        return self._wrap(rev[::-1], other)

    def scale_arg(self, factor: complex) -> "TruncatedSeries":
        """Series of z -> f(factor * z): c_n -> factor^n c_n."""
        fac = complex(factor)
        size = self._coeffs.size
        # fac^n as the running product 1 * fac * fac ..., on Python complex
        powers = np.fromiter(itertools.accumulate(
            itertools.repeat(fac, size - 1), operator.mul, initial=1.0 + 0.0j),
            dtype=np.complex128, count=size)
        if cmath.isfinite(powers[-1]):  # a running product stays non-finite
            arr = self._coeffs * powers
        else:  # 0 times an overflowed power is NaN: an exact zero stays +0.0
            with np.errstate(invalid="ignore"):
                arr = np.where(self._coeffs == 0, 0j, self._coeffs * powers)
        if fac in (1, -1, 1j, -1j):
            # every |c_n| is unchanged, so the certificate (or its
            # absence) carries over
            return self._sharing_radius(arr, self)
        if self.is_exact_polynomial or fac == 0:  # fac 0: the constant c_0
            return self._derived(arr, True)
        # f's certified radius R bounds f(factor z) at R/|factor|
        return self._derived(arr, False, self, divisor=abs(fac))

    def shifted(self, m: int) -> "TruncatedSeries":
        """Series of z^m * f(z); exact, order grows by m."""
        if m < 0:
            raise DomainError("shift must be nonnegative")
        out_arr = np.concatenate([np.zeros(m, dtype=np.complex128),
                                  self._coeffs])
        return self._wrap(out_arr, self, self.is_exact_polynomial)

    def truncated(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        exact = self.is_exact_polynomial and self._degree() <= order
        return self._wrap(self._coeffs[: order + 1], self, exact)

    # -- evaluation ---------------------------------------------------------

    def past_radius(self, z) -> bool:
        """The one radius test: R = safe_radius is finite and some |z| >
        R (1 + 1e-12), read with np.abs, so a modulus past double range
        reads inf. A NaN point is never past, and with R ``None`` the
        caller takes responsibility for convergence. One point runs no
        numpy reduction."""
        rad = self.safe_radius
        if rad is None or math.isinf(rad):
            return False
        far = np.abs(z) > rad * (1.0 + 1e-12)
        return bool(far if far.ndim == 0 else far.any())

    def eval(self, z):
        """Horner evaluation at a scalar or array of points.

        Raises OutsideSafeRadius when some point is past the certified
        radius (past_radius).

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
        if self.past_radius(zs):
            raise OutsideSafeRadius(
                f"|z| exceeds certified radius {self.safe_radius:g}")
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

    @staticmethod
    def _sharing_radius(arr: np.ndarray, parent) -> "TruncatedSeries":
        """Series on a fresh array whose radius is parent's, read when
        its own is read, and exact when parent is."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        arr.setflags(write=False)
        out._coeffs, out._horner = arr, None
        out._exact = parent._exact
        out._defer((parent,), _SAME)
        return out

    @staticmethod
    def _derived(arr, exact: bool, *operands,
                 divisor=None) -> "TruncatedSeries":
        """The one radius rule of a series computed from others: an exact
        polynomial when exact, else its own certified radius capped by
        the radius of each of operands, where None (no claim) is the
        weaker, dominant one; with a divisor d, by R/d for the radius R
        of the one operand, unless R is None. The caps are taken when the
        radius is read (_resolve)."""
        out = TruncatedSeries(arr, exact_polynomial=exact)
        if not exact and operands:
            out._defer(operands, divisor)
        return out

    def _wrap(self, arr, other, exact: bool = False) -> "TruncatedSeries":
        """_derived, capped by the radii of self and the series other."""
        return self._derived(arr, exact, self, other)

    def _defer(self, parents: tuple, divisor) -> None:
        """Leave the radius to its first read: _derived's rule on parents
        with divisor, or parents[0]'s radius as it is for divisor _SAME.
        A parent pending _PENDING_GENERATIONS generations deep is
        certified here first, which bounds the recursion of a read and
        the arrays kept for it."""
        depth = 0
        for p in parents:
            if p._radius is _PENDING:
                if p._basis[2] >= _PENDING_GENERATIONS:
                    p.safe_radius  # certified now, so no longer pending
                else:
                    depth = max(depth, p._basis[2] + 1)
        self._radius, self._basis = _PENDING, (parents, divisor, depth)

    def _resolve(self):
        """The radius _defer left pending, certified under numpy's
        default error state, so that a caller's errstate cannot turn a
        first read into an error."""
        parents, divisor, _ = self._basis
        if divisor is _SAME:
            return parents[0].safe_radius
        with np.errstate(all="warn", under="ignore"):  # numpy's default
            own = _certify_radius(self._coeffs, self.tail_tol)
        if divisor is None:
            caps = [p.safe_radius for p in parents]
        else:
            rad = parents[0].safe_radius
            if rad is None:
                return own
            caps = [rad / divisor]
        for cap in caps:
            own = None if own is None or cap is None else min(own, cap)
        return own

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
    if rev[0] == 0:  # count the exact-zero top coefficients in one pass
        nz = np.flatnonzero(coeffs)
        top = len(rev) - 1 - int(nz[-1]) if nz.size else len(rev) - 1
    c = rev[top]
    if top == 0 or any(part == 0 and math.copysign(1.0, part) < 0
                       for part in (c.real, c.imag)):
        return rev, rev
    return rev, rev[top:]


# steps of _banded_steps between two looks for the zero state
_BAND_BLOCK = 64


def _banded_steps(p, q, u, d, start: int, stop: int, rhs=None, scale=None,
                  k: int = 0, out=None, weights=None) -> None:
    """Steps n = start .. stop - 1 of the banded division

        u_n = (sum_{m=0..deg p} p[m] d_{n-m}
               - sum_{j=1..deg q} q[j] u_{n-j}) / q[0],

    which makes u = (P d) / Q as series: the one loop behind division by
    an exact polynomial (TruncatedSeries.divide: p = [1], d the
    dividend, u the quotient) and the series solver (qode._recurrence:
    u = A d for A = P/Q, which is never expanded). Each step is a sum
    over the two bands only, on Python complex scalars. It divides by
    q[0] at every step: dividing the bands through by it once would
    round each p[m] / q[0] and q[j] / q[0] the same way at every step, a
    bias that grows linearly along a geometric solution.

    With rhs and scale, the step goes on to the solver's coefficient
    x_{n+k} = (rhs[n] - u_n) scale[n]: it is d_{n+k} itself, or, with
    weights, goes to out (indexed as d) and d_{n+k} = weights[n+k]
    x_{n+k}. u and d are lists that keep u_i and d_i at index i + w,
    where w = max(len(p), len(q)) - 1, behind w zeros that stand for the
    indices below 0, so each step reads its whole band. No value is
    checked here: the caller reads the x_j for non-finite ones.

    The steps run in blocks of _BAND_BLOCK. A block that starts in the
    zero state, where both bands read only exact zeros (finite p and q,
    no weights), takes no sums: each s and t would be +0 plus signed
    zeros, which is 0j exactly, so every u_n is (0j - 0j) / q[0], and
    x_n = (rhs[n] - u_n) scale[n] is formed from it as the step forms
    it. The block keeps that result if every x_n is exactly zero (or,
    without rhs, if the dividend d it reads is), since the state then
    holds to its end; otherwise it runs the steps. A zero-tailed series
    (the q-special functions, or a solution past the double-precision
    floor) so ends in one pass per block, byte for byte with the steps,
    signs of zero included.
    """
    w = max(len(p), len(q)) - 1
    pband = [(pm, w - m) for m, pm in enumerate(p)]
    qband = [(q[j], w - j) for j in range(1, len(q))]
    q0 = q[0]
    # a band coefficient that is not finite turns a zero into NaN; with
    # k = 0 a step would read its own d_{n+k} before writing it
    quiet = (weights is None and (scale is None or k > 0)
             and all(map(cmath.isfinite, p + q)))
    oldest = w - len(p) + 1  # d index of the p band's oldest read, less n
    for lo in range(start, stop, _BAND_BLOCK):
        hi = min(lo + _BAND_BLOCK, stop)
        if quiet and not any(u[lo + w - len(q) + 1: lo + w]):
            v = (0j - 0j) / q0  # raises where the steps would, at q0 = 0
            if scale is None:
                if not any(d[lo + oldest: hi + w]):
                    u[lo + w: hi + w] = [v] * (hi - lo)
                    continue
            elif not any(d[lo + oldest: lo + k + w]):
                xs = [(r - v) * sc for r, sc in zip(rhs[lo:hi], scale[lo:hi])]
                if not any(xs):
                    u[lo + w: hi + w] = [v] * (hi - lo)
                    d[lo + k + w: hi + k + w] = xs
                    continue
        for n in range(lo, hi):
            s = t = 0j
            for pm, i in pband:
                s += pm * d[n + i]
            for qj, i in qband:
                t += qj * u[n + i]
            u[n + w] = v = (s - t) / q0
            if scale is None:
                continue
            if weights is None:
                d[n + k + w] = (rhs[n] - v) * scale[n]
            else:
                out[n + k + w] = x = (rhs[n] - v) * scale[n]
                d[n + k + w] = weights[n + k] * x


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
