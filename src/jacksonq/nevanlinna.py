"""Numerical Nevanlinna functionals and desk-scale growth checks.

Normalisations:

    m(r,f) = (1/2pi) int_0^{2pi} log+ |f(r e^{i th})| d th
    N(r,f) = sum_{0<|z_j|<=r} m_j log(r/|z_j|) + n(0) log r     (poles z_j)
    T(r,f) = m(r,f) + N(r,f)

f is a MeroModel of one of four typed shapes (rational, entire series,
q-product, sampler), and the functionals ask every shape the same
questions; a shape that cannot answer one raises TargetUnsupported. A
product model holds its product (MeroModel.from_product) and reads its
zeros, log|f|, base and shift ratio off it.
Jackson weights and D_q f come from rational models only. The shift
ratio R, f(qz) = R(z) f(z), which makes D_q^k f / f one exact rational
function, comes from a product at its own base and from a rational model
with f(0) not in {0, infinity} at any base. Counting integrals are
evaluated in closed form from the divisor, (origin multiplicity,
[(modulus, multiplicity)]), never by numerical t-integration. A rational
model's divisor does not depend on r: every rational question reads the
root lists that RationalFunction finds once and keeps (zeros() and
poles() of f and of each f - a). The Jackson weight h - min(h, k') of a
point of multiplicity h, k' the order of D_q f there, is read off the
same list as h - min(h, h'), h' the multiplicity of its q-image; per
base q the weights are kept on the model, so a radius loop only re-sums
them. A failed computation (an ambiguous root cluster or q-image, a
constant f) is not kept and raises again on the next call. The proximity
integral is a composite trapezoid on equally spaced angles (spectrally
accurate for circles that keep away from zeros and poles), with the
step-halving difference reported as its error estimate.

Limit quantities (logarithmic order, defects, the second-fundamental-
theorem margin, Wiman-Valiron ratios) are reported as finite-radius
regression proxies with confidence half-widths; nothing here asserts an
actual limsup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    InsufficientGrid,
    MaxModulusAmbiguous,
    MultiplicityAmbiguous,
    PoleOnCircle,
    TargetUnsupported,
    TruncationTooShort,
)
from .polyroots import (check_unambiguous, image_multiplicities, poly_eval,
                        poly_mul)
from .qcore import QParam, TruncatedSeries
from .qode import RationalFunction, dq_rational, dqk_quotient
from .qoperator import Pointwise, dqk_closed_form
from .qspecial import LatticeProduct

INF = math.inf

_NUDGE_MARGIN = 1e-6
_NUDGE_STEP = 1e-5
_MAX_NUDGES = 64
_WINDING_NODES = 512
_WINDING_MAX_NODES = 65536
_RESIDUAL_POINTS = 4
_RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Grids and models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii plus the angular node count for circle
    quadrature."""

    radii: tuple
    angular_nodes: int = 256

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if any(r <= 0 for r in radii):
            raise DomainError("radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("radii must be strictly increasing")
        if self.angular_nodes < 64:
            raise DomainError("need at least 64 angular nodes")

    @classmethod
    def log_spaced(cls, rmin: float, rmax: float, points: int,
                   angular_nodes: int = 256) -> "RadialGrid":
        if points < 2 or rmax <= rmin:
            raise DomainError("need rmax > rmin and at least 2 points")
        radii = np.logspace(math.log10(rmin), math.log10(rmax), points)
        return cls(tuple(float(r) for r in radii), angular_nodes)

    def avoiding(self, moduli) -> "RadialGrid":
        """Nudge radii sitting within relative 1e-6 of any given modulus
        outward by relative 1e-5 (repeatedly, until clear). A radius
        still not clear after 64 nudges raises InsufficientGrid."""
        mods = sorted(m for m in moduli if m > 0)
        out = []
        for r in self.radii:
            rr = r
            nudges = 0
            while any(abs(rr / m - 1.0) <= _NUDGE_MARGIN for m in mods):
                if nudges == _MAX_NUDGES:
                    raise InsufficientGrid(
                        f"radius {r:g} still within relative "
                        f"{_NUDGE_MARGIN:g} of a modulus after "
                        f"{_MAX_NUDGES} nudges")
                rr *= 1.0 + _NUDGE_STEP
                nudges += 1
            out.append(rr)
        return RadialGrid(tuple(out), self.angular_nodes)


class MeroModel:
    """A meromorphic function f of zero order, in one of four shapes,
    each built by its factory:

    RationalModel  divisors read off the root lists of f and of f - a
                   (RationalFunction.zeros/poles); f - a per target, the
                   Jackson weights per (target, QParam) and D_q f per
                   QParam are kept from first use and reused at every
                   radius and call (failures are not); the shift ratio at
                   any base when f(0) is neither 0 nor infinity
    SeriesModel    an entire TruncatedSeries with a certified radius; zero
                   moduli from companion eigenvalues, each annulus count
                   certified by one argument-principle winding number
    ProductModel   an entire product with f(0) = 1, held whole (a
                   LatticeProduct, or an object with its zeros_up_to,
                   log_abs on arrays, eval, qp and shift_ratio): an exact
                   zero lattice (its split kept for the largest radius
                   asked), log|f| as the product's real log_abs, one
                   array per circle, and its base qp; its shift ratio R,
                   f(qz) = R(z) f(z) at that base (None when unknown),
                   makes D_q^k f / f exact
    SamplerModel   a black box; proximity only (declared entire when the
                   caller knows there are no poles)

    Every count goes through divisor(r, a), every value through eval. A
    question a shape cannot answer raises TargetUnsupported; the defaults
    below are those of an entire function known by its zero divisor (no
    points at infinity), with no Jackson weights, no D_q f and no shift
    ratio. Shapes supply _log_abs, never log_abs, so every log|f| goes
    through this class's one method.
    """

    qp: Optional[QParam]

    @classmethod
    def from_rational(cls, rf: RationalFunction,
                      qp: Optional[QParam] = None) -> "MeroModel":
        return RationalModel(rf, qp)

    @classmethod
    def from_series(cls, ts: TruncatedSeries,
                    qp: Optional[QParam] = None) -> "MeroModel":
        return SeriesModel(ts, qp)

    @classmethod
    def from_product(cls, product: LatticeProduct) -> "MeroModel":
        """An entire product with f(0) = 1: a LatticeProduct, or any object
        with its members zeros_up_to(r), log_abs(zs) on arrays, eval(z),
        qp and shift_ratio (None when no rational R is known)."""
        return ProductModel(product)

    @classmethod
    def from_q_product(cls, zeros_up_to, log_eval, eval_fn=None,
                       qp: Optional[QParam] = None) -> "MeroModel":
        """from_product(product) for the bound methods of one
        LatticeProduct, the spelling of earlier releases. Plain callables,
        and a qp other than the product's own, raise DomainError."""
        product = getattr(log_eval, "__self__", None)
        if not isinstance(product, LatticeProduct) or any(
                getattr(fn, "__self__", None) is not product
                for fn in (zeros_up_to, eval_fn) if fn is not None):
            raise DomainError("from_q_product takes one LatticeProduct's "
                              "bound methods; pass the product to "
                              "MeroModel.from_product")
        if qp is not None and qp.q != product.qp.q:
            raise DomainError("qp differs from the product's own base; "
                              "MeroModel.from_product takes it from the "
                              "product")
        return cls.from_product(product)

    @classmethod
    def from_sampler(cls, sampler: Pointwise, entire: bool = False,
                     qp: Optional[QParam] = None) -> "MeroModel":
        return SamplerModel(sampler, entire, qp)

    def log_abs(self, zs) -> np.ndarray:
        """log|f| at an array of points, overflow-free where the model
        allows it."""
        return self._log_abs(np.asarray(zs, dtype=np.complex128))

    def _log_abs(self, zs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.eval(zs)))

    def divisor(self, r: float, target=0.0):
        """(origin multiplicity, [(modulus, multiplicity)]) of the points
        where f = target, at least all those with |z| <= r. An entire
        shape resolves target 0, and infinity as no points."""
        if target == INF:
            return 0, []
        if target != 0:
            raise TargetUnsupported(f"{type(self).__name__} counts only "
                                    "target 0 and infinity")
        return self._zero_divisor(r)

    def known_moduli(self, r: float):
        """Moduli of the zeros and poles up to r, for grid nudging."""
        return [m for target in (0.0, INF)
                for m, _ in self.divisor(r, target)[1] if m <= r]

    def origin_leading(self):
        """(lam, c_lam) of the local behaviour c_lam z^lam at the origin."""
        raise TargetUnsupported(f"{type(self).__name__} has no origin data")

    def shift_ratio_at(self, qp: QParam) -> Optional[RationalFunction]:
        """The rational R with f(qz) = R(z) f(z) and R(0) = 1 for
        q = qp.q, or None when the shape does not know one."""
        return None

    def jackson_weights(self, target, qp: QParam):
        """(origin weight, [(modulus, h - min(h, k'))]) at f = target,
        the shape of divisor; k' = ord D_q f there."""
        raise TargetUnsupported("Jackson truncated counting needs exact "
                                "zero/pole structure (rational model)")

    def dq_model(self, qp: QParam) -> "MeroModel":
        """D_q f as a model, per QParam."""
        raise TargetUnsupported("margins need a rational model")


@dataclass(eq=False)
class RationalModel(MeroModel):
    rational: RationalFunction
    qp: Optional[QParam] = None
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def _keep(self, key, compute: Callable[[], object]):
        """Radius-independent data under key (f - a, D_q f, Jackson
        weights), computed on first use; a computation that raises keeps
        nothing."""
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def eval(self, z):
        return self.rational.eval(z)

    def _log_abs(self, zs: np.ndarray) -> np.ndarray:
        rf = self.rational
        with np.errstate(divide="ignore"):
            return (np.log(np.abs(poly_eval(rf.num, zs)))
                    - np.log(np.abs(poly_eval(rf.den, zs))))

    def divisor(self, r: float, target=0.0):
        """Any finite target (the zeros of f - a) and infinity (the
        poles), over the whole plane. The split does not depend on r, so
        it is kept per target; callers must not change the list."""
        def compute():
            if target == INF:
                return _split_origin(self.rational.poles())
            return _split_origin(self._minus(target).zeros())
        return self._keep(("divisor", target), compute)

    def origin_leading(self):
        return self.rational.origin_leading()

    def _minus(self, target) -> RationalFunction:
        """f - target for a finite target (f itself for 0), kept per
        target, so divisor and jackson_weights read one zero list."""
        if target == 0:
            return self.rational
        return self._keep(("minus", target),
                          lambda: self.rational.subtract_const(target))

    def shift_ratio_at(self, qp: QParam) -> Optional[RationalFunction]:
        """R = P(qz) Q(z) / (P(z) Q(qz)) for f = P/Q at any base, or None
        when f(0) is 0 or infinity (R(0) = q^lam there). Both constant
        terms are P(0) Q(0), so R(0) = 1 exactly; R is left uncancelled,
        which needs no root solve."""
        P, Q = self.rational.num, self.rational.den
        if P[0] * Q[0] == 0:
            return None
        fq = self.rational.scale_arg(qp.q)
        return RationalFunction(poly_mul(fq.num, Q), poly_mul(P, fq.den),
                                cancel=False)

    def dq_model(self, qp: QParam) -> "RationalModel":
        """D_q f, per QParam, for sft_check's N_J term."""
        def compute():
            df = dq_rational(self.rational, qp)
            if df.is_zero:
                raise DomainError("D_q f vanishes identically; f is constant")
            return RationalModel(df)
        return self._keep(("Dq", qp), compute)

    def jackson_weights(self, target, qp: QParam):
        """(origin weight, [(modulus, h - min(h, h'))]), kept, over the
        points z0 where f = target, h' the multiplicity of q z0 in the same
        list: at z0 != 0, D_q f (D_q(1/f) at poles) vanishes to order
        min(h, h') if h != h', at least h if h = h'; the origin weighs 1,
        as D_q z^h = [h]_q z^(h-1). A constant f raises DomainError."""
        def compute():
            if self.rational.num_degree == self.rational.den_degree == 0:
                raise DomainError("D_q f vanishes identically; f is constant")
            if target == INF:
                points = self.rational.poles()
            else:
                points = self._minus(target).zeros()
                check_unambiguous([(z, h) for z, h in points if z != 0])
            images = image_multiplicities(points, qp.q)
            weights = [(abs(z), h - min(h, h_image))
                       for (z, h), h_image in zip(points, images) if z != 0]
            return (sum(1 for z, _ in points if z == 0),
                    [(mod, w) for mod, w in weights if w])
        return self._keep(("J", target, qp), compute)


@dataclass(eq=False)
class SeriesModel(MeroModel):
    series: TruncatedSeries
    qp: Optional[QParam] = None

    def eval(self, z):
        return self.series.eval(z)

    def _zero_divisor(self, r: float):
        lam = _origin_multiplicity(self.series.coeffs)
        return lam, series_zero_moduli(self.series, r)

    def origin_leading(self):
        lam = _origin_multiplicity(self.series.coeffs)
        return lam, complex(self.series.coeffs[lam])


@dataclass(eq=False)
class ProductModel(MeroModel):
    product: LatticeProduct
    # (radius, split) of the zeros up to the largest radius asked so far;
    # not a field: the model holds its product only
    _kept = (-INF, None)

    @property
    def qp(self) -> QParam:
        return self.product.qp

    def eval(self, z):
        return self.product.eval(z)

    def _log_abs(self, zs: np.ndarray) -> np.ndarray:
        return self.product.log_abs(zs)

    def _zero_divisor(self, r: float):
        """The split of the zeros up to the largest radius asked so far,
        at least all those with |z| <= r; counting sums filter it in list
        order, which is that of zeros_up_to(r) with the farther zeros
        left out. Callers must not change the list."""
        if not r <= self._kept[0]:
            self._kept = (r, _split_origin(self.product.zeros_up_to(r)))
        return self._kept[1]

    def origin_leading(self):
        return 0, 1.0 + 0.0j

    def shift_ratio_at(self, qp: QParam) -> Optional[RationalFunction]:
        """The product's own R at its own base, else None."""
        if qp.q == self.product.qp.q:
            return self.product.shift_ratio
        return None


@dataclass(eq=False)
class SamplerModel(MeroModel):
    fn: Pointwise  # any one-point callable, a TruncatedSeries included
    entire: bool = False
    qp: Optional[QParam] = None

    def eval(self, z):
        """fn at a point, or at each point of an array, one call per point."""
        if np.ndim(z) == 0:
            return self.fn(z)
        return np.array([self.fn(w) for w in np.ravel(z)]).reshape(np.shape(z))

    def divisor(self, r: float, target=0.0):
        """No points at infinity when declared entire; nothing else."""
        if target == INF and self.entire:
            return 0, []
        raise TargetUnsupported("sampler models cannot count")

    def known_moduli(self, r: float):
        return []


def _split_origin(pts):
    """(origin multiplicity, [(modulus, multiplicity)]) of (z, m) pairs."""
    return (sum(m for z, m in pts if abs(z) == 0.0),
            [(abs(z), m) for z, m in pts if abs(z) > 0.0])


def _origin_multiplicity(coeffs: np.ndarray) -> int:
    nz = np.flatnonzero(np.abs(coeffs) > 0)
    if nz.size == 0:
        raise DomainError("zero series has no origin multiplicity")
    return int(nz[0])


# ---------------------------------------------------------------------------
# Certified zero location for series models
# ---------------------------------------------------------------------------


def winding_number(eval_vec: Callable[[np.ndarray], np.ndarray],
                   r: float) -> int:
    """Winding of f around 0 along |z| = r, by summing angle increments.

    The node count doubles from 512 until every increment is below pi/2
    and the total is within 1e-2 of an integer (at most 65536 nodes)."""
    M = _WINDING_NODES
    while True:
        vals = np.asarray(eval_vec(r * _unit_circle(M)))
        if np.any(vals == 0) or not np.all(np.isfinite(vals)):
            raise PoleOnCircle(f"zero/invalid value on circle r = {r:g}")
        rolled = np.roll(vals, -1)
        inc = np.angle(rolled / vals)
        total = float(np.sum(inc)) / (2.0 * np.pi)
        if np.max(np.abs(inc)) < 0.5 * np.pi and abs(total - round(total)) < 1e-2:
            return int(round(total))
        M *= 2
        if M > _WINDING_MAX_NODES:
            raise DomainError(
                f"winding number did not stabilise at r = {r:g}")


def series_zero_moduli(ts: TruncatedSeries, r: float,
                       rel_tol: float = 1e-4) -> list:
    """Moduli of the nonzero-origin zeros of a series model inside radius
    r, from the eigenvalues of the truncated polynomial, each polished by
    one Newton step. Before np.roots the coefficients are rescaled to
    |z| ~ r by exact powers of two (log2|c_n| + n log2 r - max, phases
    kept), and trailing terms below eps of the largest are dropped.
    Moduli within relative rel_tol merge into one (mean modulus, count)
    pair; each count is certified by the argument principle, one winding
    number in the gap above its group and one at r, and a count that
    disagrees raises DomainError. The first-pass circles of all those
    winding numbers, each rho * _unit_circle(512) as winding_number
    builds it, take one ts.eval call (each element rounds as it would
    alone); a circle whose node count doubles calls ts.eval again."""
    if ts.safe_radius is not None and r > ts.safe_radius:
        raise DomainError("radius beyond certified evaluation disc")
    coeffs = ts.coeffs
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("series coefficients are not finite")
    lam = _origin_multiplicity(coeffs)
    c = coeffs[lam:]
    k = round(math.log2(r))
    n = np.arange(c.size)
    with np.errstate(divide="ignore"):
        e = n * k - math.ceil(np.max(np.log2(np.abs(c)) + n * k))
    scaled = np.ldexp(c.real, e) + 1j * np.ldexp(c.imag, e)
    size = np.abs(scaled)
    p = scaled[np.flatnonzero(size >= np.finfo(float).eps * size.max())[-1]::-1]
    try:
        u = np.roots(p)
    except np.linalg.LinAlgError as exc:
        raise DomainError(
            f"companion eigenvalues failed at r = {r:g}: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        u = u - np.polyval(p, u) / np.polyval(np.polyder(p), u)
    mods = np.sort(np.abs(u)) * 2.0 ** k
    groups = []
    for m in (float(m) for m in mods[mods < r]):
        if groups and m - groups[-1][-1] <= rel_tol * m:
            groups[-1].append(m)
        else:
            groups.append([m])
    radii = [math.sqrt(a[-1] * b[0]) for a, b in zip(groups, groups[1:])]
    radii.append(r)
    unit = _unit_circle(_WINDING_NODES)
    first_pass = ts.eval(np.concatenate([rho * unit for rho in radii]))
    inner = lam  # the winding number just outside the origin
    for count, rho, vals in zip([len(g) for g in groups] or [0], radii,
                                first_pass.reshape(len(radii), -1)):
        outer = winding_number(_first_pass_eval(ts, vals), rho)
        if outer - inner != count:
            raise DomainError(
                f"winding count {outer - inner} in the annulus up to "
                f"r = {rho:g} disagrees with {count} eigenvalues")
        inner = outer
    return [(sum(g) / len(g), len(g)) for g in groups]


def _first_pass_eval(ts: TruncatedSeries, vals: np.ndarray):
    """An eval_vec for winding_number that serves one circle's values at
    its first node count from vals and calls ts.eval at any other."""
    def eval_vec(zs):
        return vals if len(zs) == _WINDING_NODES else ts.eval(zs)
    return eval_vec


# ---------------------------------------------------------------------------
# Core functionals
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _unit_circle(M: int) -> np.ndarray:
    """exp(i th) at the M angles th = 2 pi j/M, j < M, read-only: r times
    it is the quadrature circle |z| = r, bit for bit as computed afresh."""
    unit = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, M, endpoint=False))
    unit.flags.writeable = False
    return unit


_CIRCLE_POINTS = 4096  # points in one log_abs call of _circle_means


def _circle_means(model: MeroModel, radii, M: int, positive_part: bool):
    """_circle_mean at each radius, as an iterator. Circles go to
    model.log_abs in chunks of up to _CIRCLE_POINTS points, one (radii x
    M) array per chunk (a sampler model takes one radius per call; it
    calls its function point by point anyway); a row's means are the
    bits its circle alone gives. A chunk's floating-point overflow,
    invalid operation or division by zero raises instead of warning; if
    the chunk raises, its radii are computed one at a time as the
    iterator is read, so the first failing radius raises or warns as it
    would alone, in the caller's order."""
    unit = _unit_circle(M)
    per = 1 if isinstance(model, SamplerModel) else max(
        1, _CIRCLE_POINTS // M)
    for i in range(0, len(radii), per):
        chunk = radii[i:i + per]
        rows = None
        if len(chunk) > 1:
            try:
                with np.errstate(over="raise", invalid="raise",
                                 divide="raise"):
                    rows = model.log_abs(np.multiply.outer(chunk, unit))
            except Exception:  # raised again below, at its own radius
                pass
        for j, r in enumerate(chunk):
            la = model.log_abs(r * unit) if rows is None else rows[j]
            yield _log_means(la, r, positive_part)


def _circle_mean(model: MeroModel, r: float, M: int, positive_part: bool):
    """Trapezoid mean of log|f| (or log+|f|) over |z| = r, plus the
    step-halving error estimate (floored near machine precision)."""
    return next(_circle_means(model, (r,), M, positive_part))


def _log_means(la: np.ndarray, r: float, positive_part: bool):
    """_circle_mean from log|f| on the circle |z| = r."""
    if np.any(np.isposinf(la)) or np.any(np.isnan(la)):
        raise PoleOnCircle(f"pole on quadrature circle r = {r:g}")
    vals = np.maximum(la, 0.0) if positive_part else la
    if not positive_part and np.any(np.isneginf(vals)):
        raise PoleOnCircle(f"zero on quadrature circle r = {r:g}")
    full = float(np.mean(vals))
    half = float(np.mean(vals[::2]))
    err = abs(full - half) + 16.0 * np.finfo(float).eps * (1.0 + abs(full))
    return full, err


def proximity(model: MeroModel, r: float, M: int = 4096) -> float:
    """m(r,f): circle average of log+|f|."""
    return _circle_mean(model, r, M, positive_part=True)[0]


def _integrated_counting(origin_mult: int, moduli_mults, r: float) -> float:
    """N(r) = n(0) log r + sum_{0<|z|<=r} m log(r/|z|)."""
    total = origin_mult * math.log(r)
    for mod, mult in moduli_mults:
        if 0.0 < mod <= r:
            total += mult * math.log(r / mod)
    return total


def counting_N(model: MeroModel, r: float, target=0.0) -> float:
    """Integrated counting function N(r, f=target), summed from the
    model's divisor (MeroModel.divisor says which targets it resolves);
    infinity counts +0.0 for a model without poles (the sum would give
    -0.0 at r < 1)."""
    origin, rest = model.divisor(r, target)
    if target == INF and not (origin or rest):
        return 0.0
    return _integrated_counting(origin, rest, r)


@dataclass
class NevanlinnaSample:
    """One radius worth of functionals; nJ columns are NaN for models
    where the Jackson truncated counting is not computable."""

    r: float
    m: float
    N0: float
    Ninf: float
    T: float
    nJ0: float = math.nan
    nJinf: float = math.nan
    quad_err: float = 0.0


def characteristic(model: MeroModel, r: float, M: int = 4096) -> NevanlinnaSample:
    """T(r,f) = m(r,f) + N(r,f), with the supporting columns recorded."""
    mval, err = _circle_mean(model, r, M, positive_part=True)
    Ninf = counting_N(model, r, INF)
    try:
        N0 = counting_N(model, r, 0.0)
    except (TargetUnsupported, DomainError):
        N0 = math.nan
    sample = NevanlinnaSample(r=r, m=mval, N0=N0, Ninf=Ninf, T=mval + Ninf,
                              quad_err=err)
    if model.qp is not None:
        try:
            sample.nJ0 = jackson_truncated_counting(model, r, 0.0, model.qp)[1]
            sample.nJinf = jackson_truncated_counting(model, r, INF, model.qp)[1]
        except (TargetUnsupported, MultiplicityAmbiguous, DomainError):
            pass  # no Jackson weights (or f constant): the columns stay NaN
    return sample


def _characteristic_Ts(model: MeroModel, radii, M: int):
    """characteristic(model, r, M).T at each radius, summed as there,
    without the N0 and Jackson columns, for the checks that read T
    alone; an iterator, whose circles come from _circle_means."""
    means = _circle_means(model, radii, M, positive_part=True)
    for r, (mval, _) in zip(radii, means):
        yield mval + counting_N(model, r, INF)


def jensen_residual(model: MeroModel, r: float, M: int = 4096) -> float:
    """Absolute defect in the Jensen identity

        (1/2pi) int log|f| = log|c_lam| + N(r, 1/f) - N(r, f),

    where c_lam z^lam is the leading origin behaviour (the log|c_lam|
    term covers functions with f(0) in {0, inf} after the z^lam
    peel-off, whose log r contribution sits inside the N terms)."""
    quad, _ = _circle_mean(model, r, M, positive_part=False)
    lam, c_lam = model.origin_leading()
    n_zero = counting_N(model, r, 0.0)
    n_pole = counting_N(model, r, INF)
    return abs(quad - math.log(abs(c_lam)) - n_zero + n_pole)


# ---------------------------------------------------------------------------
# Jackson truncated counting
# ---------------------------------------------------------------------------


def jackson_truncated_counting(model: MeroModel, r: float, target,
                               qp: QParam):
    """Jackson-type truncated counting, from the model's Jackson weights
    (rational models only; other shapes raise TargetUnsupported).

    Every point with f = target (multiplicity h) contributes
    h - min(h, k'), where k' is the multiplicity of the zero of D_q f at
    the point (for target = infinity: of D_q(1/f) at the pole). Returns
    the pair (ntilde at radius r, integrated Ntilde at radius r).

    The points are the kept zero list of f - target (the pole list for
    infinity), the one list counting_N also reads, and k' is read off it
    too (RationalModel.jackson_weights). Nonzero finite a-points, or a
    q-image and an entry (its own, below three tolerances), at the edge of
    the merging tolerance raise MultiplicityAmbiguous: the bookkeeping
    would depend on it there, while counting_N of the target still answers.
    """
    origin, weights = model.jackson_weights(target, qp)
    ntilde_r = float(origin + sum(w for mod, w in weights if mod < r))
    return ntilde_r, _integrated_counting(origin, weights, r)


# ---------------------------------------------------------------------------
# Defects
# ---------------------------------------------------------------------------


@dataclass
class DefectReport:
    """Finite-radius proxies for the defect quantities at one target.

    delta       1 - N(r, f=a)/T(r)            (Nevanlinna deficiency)
    vartheta_J  (N(r, f=a) - Ntilde_J)/T(r)   (multiplicity index)
    theta_J     1 - Ntilde_J(r, f=a)/T(r)     (ramification index)

    evaluated at the largest grid radius, clamped to [-0.1, 1.1] with the
    raw values kept alongside; trend_slope is the least-squares slope of
    the delta proxy over the top half of the grid (a crude stand-in for
    the limsup direction)."""

    target: object
    delta: float
    vartheta_J: float
    theta_J: float
    raw: tuple
    clamped: bool
    trend_slope: float
    grid: RadialGrid


def _clamp(x: float):
    return min(1.1, max(-0.1, x)), not (-0.1 <= x <= 1.1)


def defect_estimates(model: MeroModel, grid: RadialGrid, targets) -> list:
    """Defect/ramification proxies for each target over the grid."""
    grid = grid.avoiding(model.known_moduli(grid.radii[-1] * 2.0))
    qp = model.qp
    if qp is None:
        raise DomainError("defect estimates need the model's QParam")
    out = []
    Ts = list(_characteristic_Ts(model, grid.radii, grid.angular_nodes))
    for a in targets:
        Ns = [counting_N(model, r, a) for r in grid.radii]
        Nts = [jackson_truncated_counting(model, r, a, qp)[1]
               for r in grid.radii]
        deltas = [1.0 - n / t for n, t in zip(Ns, Ts)]
        top = len(grid.radii) // 2
        xs = np.log(np.log(np.array(grid.radii[top:])))
        slope = float(np.polyfit(xs, np.array(deltas[top:]), 1)[0]) \
            if len(grid.radii) - top >= 2 else 0.0
        T_top = Ts[-1]
        raw = (deltas[-1],
               (Ns[-1] - Nts[-1]) / T_top,
               1.0 - Nts[-1] / T_top)
        d, f1 = _clamp(raw[0])
        v, f2 = _clamp(raw[1])
        t, f3 = _clamp(raw[2])
        out.append(DefectReport(a, d, v, t, raw, f1 or f2 or f3, slope, grid))
    return out


# ---------------------------------------------------------------------------
# Logarithmic order estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogOrderEstimate:
    value: float
    half_width: float
    estimator: str
    radii: tuple
    data: tuple


def _loglog_regression(radii, ys, estimator: str,
                       offset: float = 0.0) -> LogOrderEstimate:
    radii = np.asarray(radii, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if radii.size < 6:
        raise InsufficientGrid("need at least 6 radii")
    if radii[-1] / radii[0] < 0.999e3:
        raise InsufficientGrid("grid must span at least 3 decades")
    start = radii.size // 2
    x = np.log(np.log(radii[start:]))
    y = ys[start:]
    if float(np.max(np.abs(y))) < 1e-12:
        raise InsufficientGrid(
            "characteristic does not grow; order estimator degenerate")
    n = x.size
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    if n > 2 and sxx > 0:
        s2 = float(np.sum(resid**2)) / (n - 2)
        half = 2.0 * math.sqrt(s2 / sxx)
    else:
        half = math.inf if n <= 2 else 0.0
    return LogOrderEstimate(float(slope) + offset, half, estimator,
                            tuple(float(r) for r in radii),
                            tuple(float(v) for v in ys))


def log_order_from_T(samples: Sequence[NevanlinnaSample]) -> LogOrderEstimate:
    """sigma_log proxy: slope of log+ T against log log r, top half."""
    return _log_order_from_Ts([s.r for s in samples], [s.T for s in samples])


def _log_order_from_Ts(radii, Ts) -> LogOrderEstimate:
    """log_order_from_T from the radii and T at each."""
    ys = [math.log(max(T, 1.0)) for T in Ts]
    if all(abs(y) < 1e-12 for y in ys):
        raise InsufficientGrid("characteristic does not grow")
    return _loglog_regression(radii, ys, "T")


def log_order_from_counting(model: MeroModel, grid: RadialGrid,
                            target=0.0) -> LogOrderEstimate:
    """lambda_log proxy from the integrated counting function of the
    given target (exact lattice/root arithmetic, no quadrature)."""
    grid = grid.avoiding(model.known_moduli(grid.radii[-1] * 2.0))
    ys = [math.log(max(counting_N(model, r, target), 1.0))
          for r in grid.radii]
    return _loglog_regression(grid.radii, ys, "counting")


@dataclass
class WimanValironSample:
    r: float
    mu: float
    nu: int


def max_term_central_index(f: TruncatedSeries, r: float) -> WimanValironSample:
    """mu(r) = max |c_n| r^n and nu(r) = the largest maximising index.

    Requires r within the certified radius of a series that is not an
    exact polynomial (past it the maximiser may be a coefficient that
    saturated to zero, or one the truncation dropped), and the maximiser
    in the lower half of the stored range; otherwise the stored
    truncation is too short to trust it."""
    return _max_term(f, r, _log_moduli(f))


def _log_moduli(f: TruncatedSeries) -> np.ndarray:
    """log|c_n| of the coefficients, -inf at exact zeros."""
    mags = np.abs(f.coeffs)
    with np.errstate(divide="ignore"):
        return np.where(mags > 0, np.log(np.where(mags > 0, mags, 1.0)),
                        -math.inf)


def _max_term(f: TruncatedSeries, r: float,
              log_c: np.ndarray) -> WimanValironSample:
    """max_term_central_index from log_c = _log_moduli(f), which does
    not depend on r."""
    R = f.safe_radius
    if R is not None and r > R * (1.0 + 1e-12):
        raise TruncationTooShort(
            f"radius {r:g} exceeds the certified radius {R:g} of the series")
    logs = log_c + np.arange(log_c.size) * math.log(r)
    best = float(np.max(logs))
    nu = int(np.flatnonzero(logs == best)[-1])
    if nu > 0 and 2 * nu >= f.order:
        raise TruncationTooShort(
            f"central index {nu} not interior to stored order {f.order}")
    mu = math.exp(best) if best < 700 else math.inf
    return WimanValironSample(r=r, mu=mu, nu=nu)


def log_order_from_nu(f: TruncatedSeries, grid: RadialGrid) -> LogOrderEstimate:
    """sigma_log proxy: slope of log+ nu against log log r, plus one."""
    log_c = _log_moduli(f)
    nus = [_max_term(f, r, log_c).nu for r in grid.radii]
    ys = [math.log(max(nu, 1)) for nu in nus]
    return _loglog_regression(grid.radii, ys, "nu", offset=1.0)


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogDerivRow:
    r: float
    m_ratio: float
    T: float

    @property
    def ratio(self) -> float:
        return self.m_ratio / self.T if self.T > 0 else math.inf


def logderiv_lemma_check(model: MeroModel, qp: QParam, k: int,
                         grid: RadialGrid) -> list:
    """Table of (r, m(r, D_q^k f / f), T(r,f)) rows.

    When the model gives its shift ratio R at qp (MeroModel.shift_ratio_at:
    a product at its own base, a rational f with f(0) not in {0, infinity}
    at any base), the quotient is one exact rational function built from R
    by dqk_quotient, with no root solve for R. Any other model, including
    a rational f with a zero or a pole at the origin and a product checked
    at another base, evaluates D_q^k f by the closed-form orbit sum on its
    eval, one point per call. A constant f (R = 1) raises DomainError."""
    grid = grid.avoiding(model.known_moduli(grid.radii[-1] * abs(qp.q) ** k * 2.0))
    rows = []
    R = model.shift_ratio_at(qp)
    if R is not None:
        if R.num_degree == 0 and R.den_degree == 0:
            raise DomainError("logarithmic difference needs a nonconstant f")
        ratio_model = RationalModel(dqk_quotient(R, qp, k))
    else:
        def ratio_eval(z):
            return dqk_closed_form(model.eval, z, qp, k) / model.eval(z)

        ratio_model = SamplerModel(ratio_eval)
    means = _circle_means(ratio_model, grid.radii, grid.angular_nodes,
                          positive_part=True)
    Ts = _characteristic_Ts(model, grid.radii, grid.angular_nodes)
    for r, (mval, _), T in zip(grid.radii, means, Ts):
        rows.append(LogDerivRow(r, mval, T))
    return rows


@dataclass(frozen=True)
class SftRow:
    """Second-fundamental-theorem margin at one radius: the inequality
    (p-2) T <= sum_j Ntilde_J(r, f=a_j) + o(T) reads margin >= o(T)."""

    r: float
    T: float
    sum_Ntilde: float
    margin: float
    margin_sharp: float


def sft_check(model: MeroModel, targets, qp: QParam, grid: RadialGrid) -> list:
    """Margins of the second fundamental theorem over the grid.

    margin        = sum_j Ntilde_J(r, f=a_j) - (p-2) T(r,f)
    margin_sharp  = sum_j N(r, f=a_j) - N_J(r) - log r - (p-2) T(r,f)
    with N_J = 2N(r,f) - N(r, D_q f) + N(r, 1/D_q f). The model must
    give its Jackson weights and D_q f, which only N_J reads (a rational
    model); other shapes raise TargetUnsupported.
    """
    p = len(targets)
    if p < 3:
        raise DomainError("need at least 3 targets for a nontrivial margin")
    df_model = model.dq_model(qp)
    if len(set(map(complex, [t if t != INF else complex(1e308) for t in targets]))) != p:
        raise DomainError("targets must be distinct")
    grid = grid.avoiding(model.known_moduli(grid.radii[-1] * 2.0))
    rows = []
    for r, T in zip(grid.radii, _characteristic_Ts(model, grid.radii,
                                                   grid.angular_nodes)):
        S = 0.0
        Nsum = 0.0
        for a in targets:
            S += jackson_truncated_counting(model, r, a, qp)[1]
            Nsum += counting_N(model, r, a)
        NJ = (2.0 * counting_N(model, r, INF)
              - counting_N(df_model, r, INF)
              + counting_N(df_model, r, 0.0))
        margin = S - (p - 2) * T
        margin_sharp = Nsum - NJ - math.log(r) - (p - 2) * T
        rows.append(SftRow(r, T, S, margin, margin_sharp))
    return rows


@dataclass(frozen=True)
class WvRow:
    r: float
    nu: int
    mu: float
    z_star: complex
    log_ratio: float
    reference: float

    @property
    def deviation(self) -> float:
        return abs(self.log_ratio - self.reference) / max(
            abs(self.log_ratio), abs(self.reference), 1e-300)


def wiman_valiron_check(f: TruncatedSeries, qp: QParam, k: int,
                        grid: RadialGrid) -> list:
    """Rows (r, nu, mu, z*, log|f(q^k z*)/f(z*)|, (q^k-1) nu) with z* the
    max-modulus point on |z| = r, scanned at the grid's angular nodes.

    The reference column is the Wiman-Valiron exponent (q^k - 1) nu(r)
    (real part for complex q); the deviation normalises by the larger of
    the two columns. For q-series of logarithmic order two the observed
    exponent behaves like nu log(q^k), so the deviation tends to the
    fixed offset |log q^k - (q^k - 1)| / max(...) rather than to zero;
    the trend assertion belongs to the caller."""
    rows = []
    qk = qp.q ** k
    for r in grid.radii:
        wv = max_term_central_index(f, r)
        zs = r * _unit_circle(grid.angular_nodes)
        vals = np.abs(f.eval(zs))
        order = np.argsort(vals)
        i_best = int(order[-1])
        z_star = complex(zs[i_best])
        num = f.eval(qk * z_star)
        den = f.eval(z_star)
        obs = math.log(abs(num / den))
        # a second, well-separated near-max candidate must tell the same
        # story (conjugate twins of real-coefficient series do)
        i_second = None
        for idx in order[-2 ::-1][:8]:
            gap = abs(zs[idx] - z_star)
            if gap > 4.0 * r * (2 * np.pi / grid.angular_nodes):
                i_second = int(idx)
                break
        if i_second is not None and vals[i_second] > 0.999999 * vals[i_best]:
            z2 = complex(zs[i_second])
            obs2 = math.log(abs(f.eval(qk * z2) / f.eval(z2)))
            if abs(obs2 - obs) > 1e-6 * max(1.0, abs(obs)):
                raise MaxModulusAmbiguous(
                    f"two max-modulus candidates disagree at r = {r:g}")
        ref = ((qk - 1.0) * wv.nu).real  # qp.q is always complex
        rows.append(WvRow(r, wv.nu, wv.mu, z_star, obs, float(ref)))
    return rows


@dataclass
class GrowthReport:
    """Outcome of the growth-floor check sigma_log(f) >= sigma_log(A) + 1
    for verified solution pairs of D_q^k f + A f = 0."""

    sigma_A: float
    sigma_A_half_width: float
    sigma_f: float
    sigma_f_half_width: float
    skipped: bool = False
    reason: str = ""

    @property
    def gap(self) -> float:
        return self.sigma_f - self.sigma_A - 1.0


def growth_lower_bound_check(A_model: MeroModel, f_model: MeroModel,
                             qp: QParam, k: int,
                             grid: RadialGrid) -> GrowthReport:
    """Estimate sigma_log on both sides of D_q^k f + A f = 0 and report
    the gap sigma_log(f) - sigma_log(A) - 1.

    The pair is first verified: the pointwise relative residual of the
    equation must stay below 1e-6 at four points on each grid
    circle. Circles where the function values leave double range are
    skipped, but at least half of the circles must verify. Rational f
    means a polynomial-type solution; the growth floor concerns
    transcendental solutions only, so the check is skipped. Rational A
    is pinned at logarithmic order one (the exact value for any
    nonconstant rational; constants inherit the same baseline)."""
    verified = 0
    for r in grid.radii:
        circle_ok = True
        for j in range(_RESIDUAL_POINTS):
            z = r * np.exp(2j * np.pi * (j + 0.31) / _RESIDUAL_POINTS)
            d = dqk_closed_form(f_model.eval, z, qp, k)
            af = A_model.eval(z) * f_model.eval(z)
            if not (np.isfinite(d) and np.isfinite(af)):
                circle_ok = False
                break
            scale = max(1.0, abs(d), abs(af))
            if abs(d + af) / scale > _RESIDUAL_TOL:
                raise DomainError(
                    f"pair does not satisfy the equation at r = {r:g} "
                    f"(residual {abs(d + af) / scale:.2e})")
        verified += circle_ok
    if verified < max(1, len(grid.radii) // 2):
        raise DomainError(
            "too few grid circles admit a finite residual check")
    if isinstance(f_model, RationalModel):
        return GrowthReport(1.0, 0.0, math.nan, math.nan, skipped=True,
                            reason="solution is rational, not transcendental")
    M = grid.angular_nodes
    if isinstance(A_model, RationalModel):
        sigma_A, half_A = 1.0, 0.0
    else:
        radii = grid.avoiding(A_model.known_moduli(grid.radii[-1] * 2.0)).radii
        est = _log_order_from_Ts(radii, list(_characteristic_Ts(A_model,
                                                                radii, M)))
        sigma_A, half_A = est.value, est.half_width
    if isinstance(f_model, SeriesModel):
        est_f = log_order_from_nu(f_model.series, grid)
    elif isinstance(f_model, ProductModel):
        est_f = log_order_from_counting(f_model, grid, target=0.0)
    else:
        est_f = _log_order_from_Ts(grid.radii, list(
            _characteristic_Ts(f_model, grid.radii, M)))
    return GrowthReport(sigma_A, half_A, est_f.value, est_f.half_width)


# ---------------------------------------------------------------------------
# CSV artifact
# ---------------------------------------------------------------------------

CSV_HEADER = "r,m,N_0,N_inf,T,nJ_0,nJ_inf,quad_err"


def samples_to_csv(samples: Sequence[NevanlinnaSample]) -> str:
    """Fixed-schema CSV with 17 significant digits, byte-stable."""
    lines = [CSV_HEADER]
    for s in samples:
        lines.append(",".join(
            f"{v:.16e}" for v in (s.r, s.m, s.N0, s.Ninf, s.T, s.nJ0,
                                  s.nJinf, s.quad_err)))
    return "\n".join(lines) + "\n"
