"""The lattice products evaluated on whole arrays of points.

EtildeProduct and BigEProduct take a numpy array in one pass. eval and
log_eval must give what their one-point loop gives on every element:
bit for bit for real q, and to 1e-13 relative for complex q. MeroModel
hands each quadrature circle as one array to the real log_abs, which
has no one-point loop (a point is a one-element array) and stays within
1e-12 relative of Re log_eval.

log_abs runs most lattice steps in unmasked blocks of rows and only the
last few as masked per-step array operations. It must give, bit for
bit, what the all-masked per-step loop below gives (the route the
blocks replaced): in every q regime, at sizes 1, 2, 3 and either side
of the block boundaries, from r = 1e-2 to 1e8 and near overflow (r =
1e300, moduli up to 1e307), on scattered points and through exact
lattice zeros, where it is -inf and never NaN. An array holding a point
that is not finite is refused with DomainError, not summed. Each
regime keeps one pinned example, which runs in every collection of the
tests, whatever examples hypothesis draws there.
"""

import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import DomainError, PoleOnCircle
from jacksonq.nevanlinna import (
    MeroModel,
    RadialGrid,
    characteristic,
    jensen_residual,
)
from jacksonq.qcore import QParam
from jacksonq.qspecial import (
    _BLOCK,
    BigEProduct,
    EtildeProduct,
    LatticeProduct,
)

# (|q| range, real sign or None for complex q); |q| keeps away from 1 so
# that a point needs at most a few hundred lattice factors
REGIMES = {
    "q > 1": ((1.2, 4.0), 1.0),
    "q < -1": ((1.2, 4.0), -1.0),
    "0 < q < 1": ((0.25, 0.85), 1.0),
    "-1 < q < 0": ((0.25, 0.85), -1.0),
    "complex |q| > 1": ((1.2, 4.0), None),
    "complex |q| < 1": ((0.25, 0.85), None),
}


@st.composite
def lattice_products(draw):
    (lo, hi), sign = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    modulus = draw(st.floats(lo, hi))
    if sign is None:
        angle = draw(st.floats(0.05, math.pi - 0.05))
        q = modulus * cmath.exp(1j * angle * draw(st.sampled_from((1, -1))))
    else:
        q = sign * modulus
    qp = QParam(q)
    return EtildeProduct(qp) if modulus > 1.0 else BigEProduct(qp)


radii = st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e)
node_counts = st.integers(64, 4096)


def circle(r: float, nodes: int) -> np.ndarray:
    return r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, nodes,
                                       endpoint=False))


def assert_same(got, want, real_q: bool):
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if real_q:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return
    same = got == want
    near = np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))
    assert np.all(same | near)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(prod=lattice_products(), r=radii, nodes=node_counts)
def test_array_path_matches_point_loop(prod, r, nodes):
    zs = circle(r, nodes)
    # the points are independent; the loop runs on a spread of them
    picks = np.unique(np.linspace(0, nodes - 1, 128).astype(int))
    with np.errstate(all="ignore"):
        logs = prod.log_eval(zs)
        vals = prod.eval(zs)
        point_logs = [prod.log_eval(z) for z in zs[picks]]
        point_vals = [prod.eval(z) for z in zs[picks]]
    assert logs.shape == vals.shape == zs.shape
    real_q = prod.qp.q.imag == 0.0
    assert_same(logs[picks], point_logs, real_q)
    assert_same(vals[picks], point_vals, real_q)


def one_point_log_abs(prod):
    """A view of prod whose log_abs calls prod.log_abs on one point at a
    time: the pointwise reference for a model's circles. Each point is
    evaluated once; a second circle through it reads the kept value."""
    kept = {}

    def log_abs(zs):
        flat = [complex(z) for z in np.ravel(zs)]
        for z in flat:
            if z not in kept:
                kept[z] = float(prod.log_abs(z))
        return np.array([kept[z] for z in flat]).reshape(np.shape(zs))
    return SimpleNamespace(zeros_up_to=prod.zeros_up_to, log_abs=log_abs,
                           eval=prod.eval, qp=prod.qp,
                           shift_ratio=prod.shift_ratio)


# the pointwise reference runs the array kernel once per point, about ten
# times the cost of the old one-point loop, so its circles stay small
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(prod=lattice_products(), r=radii, nodes=st.integers(64, 512))
def test_model_circles_match_point_loop(prod, r, nodes):
    whole = MeroModel.from_product(prod)
    pointwise = MeroModel.from_product(one_point_log_abs(prod))
    r = RadialGrid((r,), nodes).avoiding(whole.known_moduli(2.0 * r)).radii[0]
    # log_abs has no one-point branch, so even complex q agrees exactly
    got = dataclasses.astuple(characteristic(whole, r, nodes))
    want = dataclasses.astuple(characteristic(pointwise, r, nodes))
    assert got == want
    assert jensen_residual(whole, r, nodes) == jensen_residual(pointwise, r,
                                                              nodes)


def benchmark_spelling(prod):
    """The bound-method call the benchmark's entire_growth workload makes."""
    return MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                    eval_fn=prod.eval, qp=prod.qp)


@pytest.mark.parametrize("prod", [EtildeProduct(QParam(2.0)),
                                  BigEProduct(QParam(0.5))])
def test_one_log_abs_call_per_circle(prod, monkeypatch):
    calls = {"log_abs": [], "log_eval": []}
    # each method is counted on the class that defines it: log_abs on
    # LatticeProduct, log_eval on LatticeProduct and on the product's class
    for name in calls:
        for cls in (LatticeProduct, type(prod)):
            if name in cls.__dict__:
                count_calls(monkeypatch, cls, name, calls[name])
    for model in (MeroModel.from_product(prod), benchmark_spelling(prod)):
        characteristic(model, 10.5, 1024)
    assert calls == {"log_abs": [1024, 1024], "log_eval": []}


def count_calls(monkeypatch, cls, name: str, sizes: list):
    """Patch cls.name to append the size of its argument to sizes."""
    real = cls.__dict__[name]

    def counted(self, z):
        sizes.append(np.size(z))
        return real(self, z)

    monkeypatch.setattr(cls, name, counted)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(prod=lattice_products(), r=radii, nodes=node_counts)
def test_log_abs_is_the_real_part_of_log_eval(prod, r, nodes):
    zs = circle(r, nodes)
    with np.errstate(all="ignore"):
        got = prod.log_abs(zs)
        want = np.real(prod.log_eval(zs))
    assert got.dtype == np.float64 and got.shape == zs.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # a point is a one-element array, so it is its circle entry exactly
    for i in (0, nodes // 3, nodes - 1):
        for z in (zs[i], complex(zs[i]), zs[i:i + 1]):
            one = prod.log_abs(z)
            assert one.shape == np.shape(z)
            assert one.tobytes() == got[i:i + 1].tobytes()
    # lattice zeros: -inf exactly where the product is exactly 0, never NaN
    anchor = prod.qp.q if isinstance(prod, EtildeProduct) else -1.0 + 0.0j
    pts = np.array([anchor] + [z for z, _ in prod.zeros_up_to(2.0 * r)],
                   dtype=np.complex128)
    with np.errstate(all="ignore"):
        la = prod.log_abs(pts)
        vals = prod.eval(pts)
    assert not np.any(np.isnan(la))
    assert np.array_equal(np.isneginf(la), vals == 0)


# circles whose node at angle 0, z = r exactly, is a lattice zero the
# kernel hits exactly (1 - t_n == 0)
@pytest.mark.parametrize("prod, r", [(EtildeProduct(QParam(2.0)), 2.0),
                                     (EtildeProduct(QParam(-2.0)), 4.0),
                                     (BigEProduct(QParam(-0.5)), 2.0)],
                         ids=["q=2", "q=-2", "q=-0.5"])
def test_exact_lattice_zero_on_circle_raises(prod, r):
    model = MeroModel.from_product(prod)
    with np.errstate(divide="ignore"):
        la = model.log_abs(circle(r, 64))
    assert la[0] == -np.inf and not np.any(np.isnan(la))
    assert np.all(np.isfinite(la[1:]))
    with np.errstate(divide="ignore"), pytest.raises(PoleOnCircle):
        jensen_residual(model, r, 64)


def _times_ref(x, m):
    out = np.empty(np.broadcast(x, m).shape, dtype=np.complex128)
    out.real = x.real * m.real - x.imag * m.imag
    out.imag = x.real * m.imag + x.imag * m.real
    return out


def log_abs_ref(prod, zs):
    """prod.log_abs by one masked numpy step per lattice factor for all
    points: the loop log_abs ran before its bulk phase."""
    q = prod.qp.q
    anchor = q if isinstance(prod, EtildeProduct) else -1.0 + 0.0j
    t = np.atleast_1d(np.asarray(zs, dtype=np.complex128)) / anchor
    shrink = abs(q) > 1.0
    cutoff = prod.tol * (1.0 - (1.0 / abs(q) if shrink else abs(q)))
    out = np.full(t.shape, 0.0)
    live = np.abs(t) >= cutoff
    while live.any():
        out = np.where(live, out + np.log(np.abs(1.0 - t)), out)
        t = t / q if shrink else _times_ref(t, q)
        live &= np.abs(t) >= cutoff
    return out.reshape(np.shape(zs))


# one product per regime of REGIMES, in its order
REGIME_PRODUCTS = [EtildeProduct(QParam(2.5)), EtildeProduct(QParam(-1.3)),
                   BigEProduct(QParam(0.5)), BigEProduct(QParam(-0.7)),
                   EtildeProduct(QParam(1.7 + 1.2j)),
                   BigEProduct(QParam(0.3 + 0.37j))]
# 1-3 points, and either side of the sizes where a block's row count
# changes: 64 rows, 2 rows, 1 row
SIZES = [1, 2, 3] + [w + d for w in (_BLOCK // 64, _BLOCK // 2, _BLOCK)
                     for d in (-1, 0, 1)]


def scattered(r: float, size: int) -> np.ndarray:
    """size points with moduli from 1e-6 r to 100 r and spread angles."""
    rng = np.random.default_rng(size)
    return (r * 10.0 ** rng.uniform(-6.0, 2.0, size)
            * np.exp(2j * np.pi * rng.uniform(size=size)))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(prod=lattice_products(),
       r=st.floats(-2.0, 8.0).map(lambda e: 10.0 ** e),
       size=st.sampled_from(SIZES), scatter=st.booleans())
@example(prod=REGIME_PRODUCTS[0], r=1e8, size=SIZES[3], scatter=False)
@example(prod=REGIME_PRODUCTS[1], r=10.5, size=2, scatter=False)
@example(prod=REGIME_PRODUCTS[2], r=1e4, size=SIZES[5], scatter=True)
@example(prod=REGIME_PRODUCTS[3], r=1e-2, size=SIZES[7], scatter=False)
@example(prod=REGIME_PRODUCTS[4], r=300.0, size=SIZES[-1], scatter=False)
@example(prod=REGIME_PRODUCTS[5], r=1e6, size=3, scatter=True)
# near overflow: circles at r = 1e300, scattered moduli up to 1e307
@example(prod=REGIME_PRODUCTS[0], r=1e300, size=SIZES[4], scatter=False)
@example(prod=REGIME_PRODUCTS[3], r=1e300, size=2, scatter=False)
@example(prod=REGIME_PRODUCTS[5], r=1e300, size=SIZES[4], scatter=False)
@example(prod=REGIME_PRODUCTS[1], r=1e305, size=SIZES[4], scatter=True)
@example(prod=REGIME_PRODUCTS[4], r=1e305, size=SIZES[4], scatter=True)
def test_log_abs_matches_the_step_loop(prod, r, size, scatter):
    zs = scattered(r, size) if scatter else circle(r, size)
    with np.errstate(all="ignore"):
        got = prod.log_abs(zs)
        want = log_abs_ref(prod, zs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("prod", REGIME_PRODUCTS, ids=list(REGIMES))
@pytest.mark.parametrize("size", [2, 3, 512, 4097])
def test_log_abs_through_lattice_zeros_matches_the_step_loop(prod, size):
    zeros = [z for z, _ in prod.zeros_up_to(1e8)]
    # circles through a lattice zero at their node 0, then all the
    # zeros, and a zero with 2 and 0, as arrays of their own
    arrays = [z * circle(1.0, size) for z in zeros[::7]]
    arrays += [np.array(zeros), np.array(zeros).reshape(-1, 1),
               np.array([zeros[3], 2.0, 0.0])]
    for zs in arrays:
        with np.errstate(all="ignore"):
            got = prod.log_abs(zs)
            want = log_abs_ref(prod, zs)
            vals = prod.eval(zs)
        assert got.tobytes() == want.tobytes()
        assert not np.any(np.isnan(got))
        assert np.array_equal(np.isneginf(got), vals == 0)
    # one point that is not finite refuses its whole array, unwarned
    for zs in (np.array([zeros[3], np.inf, 2.0]),
               np.array([zeros[3], complex(np.nan, 1.0), 0.0])):
        for reduce in ("log_abs", "eval", "log_eval"):
            with pytest.raises(DomainError, match="not finite"):
                getattr(prod, reduce)(zs)
    if prod.qp.q.imag == 0.0:  # real q meets its zeros exactly
        with np.errstate(divide="ignore"):
            la = prod.log_abs(zeros[0] * circle(1.0, size))
        assert np.isneginf(la[0])

