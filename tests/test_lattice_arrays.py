"""The lattice products evaluated on whole arrays of points.

EtildeProduct and BigEProduct take a numpy array in one pass. eval and
log_eval must give what their one-point loop gives on every element:
bit for bit for real q, and to 1e-13 relative for complex q. MeroModel
hands each quadrature circle as one array to the real log_abs, which
has no one-point loop (a point is a one-element array) and stays within
1e-12 relative of Re log_eval.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacksonq.errors import PoleOnCircle
from jacksonq.nevanlinna import (
    MeroModel,
    RadialGrid,
    characteristic,
    jensen_residual,
)
from jacksonq.qcore import QParam
from jacksonq.qspecial import BigEProduct, EtildeProduct

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


def scalar_only(fn):
    """fn behind a guard that refuses arrays, like a user's own
    one-point evaluator."""
    def one_point(z):
        if isinstance(z, np.ndarray):
            raise TypeError("one point at a time")
        return fn(z)
    return one_point


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
    """prod.log_abs on one point at a time, as a log_eval whose real part
    is that value: the pointwise route of a ProductModel. Each point is
    evaluated once; a second circle through it reads the kept value."""
    kept = {}

    def one_point(z):
        if z not in kept:
            kept[z] = complex(prod.log_abs(z))
        return kept[z]
    return scalar_only(one_point)


# the pointwise reference runs the array kernel once per point, about ten
# times the cost of the old one-point loop, so its circles stay small
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(prod=lattice_products(), r=radii, nodes=st.integers(64, 512))
def test_model_circles_match_point_loop(prod, r, nodes):
    qp = prod.qp
    whole = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval, qp=qp)
    pointwise = MeroModel.from_q_product(prod.zeros_up_to,
                                         one_point_log_abs(prod), qp=qp)
    r = RadialGrid((r,), nodes).avoiding(whole.known_moduli(2.0 * r)).radii[0]
    # log_abs has no one-point branch, so even complex q agrees exactly
    got = dataclasses.astuple(characteristic(whole, r, nodes))
    want = dataclasses.astuple(characteristic(pointwise, r, nodes))
    assert got == want
    assert jensen_residual(whole, r, nodes) == jensen_residual(pointwise, r,
                                                              nodes)


@pytest.mark.parametrize("prod", [EtildeProduct(QParam(2.0)),
                                  BigEProduct(QParam(0.5))])
def test_one_log_abs_call_per_circle(prod, monkeypatch):
    calls = {"log_abs": [], "log_eval": []}
    cls = type(prod)
    for name in calls:
        real = cls.__dict__[name]

        def counted(self, z, real=real, name=name):
            calls[name].append(np.size(z))
            return real(self, z)

        monkeypatch.setattr(cls, name, counted)
    model = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                     qp=prod.qp)
    characteristic(model, 10.5, 1024)
    assert calls == {"log_abs": [1024], "log_eval": []}


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
    model = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                     qp=prod.qp)
    with np.errstate(divide="ignore"):
        la = model.log_abs(circle(r, 64))
    assert la[0] == -np.inf and not np.any(np.isnan(la))
    assert np.all(np.isfinite(la[1:]))
    with np.errstate(divide="ignore"), pytest.raises(PoleOnCircle):
        jensen_residual(model, r, 64)
