"""The lattice products evaluated on whole arrays of points.

EtildeProduct and BigEProduct take a numpy array in one pass; MeroModel
hands them each quadrature circle as one array. Both must give what the
one-point loop gives on every element: bit for bit for real q, and to
1e-13 relative for complex q.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(prod=lattice_products(), r=radii, nodes=node_counts)
def test_model_circles_match_point_loop(prod, r, nodes):
    qp = prod.qp
    whole = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval, qp=qp)
    pointwise = MeroModel.from_q_product(prod.zeros_up_to,
                                         scalar_only(prod.log_eval), qp=qp)
    r = RadialGrid((r,), nodes).avoiding(whole.known_moduli(2.0 * r)).radii[0]
    real_q = qp.q.imag == 0.0
    got = dataclasses.astuple(characteristic(whole, r, nodes))
    want = dataclasses.astuple(characteristic(pointwise, r, nodes))
    if real_q:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13, nan_ok=True)
    got_j = jensen_residual(whole, r, nodes)
    want_j = jensen_residual(pointwise, r, nodes)
    assert got_j == (want_j if real_q else pytest.approx(want_j, abs=1e-12))


@pytest.mark.parametrize("prod", [EtildeProduct(QParam(2.0)),
                                  BigEProduct(QParam(0.5))])
def test_one_log_eval_call_per_circle(prod, monkeypatch):
    calls = []
    cls = type(prod)
    real = cls.__dict__["log_eval"]

    def counted(self, z):
        calls.append(np.size(z))
        return real(self, z)

    monkeypatch.setattr(cls, "log_eval", counted)
    model = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                     qp=prod.qp)
    characteristic(model, 10.5, 1024)
    assert calls == [1024]
