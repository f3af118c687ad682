"""The benchmark's trace mode wraps program layers from outside, by name
(perfbench/tracing.py, LAYERS). These tests keep every name it wraps
resolvable, and keep all four model shapes routing log|f| through the
one method it times, MeroModel.log_abs."""

import importlib.util
import pathlib
import sys

import pytest

import jacksonq.cli  # noqa: F401  (the tracer wraps cli.main)
from jacksonq.nevanlinna import MeroModel, proximity
from jacksonq.qcore import QParam
from jacksonq.qode import RationalFunction
from jacksonq.qoperator import Sampler
from jacksonq.qspecial import BigEProduct, etilde_q

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer(modname: str, path: str):
    owner = sys.modules["jacksonq." + modname]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name)).get(attr)
    return getattr(owner, path, None)


def test_every_layer_resolves_and_uninstall_restores(tracing):
    originals = [_layer(m, p) for m, p, _, _ in tracing.LAYERS]
    assert all(f is not None for f in originals)
    log_abs = MeroModel.__dict__["log_abs"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert MeroModel.__dict__["log_abs"] is not log_abs
    finally:
        tracer.uninstall()
    assert MeroModel.__dict__["log_abs"] is log_abs
    assert [_layer(m, p) for m, p, _, _ in tracing.LAYERS] == originals


def _shapes():
    return [
        MeroModel.from_rational(RationalFunction([1.0, 2.0], [3.0, 1.0])),
        MeroModel.from_series(etilde_q(QParam(2.0), 48)),
        MeroModel.from_product(BigEProduct(QParam(0.5))),
        MeroModel.from_sampler(Sampler(lambda z: 1.0 + z), entire=True),
    ]


@pytest.mark.parametrize("model", _shapes(),
                         ids=lambda m: type(m).__name__)
def test_each_shape_times_log_abs_once_per_circle(tracing, model):
    assert "log_abs" not in vars(type(model))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin()
        proximity(model, 2.5, M=256)
        tracer.end(1.0)
    finally:
        tracer.uninstall()
    stats = tracer.per_op(1)
    assert stats["nevanlinna.MeroModel.log_abs.calls"] == 1
    assert stats["nevanlinna.MeroModel.log_abs.points"] == 256
