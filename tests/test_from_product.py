"""A product model holds its product.

MeroModel.from_product(prod) takes a LatticeProduct, or any object with
its members zeros_up_to, log_abs (on arrays), eval, qp and shift_ratio,
and reads everything off it. from_q_product survives only as the
bound-method spelling of earlier releases: it must give the same model,
bit for bit, and refuse whatever is not one lattice product's methods.
The model keeps the split of its zeros up to the largest radius asked,
and every count read off it is the count of a fresh split.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import jacksonq
from jacksonq.errors import DomainError
from jacksonq.nevanlinna import (
    MeroModel,
    ProductModel,
    characteristic,
    counting_N,
    jensen_residual,
)
from jacksonq.qcore import QParam
from jacksonq.qspecial import BigEProduct, EtildeProduct, LatticeProduct

PRODUCTS = [BigEProduct(QParam(0.5)), EtildeProduct(QParam(2.0))]
IDS = ["E_q q=0.5", "etilde_q q=2"]


@pytest.mark.parametrize("prod", PRODUCTS, ids=IDS)
def test_bound_methods_give_the_same_rows(prod):
    # the call perfbench's entire_growth workload makes
    shim = MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                    eval_fn=prod.eval, qp=prod.qp)
    model = MeroModel.from_product(prod)
    for r in (3.0, 10.5, 1e3, 3.3e5):
        assert (dataclasses.astuple(characteristic(shim, r, 1024))
                == dataclasses.astuple(characteristic(model, r, 1024)))
    assert jensen_residual(shim, 10.5, 1024) == jensen_residual(model, 10.5,
                                                                1024)


@pytest.mark.parametrize("prod", PRODUCTS, ids=IDS)
def test_bound_methods_of_one_product_only(prod):
    other = EtildeProduct(QParam(3.0))
    with pytest.raises(DomainError, match="from_product"):
        MeroModel.from_q_product(lambda r: prod.zeros_up_to(r),
                                 lambda z: prod.log_eval(z), qp=prod.qp)
    with pytest.raises(DomainError, match="from_product"):
        MeroModel.from_q_product(prod.zeros_up_to, lambda z: prod.log_eval(z))
    with pytest.raises(DomainError, match="from_product"):
        MeroModel.from_q_product(other.zeros_up_to, prod.log_eval)
    with pytest.raises(DomainError, match="from_product"):
        MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                 eval_fn=other.eval)
    with pytest.raises(DomainError, match="from_product"):
        MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                 qp=QParam(prod.qp.q * 1.5))


@pytest.mark.parametrize("prod", PRODUCTS, ids=IDS)
def test_model_reads_base_and_ratio_off_its_product(prod):
    model = MeroModel.from_product(prod)
    assert [f.name for f in dataclasses.fields(ProductModel)] == ["product"]
    assert model.product is prod and model.qp is prod.qp
    assert model.shift_ratio_at(QParam(prod.qp.q)) is prod.shift_ratio
    assert model.shift_ratio_at(QParam(prod.qp.q * 1.5)) is None
    assert not hasattr(MeroModel, "shift_ratio")


def test_no_module_calls_the_bound_method_spelling():
    calls = []
    for path in sorted(Path(jacksonq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "from_q_product"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("prod", PRODUCTS, ids=IDS)
def test_zero_split_kept_for_the_largest_radius(prod, monkeypatch):
    asked = []
    real = LatticeProduct.zeros_up_to

    def counted(self, radius):
        asked.append(radius)
        return real(self, radius)

    model = MeroModel.from_product(prod)
    radii = (100.0, 10.5, 3.3e5, 1e3, 3.3e5, 7.0)
    with monkeypatch.context() as patch:
        patch.setattr(LatticeProduct, "zeros_up_to", counted)
        kept = [counting_N(model, r) for r in radii]
        moduli = model.known_moduli(1e3)
    assert asked == [100.0, 3.3e5]
    fresh = [counting_N(MeroModel.from_product(prod), r) for r in radii]
    assert [x.hex() for x in kept] == [x.hex() for x in fresh]
    assert moduli == MeroModel.from_product(prod).known_moduli(1e3)
