"""One normal input per workload passes its checks, and each kept faulty
input fails today for its named reason.

    python3 -m pytest perfbench/selftest_faults.py

When a fix lands, the matching faulty-input test here fails: the fix moves
the benchmark's failed count, and this file records the new expectation.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402


def _passes(op):
    op.check(op.run())


def _fails_with(op, klass):
    with pytest.raises(Exception) as info:
        op.check(op.run())
    assert W.fault_class(info.value) == klass, repr(info.value)


def test_verify_normal_input_passes(tmp_path):
    _passes(W.VerifyOp(20240501, str(tmp_path / "v.csv")))


def test_growth_normal_inputs_pass():
    ops = W.build_growth(1)
    _passes(ops[0])  # seeded, no zero location
    _passes(ops[4])  # fixed real q, zero location


def test_solve_normal_input_passes():
    _passes(W.build_solve(1)[0])


@pytest.mark.parametrize("index", [6, 7])
def test_complex_q_zero_location_fails(index):
    op = W.build_growth(1)[index]
    assert op.fault == W.WINDING
    _fails_with(op, W.WINDING)


def test_nan_coefficients_fault():
    op = W.build_solve(1)[8]
    assert op.fault == W.NAN_COEFFS and op.q == 2 and op.N == 2000
    _fails_with(op, W.NAN_COEFFS)


def test_bare_overflow_fault():
    op = W.build_solve(1)[9]
    assert op.fault == W.BARE_OVERFLOW
    with pytest.raises(OverflowError):
        op.run()


def test_faulty_inputs_do_not_depend_on_the_seed():
    for build in (W.build_growth, W.build_solve):
        a = [(op.label, op.fault) for op in build(1) if op.fault]
        b = [(op.label, op.fault) for op in build(2) if op.fault]
        assert a == b and a


def test_same_seed_same_inputs():
    for build in (W.build_growth, W.build_solve):
        assert [op.label for op in build(5)] == [op.label for op in build(5)]
        assert [op.label for op in build(5)] != [op.label for op in build(6)]


def test_benchmark_json_matches_the_metrics_printed():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_units()
