"""Tests of the independent oracles against hand-computed values.

    python3 -m pytest perfbench/selftest_oracles.py

The file name keeps it out of the package's own test run; pass it to
pytest explicitly.
"""

import math

import numpy as np
import pytest

import oracles


def test_q_factorial_hand_values():
    # [3]_2! = [1]_2 [2]_2 [3]_2 = 1 * 3 * 7
    assert oracles.q_factorial(3, 2.0) == pytest.approx(21.0, rel=1e-15)
    # [2]_{1/2}! = 1 * (1 + 1/2)
    assert oracles.q_factorial(2, 0.5) == pytest.approx(1.5, rel=1e-15)


def test_pochhammer_ladder_hand_values():
    # (2;2)_0, (2;2)_1 = 1 - 2, (2;2)_2 = (1 - 2)(1 - 4)
    lad = oracles.pochhammer_ladder(2, 2, 2)
    assert [complex(v) for v in lad] == [1, -1, 3]


def test_series_coefficients_hand_values():
    c = oracles.series_coefficients(2.0, 3, alphas=(0.5,), betas=(0.3,))
    # 1/[n]_2! = 1, 1, 1/3, 1/21
    np.testing.assert_allclose(c["exp_q"], [1, 1, 1 / 3, 1 / 21], rtol=1e-15)
    # 1/(2;2)_n = 1, -1, 1/3, -1/21
    np.testing.assert_allclose(c["etilde_q"], [1, -1, 1 / 3, -1 / 21],
                               rtol=1e-15)
    # 2^{n(n-1)/2}/(2;2)_n = 1, -1, 2/3, -8/21
    np.testing.assert_allclose(c["big_e_q"], [1, -1, 2 / 3, -8 / 21],
                               rtol=1e-15)
    np.testing.assert_allclose(c["sin_q"], [0, 1, 0, -1 / 21], rtol=1e-15)
    np.testing.assert_allclose(c["cos_q"], [1, 0, -1 / 3, 0], rtol=1e-15)
    # t_1 = (1 - a)/(1 - b) * (-1)/(1 - q) = (0.5/0.7) * (-1)/(-1)
    assert c["phi_rs"][1] == pytest.approx(5 / 7, rel=1e-15)


def test_series_coefficients_match_mpmath_qp():
    import mpmath

    c = oracles.series_coefficients(0.5 + 0.3j, 40)
    with mpmath.workdps(40):
        ref = 1 / mpmath.qp(mpmath.mpc(0.5, 0.3), mpmath.mpc(0.5, 0.3), 40)
    assert c["etilde_q"][40] == pytest.approx(complex(ref), rel=1e-14)


def test_series_coefficients_round_below_double_range_to_zero():
    c = oracles.series_coefficients(2.0, 60)
    # 1/(2;2)_60 ~ 2^-1830 is below the smallest subnormal
    assert c["etilde_q"][60] == 0.0
    assert c["etilde_q"][30] != 0.0


def test_lattice_and_counting_hand_values():
    assert oracles.lattice("etilde", 2.0, 10.0) == [2, 4, 8]
    assert oracles.lattice("bigE", 0.5, 10.0) == [-1, -2, -4, -8]
    # N(10, 0) for simple zeros at 2^n: log(10/2) + log(10/4) + log(10/8)
    n10 = oracles.counting_sum(oracles.lattice("etilde", 2.0, 1e9), 10.0)
    assert n10 == pytest.approx(math.log(1000 / 64), rel=1e-15)
    # a double zero at 1/2 and a simple zero at the origin
    assert oracles.counting_sum([(0.5, 2)], 2.0, origin_mult=1) == \
        pytest.approx(math.log(2) + 2 * math.log(4), rel=1e-15)


def test_lattice_log_abs_hand_values():
    # E_{1/2}(1) = prod_{n>=0} (1 + 2^-n) = 2 * 2.3842310290313...
    got = oracles.lattice_log_abs("bigE", 0.5, np.array([1.0]))[0]
    assert got == pytest.approx(math.log(4.768462058062743), rel=1e-14)
    # etilde_2(-1) = prod_{n>=1} (1 + 2^-n)
    got = oracles.lattice_log_abs("etilde", 2.0, np.array([-1.0]))[0]
    assert got == pytest.approx(math.log(2.3842310290313715), rel=1e-14)


def test_rational_log_abs_and_log_plus_mean():
    # f = 2 (z - 1)/(z + 1)
    vals = oracles.rational_log_abs([1.0], [-1.0], 2.0, np.array([3.0, 0.0]))
    np.testing.assert_allclose(vals, [0.0, math.log(2.0)], atol=1e-15)
    # f = z^2: log+|f| = 2 log r on |z| = r > 1, and 0 inside the unit disc
    f = lambda zs: oracles.rational_log_abs([0.0, 0.0], [], 1.0, zs)  # noqa: E731
    assert oracles.circle_log_plus_mean(f, 3.0, 64) == \
        pytest.approx(2 * math.log(3.0), rel=1e-14)
    assert oracles.circle_log_plus_mean(f, 0.5, 64) == 0.0


def test_max_rel_error():
    ref = np.array([1.0, 0.0])
    assert oracles.max_rel_error(np.array([1.0 + 1e-12, 0.0]), ref) \
        == pytest.approx(1e-12, rel=1e-3)
    # below the absolute floor 1e-300 a subnormal difference counts as small
    assert oracles.max_rel_error(np.array([0.0]), np.array([1e-310])) < 1e-9
