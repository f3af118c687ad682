"""The bracket ladder, the solver's bracket products and exp_q's
quotients against the scalar loops they replaced, byte for byte.

qcore._bracket_ladder runs each long doubling block as float passes
that round as CPython's complex product and division do,
qode._bracket_products forms D_n = prod_{j=1..k} [n+j]_q as k such
product passes, and qspecial._reciprocal_factorials takes exp_q's
running quotient as one accumulate up to the first bracket whose
modulus is zero or not finite. The frozen loops below are those routes
as they were. Outputs are compared with tobytes(), so a sign of zero
or a NaN payload that moved would fail: this test, not an argument
about one platform's rounding, is what holds the routes equal.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacksonq import qcore
from jacksonq.errors import (
    BracketOverflow,
    BracketUnderflow,
    ConditioningWarning,
    DomainError,
)
from jacksonq.qcore import QParam, TruncatedSeries, _banded_steps, q_brackets
from jacksonq.qode import (
    _CONDITION_WARN,
    QdeProblem,
    RationalFunction,
    _bracket_products,
    solve_series,
    solve_shifted_series,
)
from jacksonq.qspecial import _reciprocal_factorials, exp_q
from test_bracket_ladder import REGIME_Q, _qparam, regime_q

# at and around the first array block, and a ladder of four of them
ORDERS = (0, 1, 2, 3, 127, 128, 129, 200, 2000)
# |q|^n leaves 1e300 inside N = 2000: brackets saturate to inf + 0j
OVERFLOWING = (2.0, 3.0 + 4.0j, 1.9 * cmath.exp(0.85j))
Q_VALUES = sorted(REGIME_Q.values(), key=str) + list(OVERFLOWING)


def frozen_ladder(q: complex, N: int) -> list:
    """qcore._bracket_ladder as a loop on Python complex."""
    qm1 = q - 1.0
    inf = complex(math.inf, 0.0)
    out = [0.0 + 0.0j, 1.0 + 0.0j][: N + 1]
    powers = [1.0 + 0.0j]
    over = [False]
    square = q
    low = 1
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


def frozen_products(brackets: list, N: int, k: int) -> np.ndarray:
    """D_n for n = 0 .. N - k, one math.prod an order."""
    return np.fromiter(
        (math.prod(brackets[n + 1: n + k + 1], start=1.0 + 0.0j)
         for n in range(N - k + 1)), dtype=np.complex128, count=N - k + 1)


def frozen_reciprocal_factorials(brackets: list) -> np.ndarray:
    """exp_q's coefficients 1/[n]_q! as a loop over the brackets."""
    coeffs = np.zeros(len(brackets), dtype=np.complex128)
    c = 1.0 + 0.0j
    coeffs[0] = c
    for n in range(1, len(brackets)):
        br = brackets[n]
        c = c / br if (math.isfinite(br.real) and abs(br) > 0) else 0.0
        coeffs[n] = c
    return coeffs


def frozen_recurrence(prob, N: int, s: int) -> TruncatedSeries:
    """qode._recurrence with its bracket products from frozen_products."""
    if N < prob.k:
        raise DomainError("truncation order must be at least k")
    qp, k = prob.qp, prob.k
    b = prob.B.origin_series(N - k).coeffs.tolist()
    p, q = prob.A.num.tolist(), prob.A.den.tolist()
    denoms = frozen_products(frozen_ladder(qp.q, N), N, k)
    w = max(len(p), len(q)) - 1
    u = [0j] * (w + N - k + 1)
    c = np.empty(N + 1, dtype=np.complex128)
    c[:k] = prob.initial
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.hypot(denoms.real, denoms.imag)
        bad = np.flatnonzero(~(np.isfinite(sizes) & (sizes >= qp.guard_tol)))
        stop = int(bad[0]) if bad.size else N - k + 1
        if s:
            weights = np.cumprod(np.concatenate(
                ([1.0], np.full(N, qp.q ** s)))).tolist()
            out = [0j] * w + list(prob.initial) + [0j] * (N - k + 1)
            d = ([0j] * w + [wj * cj for wj, cj in zip(weights, prob.initial)]
                 + [0j] * (N - k + 1))
        else:
            weights = None
            out = d = [0j] * w + list(prob.initial) + [0j] * (N - k + 1)
        recips = (1.0 / denoms[:stop]).tolist()
        weak = np.flatnonzero(sizes[:stop] < _CONDITION_WARN).tolist()
        lo = 0
        for hi in weak + [stop]:
            _banded_steps(p, q, u, d, lo, hi, b, recips, k, out, weights)
            c[lo + k: hi + k] = out[w + lo + k: w + hi + k]
            nonfinite = np.flatnonzero(~np.isfinite(c[lo + k: hi + k]))
            if nonfinite.size:
                raise BracketOverflow(f"coefficient at order "
                                      f"{lo + k + int(nonfinite[0])} "
                                      "is not finite")
            if hi < stop:
                warnings.warn(
                    f"bracket product {float(sizes[hi]):.2e} at order "
                    f"{hi + k}; coefficient poorly conditioned",
                    ConditioningWarning)
            lo = hi
    if stop <= N - k:
        if np.isfinite(sizes[stop]):
            raise BracketUnderflow(
                f"bracket product at order {stop + k} below guard")
        raise BracketOverflow(
            f"bracket product at order {stop + k} is not finite")
    return TruncatedSeries(c)


def as_bytes(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def outcome(solve):
    """(coefficient bytes and radius, or the error's type and message;
    the ConditioningWarning messages in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f = solve()
        except (BracketOverflow, BracketUnderflow) as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = (f.coeffs.tobytes(), f.safe_radius)
    return result, [str(w.message) for w in caught
                    if w.category is ConditioningWarning]


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qv", Q_VALUES)
@pytest.mark.parametrize("N", ORDERS)
def test_ladder_is_the_loop_byte_for_byte(qv, N):
    qp = _qparam(qv)
    want = frozen_ladder(qp.q, N)
    got = q_brackets(N, qp)
    assert all(type(b) is complex for b in got)
    assert as_bytes(got) == as_bytes(want)
    assert qcore._bracket_ladder(qp.q, N).tobytes() == as_bytes(want)


@pytest.mark.parametrize("qv, first", zip(OVERFLOWING, (997, 430, 1077)))
def test_overflowing_ladders_saturate(qv, first):
    # every entry from the first |q|^n past 1e300 on is inf + 0j in both
    ladder = q_brackets(2000, _qparam(qv))
    assert cmath.isfinite(ladder[first - 1])
    assert as_bytes(ladder[first:]) == as_bytes(
        [complex(math.inf, 0.0)] * (2001 - first))
    assert as_bytes(ladder) == as_bytes(frozen_ladder(complex(qv), 2000))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(qv=regime_q(), N=st.integers(0, 2100))
def test_ladder_is_the_loop_for_drawn_q(qv, N):
    qp = _qparam(qv)
    assert as_bytes(q_brackets(N, qp)) == as_bytes(frozen_ladder(qp.q, N))


# ---------------------------------------------------------------------------
# the bracket products and the solvers that read them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qv", Q_VALUES)
@pytest.mark.parametrize("N", [n for n in ORDERS if n >= 3])
def test_bracket_products_are_math_prod_byte_for_byte(qv, N):
    qp = _qparam(qv)
    brackets = frozen_ladder(qp.q, N)
    for k in (1, 2, 3):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _bracket_products(qp, N, k)
        assert got.tobytes() == frozen_products(brackets, N, k).tobytes()


@pytest.mark.parametrize("qv", Q_VALUES)
@pytest.mark.parametrize("N", [n for n in ORDERS if n >= 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_solvers_stop_and_warn_as_the_loop_did(qv, N, k):
    # the same coefficients, or the same BracketOverflow or
    # BracketUnderflow at the same order with the same message, and the
    # same ConditioningWarnings in the same order
    qp = _qparam(qv)
    A = RationalFunction([-1.0, 0.25, 0.5j], [1.0, -0.3])
    initial = (1.0, -0.5, 0.25)[:k]
    prob = QdeProblem(k, A, RationalFunction([1.0, -0.5]), qp, initial)
    homogeneous = QdeProblem.homogeneous(k, A, qp, initial)
    assert outcome(lambda: solve_series(prob, N)) == outcome(
        lambda: frozen_recurrence(prob, N, 0))
    assert outcome(lambda: solve_shifted_series(k, A, qp, initial, N)) == \
        outcome(lambda: frozen_recurrence(homogeneous, N, k))


@pytest.mark.parametrize("qv, k, N, message", [
    (2.0, 1, 2000, "bracket product at order 997 is not finite"),
    (1.9 * cmath.exp(0.85j), 2, 800,
     "bracket product at order 554 is not finite"),
])
def test_overflow_orders_are_kept(qv, k, N, message):
    qp = _qparam(qv)
    prob = QdeProblem.homogeneous(k, RationalFunction([-1.0]), qp,
                                  (1.0, 0.0)[:k])
    with pytest.raises(BracketOverflow, match=message):
        solve_series(prob, N)
    want, _ = outcome(lambda: frozen_recurrence(prob, N, 0))
    assert want == ("BracketOverflow", message)


def test_underflow_order_is_kept():
    # a guard order of two lets q sit within 1e-12 of a cube root of
    # unity, so [3]_q falls below the bracket guard
    qp = QParam((1.0 + 1e-12) * cmath.exp(2j * math.pi / 3), guard_order=2)
    prob = QdeProblem.homogeneous(1, RationalFunction([-1.0]), qp, (1.0,))
    got = outcome(lambda: solve_series(prob, 40))
    assert got == outcome(lambda: frozen_recurrence(prob, 40, 0))
    assert got[0][0] == "BracketUnderflow"


# ---------------------------------------------------------------------------
# exp_q's quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qv", Q_VALUES)
@pytest.mark.parametrize("N", ORDERS)
def test_exp_q_is_the_loop_byte_for_byte(qv, N):
    qp = _qparam(qv)
    want = frozen_reciprocal_factorials(frozen_ladder(qp.q, N))
    assert exp_q(qp, N).coeffs.tobytes() == want.tobytes()


def test_exp_q_tail_past_the_first_overflowing_bracket():
    # from [997]_2 = inf + 0j on, every quotient is 0
    qp = _qparam(2.0)
    ladder = frozen_ladder(qp.q, 2000)
    assert not cmath.isfinite(ladder[997]) and cmath.isfinite(ladder[996])
    got = exp_q(qp, 2000).coeffs
    assert got.tobytes() == frozen_reciprocal_factorials(ladder).tobytes()
    assert not got[997:].any()


@pytest.mark.parametrize("tail", [
    [0j, 2.0 + 1.0j, 0.5 - 0.25j],  # a zero bracket
    [complex(math.inf, 0.0), -0.0 - 1.5j, 3.0],  # the saturated entry
    [complex(1.0, math.inf), 0.5j, 2.0],  # finite real part, inf modulus
    [complex(1.0, math.nan), -2.0 + 0.0j, 1.0],  # a NaN modulus
    [complex(-0.0, 0.0), complex(math.nan, 1.0), -0.5j],
])
def test_quotients_follow_the_loop_past_any_first_stop(tail):
    # past the first bracket that is zero or not finite the loop's rule
    # goes on bracket by bracket: signed zeros from 0.0 / br, and a new
    # quotient only where the rule lets one through
    brackets = [0j, 1.0 + 0.0j, 2.0 - 1.0j, -0.5 + 3.0j] + tail + [
        1.5 - 0.5j, -0.0 + 2.0j]
    want = frozen_reciprocal_factorials(brackets)
    got = _reciprocal_factorials(brackets, np.array(brackets))
    assert got.tobytes() == want.tobytes()


def test_a_modulus_past_double_range_raises_as_the_loop_did():
    # abs() of finite parts near 1.8e308 raises OverflowError in the loop
    brackets = [0j, 1.0 + 0.0j, 2.0 + 1.0j, complex(1.5e308, 1.5e308), 3.0]
    with pytest.raises(OverflowError):
        frozen_reciprocal_factorials(brackets)
    with pytest.raises(OverflowError):
        _reciprocal_factorials(brackets, np.array(brackets))
