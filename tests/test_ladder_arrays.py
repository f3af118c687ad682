"""The bracket ladder, the solver's bracket products, exp_q's quotients,
the banded recurrence and the phi_rs term ladder against the scalar
loops they replaced, byte for byte.

qcore._bracket_ladder runs each long doubling block as float passes
that round as CPython's complex product and division do,
qode._bracket_products forms D_n = prod_{j=1..k} [n+j]_q as k such
product passes, and qspecial._reciprocal_factorials takes exp_q's
running quotient as one accumulate up to its first exact zero.
qcore._banded_steps ends a block in the zero state without its sums,
and qspecial.phi_rs stops at its first exact-zero term. The frozen
loops below are those routes as they were. Outputs are compared with
tobytes(), so a sign of zero or a NaN payload that moved would fail:
this test, not an argument about one platform's rounding, is what
holds the routes equal. The two coefficient ladders, exp_q's and
phi_rs', change some bytes on purpose: the zeros after their first
exact zero are all +0.0 (assert_zero_tail_matches).
"""

import cmath
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq import qcore
from jacksonq.errors import (
    BracketOverflow,
    BracketUnderflow,
    ConditioningWarning,
    DenominatorPochhammerZero,
    DomainError,
)
from jacksonq.qcore import QParam, TruncatedSeries, q_brackets
from jacksonq.qode import (
    _CONDITION_WARN,
    QdeProblem,
    RationalFunction,
    _bracket_products,
    residual,
    solve_series,
    solve_shifted_series,
)
from jacksonq.qoperator import dqk_series
from jacksonq.qspecial import PhiParams, exp_q, phi_rs
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


def frozen_banded_steps(p, q, u, d, start: int, stop: int, rhs=None,
                        scale=None, k: int = 0, out=None,
                        weights=None) -> None:
    """qcore._banded_steps as one step an order, every step summing both
    bands."""
    w = max(len(p), len(q)) - 1
    pband = [(pm, w - m) for m, pm in enumerate(p)]
    qband = [(q[j], w - j) for j in range(1, len(q))]
    q0 = q[0]
    for n in range(start, stop):
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


def frozen_phi_rs(params, N: int) -> np.ndarray:
    """qspecial.phi_rs' coefficients as a step an order, through the
    whole zero tail."""
    q = params.qp.q
    terms = []
    t = 1.0 + 0.0j
    qj = 1.0 + 0.0j
    expo = 1 + params.s - params.r
    for j in range(N + 1):
        terms.append(t)
        for a in params.alphas:
            t *= 1.0 - a * qj
        for b in params.betas:
            try:
                t /= 1.0 - b * qj
            except ZeroDivisionError:
                raise DenominatorPochhammerZero(
                    f"beta = {b} equals q^-{j}; series undefined") from None
        if expo:
            try:
                t *= (-qj) ** expo
            except (OverflowError, ZeroDivisionError):
                t = complex(math.nan, math.nan)
        t /= 1.0 - qj * q
        qj *= q
        if not cmath.isfinite(t):
            t = 0.0 + 0.0j
    return np.array(terms, dtype=np.complex128)


def frozen_recurrence(prob, N: int, s: int) -> TruncatedSeries:
    """qode._recurrence with its bracket products from frozen_products and
    its steps from frozen_banded_steps."""
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
            frozen_banded_steps(p, q, u, d, lo, hi, b, recips, k, out,
                                weights)
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


def assert_zero_tail_matches(got, want):
    """got is want up to and including want's first exact zero, and +0.0
    after it."""
    zeros = np.flatnonzero(want == 0)
    first = int(zeros[0]) if zeros.size else want.size
    assert got[: first + 1].tobytes() == want[: first + 1].tobytes()
    assert got[first + 1:].tobytes() == bytes(got[first + 1:].nbytes)


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


def assert_exp_q_matches(qp, N):
    """exp_q(qp, N) is the frozen loop up to and including its first
    exact zero and +0.0 after it, or, where the loop reaches a coefficient
    that is not finite, refused with BracketOverflow at that order."""
    want = frozen_reciprocal_factorials(frozen_ladder(qp.q, N))
    bad = np.flatnonzero(~np.isfinite(want))
    if bad.size:
        with pytest.raises(BracketOverflow, match=f"coefficient at order "
                           f"{int(bad[0])} is not finite"):
            exp_q(qp, N)
    else:
        assert_zero_tail_matches(exp_q(qp, N).coeffs, want)


@pytest.mark.parametrize("qv", Q_VALUES)
@pytest.mark.parametrize("N", ORDERS)
def test_exp_q_is_the_loop_byte_for_byte(qv, N):
    assert_exp_q_matches(_qparam(qv), N)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(qv=regime_q(), N=st.integers(0, 2100))
# N at the first zero, whose parts are signed: (0, -0) and (-0, -0)
@example(qv=1.5 + 0.8j, N=53)
@example(qv=-1.7, N=55)
def test_exp_q_is_the_loop_for_drawn_q(qv, N):
    assert_exp_q_matches(_qparam(qv), N)


def test_exp_q_tail_past_the_first_overflowing_bracket():
    # from [997]_2 = inf + 0j on, every quotient is 0; the first zero
    # comes far earlier, at n = 46
    qp = _qparam(2.0)
    ladder = frozen_ladder(qp.q, 2000)
    assert not cmath.isfinite(ladder[997]) and cmath.isfinite(ladder[996])
    got = exp_q(qp, 2000).coeffs
    assert_zero_tail_matches(got, frozen_reciprocal_factorials(ladder))
    assert got[45] != 0 and not got[46:].any()


# ---------------------------------------------------------------------------
# the banded recurrence through its zero state
# ---------------------------------------------------------------------------


def frozen_residual(prob, f) -> np.ndarray:
    """qode.residual's coefficients, a rational A f from
    frozen_banded_steps."""
    order = f.order - prob.k
    A = prob.A
    if A.is_polynomial:
        af = (A.origin_series(f.order) * f).truncated(order)
    else:
        p, q = A.num.tolist(), A.den.tolist()
        w = max(len(p), len(q)) - 1
        u = [0j] * (w + order + 1)
        frozen_banded_steps(p, q, u, [0j] * w + f.coeffs[: order + 1].tolist(),
                            0, order + 1)
        af = TruncatedSeries(np.array(u[w:], dtype=np.complex128))
    res = dqk_series(f, prob.qp, prob.k) + af - prob.B.origin_series(order)
    return res.coeffs


def frozen_divide(a: TruncatedSeries, b: TruncatedSeries) -> np.ndarray:
    """TruncatedSeries.divide by an exact polynomial of degree >= 1."""
    n = min(a.order, b.order)
    band = b.coeffs[: b._degree() + 1].tolist()
    w = len(band) - 1
    quot = [0j] * (w + n + 1)
    frozen_banded_steps([1.0], band, quot, [0j] * w + a.coeffs_to(n).tolist(),
                        0, n + 1)
    return np.array(quot[w:], dtype=np.complex128)


# (q, k, A, B, initial): each solution ends in a long exact-zero tail. A
# negative Q_0 gives the zero state's u_n = (0j - 0j) / Q_0 the signs
# -0.0, and B = z^1500 leaves the zero state and comes back to it.
ZERO_TAILED = {
    "q=1.05 k=2 rational A": (1.05, 2, ([-1.0, 0.3], [-2.0, 0.6]),
                              [1.0, -0.5], (1.0, 0.5)),
    "q=0.5-0.09i k=1 polynomial A": (0.5 - 0.09j, 1, ([-0.8, 0.3], [1.0]),
                                     [0.0], (1.0,)),
    "late right-hand side": (1.05, 2, ([-1.0, 0.3], [-2.0, 0.6]),
                             [0.0] * 1500 + [1.0], (1.0, 0.5)),
}


@pytest.mark.filterwarnings("ignore::jacksonq.errors.FormalRegimeWarning")
@pytest.mark.parametrize("case", ZERO_TAILED)
def test_solve_and_residual_through_the_zero_state(case):
    qv, k, (num, den), b, initial = ZERO_TAILED[case]
    prob = QdeProblem(k, RationalFunction(num, den), RationalFunction(b),
                      QParam(qv), initial)
    f = solve_series(prob, 2000)
    assert f.coeffs.tobytes() == frozen_recurrence(prob, 2000, 0).coeffs.tobytes()
    assert np.count_nonzero(f.coeffs == 0) > 1000  # the zero state ran
    assert residual(prob, f)[0].coeffs.tobytes() == \
        frozen_residual(prob, f).tobytes()


@pytest.mark.parametrize("divisor", [[-1.0 + 0.5j, 0.3, 0.1j], [1.0, -0.4]])
def test_divide_a_zero_tailed_dividend_through_the_zero_state(divisor):
    # exp_q at q = 2 is 0 from n = 46 on; the quotient decays
    # geometrically below the double-precision floor
    a = exp_q(QParam(2.0), 2000)
    b = TruncatedSeries.from_polynomial(divisor, 2000)
    got = a.divide(b).coeffs
    assert got.tobytes() == frozen_divide(a, b).tobytes()
    assert np.count_nonzero(got == 0) > 500


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("break_at", [None, "rhs", "scale", "d"])
def test_banded_steps_leave_the_zero_state_as_the_loop_does(k, break_at):
    # a solver run and a division that reach the zero state near n = 400
    # (d underflows near n = 46, then u decays as 0.1^n), then one entry
    # that ends it: a nonzero right-hand side, a scale that is not finite
    # (0 times inf is NaN), or a dividend entry. The right-hand side's
    # -0.0 entries make x_n = (-0.0 - u_n) scale[n] read the sign of the
    # zero state's u_n = (0j - 0j) / Q_0, which is -0.0 for Q_0 = -1.
    p, q, n = [0.5, -1.0 + 0.25j], [-1.0, 0.05j, 0.01], 700
    w = max(len(p), len(q)) - 1
    rhs = [1.0 + 1.0j] * 10 + [complex(-0.0, -0.0)] * (n - 10)
    scale = [complex(2.0 ** -j) for j in range(n)]
    dividend = [0.5 - 1.0j] * 40 + [0j] * (n - 40)
    if break_at == "rhs":
        rhs[600] = -2.0 + 0.5j
    elif break_at == "scale":
        scale[500] = complex(math.inf, 0.0)
    elif break_at == "d":
        dividend[450] = 3.0 + 0.0j
    results = []
    for steps in (qcore._banded_steps, frozen_banded_steps):
        u = [0j] * (w + n)
        d = [0j] * w + [1.0 - 0.5j] * k + [0j] * n
        steps(p, q, u, d, 0, n - k, rhs, scale, k)
        quot = [0j] * (w + n)
        steps(p, q, quot, [0j] * w + dividend, 0, n)
        results.append(as_bytes(u + d + quot))
        assert not any(u[w + 420: w + 500]) and not any(quot[w + 400: w + 450])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# the phi_rs term ladder
# ---------------------------------------------------------------------------

PARAMETER = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                               allow_infinity=False)


def phi_outcome(ladder):
    """The coefficient array, or the error's type and message."""
    try:
        return ladder()
    except (DenominatorPochhammerZero, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(qv=regime_q(), alphas=st.lists(PARAMETER, max_size=2),
       betas=st.lists(PARAMETER, max_size=2), N=st.integers(0, 400),
       end=st.none() | st.integers(0, 40))
# a terminating alpha: 0.25 * 2^2 = 1 exactly, so t_3 = 0
@example(qv=2.0, alphas=[0.25], betas=[], N=60, end=None)
# beta 2^-64 ... 2^0 would be refused by PhiParams; beta 2^-70 q^70 = 1
# exactly at order 70, after the terms reached zero near order 47
@example(qv=2.0, alphas=[0.0, 0.0], betas=[2.0 ** -70], N=100, end=None)
def test_phi_rs_is_the_loop_up_to_its_zero_tail(qv, alphas, betas, N, end):
    qp = _qparam(qv)
    if end is not None and alphas:
        alphas[0] = qp.q ** -end  # near q^-end, and sometimes exactly it
    try:
        params = PhiParams(tuple(alphas), tuple(betas), qp)
    except DenominatorPochhammerZero:
        return  # refused before any ladder
    want = phi_outcome(lambda: frozen_phi_rs(params, N))
    got = phi_outcome(lambda: phi_rs(params, N).coeffs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_zero_tail_matches(got, want)


def test_pinned_examples_reach_their_zero_tails():
    # what the two examples above stand for, read off the frozen loop
    terminating = frozen_phi_rs(PhiParams((0.25,), (), QParam(2.0)), 60)
    assert terminating[2] != 0 and not terminating[3:].any()
    late = PhiParams((0.0, 0.0), (2.0 ** -70,), QParam(2.0))
    assert not frozen_phi_rs(late, 69)[48:].any()
    with pytest.raises(DenominatorPochhammerZero, match="equals q\\^-70;"):
        frozen_phi_rs(late, 100)


def test_zero_tail_still_raises_where_a_power_of_q_is_one():
    # QParam refuses |q| = 1, so a stand-in carries q = 1j, whose fourth
    # power is exactly 1 + 0j: alpha = 1 ends the ladder at t_1 = 0, and
    # the step at order 3 divides by 1 - q^4 = 0
    params = PhiParams((1.0,), (), types.SimpleNamespace(q=1j))
    want = phi_outcome(lambda: frozen_phi_rs(params, 10))
    assert want == ("ZeroDivisionError", "complex division by zero")
    assert phi_outcome(lambda: phi_rs(params, 10).coeffs) == want
    assert_zero_tail_matches(phi_rs(params, 2).coeffs, frozen_phi_rs(params, 2))
