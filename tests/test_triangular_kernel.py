"""The triangular kernel against the loops it replaced, bit for bit.

qcore._triangular_steps is the one lower-triangular recurrence behind
solve_series, solve_shifted_series and TruncatedSeries.divide. It keeps
the solved coefficients reversed, so each full-length dot reads two
contiguous operands, and _recurrence checks every bracket product before
its loop. The loops below are the strided-dot routes as they stood before
that, kept as references: each solver must return the same coefficient
bytes and radius, raise the same error with the same message, and issue
the same ConditioningWarnings in the same order.
"""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq.errors import (
    BracketOverflow,
    BracketUnderflow,
    ConditioningWarning,
    DomainError,
)
from jacksonq.qcore import QParam, TruncatedSeries, q_brackets
from jacksonq.qode import (
    _CONDITION_WARN,
    QdeProblem,
    RationalFunction,
    solve_series,
    solve_shifted_series,
)
from test_bracket_ladder import REGIME_Q, regime_q


def reference_recurrence(prob, N, s):
    """qode._recurrence with its per-order bracket checks and the
    negative-stride dot d[n::-1]."""
    if N < prob.k:
        raise DomainError("truncation order must be at least k")
    qp, k = prob.qp, prob.k
    a = prob.A.origin_series(N).coeffs
    b = prob.B.origin_series(N).coeffs
    c = np.zeros(N + 1, dtype=np.complex128)
    c[:k] = prob.initial
    brackets = q_brackets(N, qp)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.cumprod(np.concatenate(([1.0], np.full(N, qp.q ** s))))
        d = c * weights if s else c
        for n in range(0, N - k + 1):
            denom = math.prod(brackets[n + 1: n + k + 1], start=1.0 + 0.0j)
            try:
                size = abs(denom)
            except OverflowError:
                size = math.inf
            if not math.isfinite(size):
                raise BracketOverflow(
                    f"bracket product at order {n + k} is not finite")
            if size < qp.guard_tol:
                raise BracketUnderflow(
                    f"bracket product at order {n + k} below guard")
            if size < _CONDITION_WARN:
                warnings.warn(
                    f"bracket product {size:.2e} at order {n + k}; "
                    "coefficient poorly conditioned", ConditioningWarning)
            c[n + k] = cn = (b[n] - np.dot(a[: n + 1], d[n::-1])) / denom
            if not cmath.isfinite(cn):
                raise BracketOverflow(
                    f"coefficient at order {n + k} is not finite")
            if s:
                d[n + k] = weights[n + k] * cn
    return TruncatedSeries(c)


def reference_divide(num, den):
    """TruncatedSeries.divide as the forward loop with out[m-1::-1]."""
    n = min(num.order, den.order)
    a = num.coeffs_to(n)
    b = den.coeffs_to(n)
    out = np.zeros(n + 1, dtype=np.complex128)
    for m in range(n + 1):
        acc = a[m]
        if m:
            acc -= np.dot(b[1: m + 1], out[m - 1:: -1])
        out[m] = acc / b[0]
    return num._wrap(out, den)


def outcome(solve):
    """(coefficient bytes and radius, or the error's type and message;
    the ConditioningWarning messages in order; where they point)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f = solve()
        except (BracketOverflow, BracketUnderflow) as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = (f.coeffs.tobytes(), f.safe_radius)
    kept = [w for w in caught if w.category is ConditioningWarning]
    return result, [str(w.message) for w in kept], {w.filename for w in kept}


def _polynomial(draw, size):
    return [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
            for _ in range(draw(st.integers(1, size)))]


@st.composite
def cases(draw):
    """(q, guard_order, k, A numerator, A denominator, B numerator, N).
    A small guard_order lets q sit nearer a root of unity than QParam's
    default guard allows, so brackets fall below the guard in the loop."""
    qv = draw(regime_q())
    guard_order = draw(st.sampled_from([128, 128, 2]))
    if guard_order == 2:
        m = draw(st.integers(3, 9))
        qv = (1.0 + draw(st.sampled_from([1e-12, 1e-8, 1e-5]))) * cmath.exp(
            2j * math.pi / m)
    den = _polynomial(draw, 3)
    den[0] = draw(st.sampled_from([1.0, -0.5 + 0.5j, 2.0]))
    return (qv, guard_order, draw(st.integers(1, 3)), _polynomial(draw, 4),
            den, _polynomial(draw, 3),
            draw(st.sampled_from([3, 40, 300, 1200, 2000])))


def _problem(case):
    qv, guard_order, k, num, den, bnum, N = case
    try:
        qp = QParam(qv, guard_order=guard_order)
    except DomainError:  # too near a root of unity for the guard
        qp = QParam(2.0 * qv, guard_order=guard_order)
    initial = [1.0, -0.5 + 0.25j, 0.25][:k]
    A = RationalFunction(num, den)
    return (QdeProblem(k, A, RationalFunction(bnum), qp, initial),
            QdeProblem.homogeneous(k, A, qp, initial), N)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=cases())
@example(case=(REGIME_Q["inside"], 128, 2, [-1.0, 0.5], [1.0, -0.9], [1.0],
               2000))
@example(case=(REGIME_Q["outside"], 128, 1, [-1.0], [1.0], [0.0], 2000))
@example(case=(REGIME_Q["negative_inside"], 128, 3, [0.3j, 1.0],
               [1.0, 0.2, -0.1], [1.0, -1.0], 1200))
@example(case=(REGIME_Q["negative_outside"], 128, 2, [-1.0, 0.25, 0.5j],
               [1.0, -0.3], [1.0, -0.5], 300))
@example(case=(REGIME_Q["complex"], 128, 2, [1.0, -2.0], [2.0, 1.0j],
               [0.5], 2000))
@example(case=(REGIME_Q["near_root"], 128, 3, [-1.0, 0.25], [1.0, 0.5],
               [1.0], 300))
@example(case=(1.00000001 * cmath.exp(2j * math.pi / 5), 2, 1, [1.0],
               [1.0, 0.1], [0.0], 40))
def test_solvers_match_the_strided_loop(case):
    prob, homogeneous, N = _problem(case)
    k, A, qp = prob.k, prob.A, prob.qp
    routes = [
        (lambda: solve_series(prob, N),
         lambda: reference_recurrence(prob, N, 0)),
        (lambda: solve_shifted_series(k, A, qp, homogeneous.initial, N),
         lambda: reference_recurrence(homogeneous, N, k)),
    ]
    for new, old in routes:
        got, want = outcome(new), outcome(old)
        assert got[:2] == want[:2]
        # a warning points at the solver's caller, as it always did
        assert got[2] <= {__file__}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=cases())
@example(case=(REGIME_Q["inside"], 128, 1, [1.0, 2.0, -1.0], [1.0, -0.9],
               [1.0], 2000))
@example(case=(REGIME_Q["outside"], 128, 1, [1.0], [0.5, 1.5, -2.0],
               [1.0], 1200))
@example(case=(REGIME_Q["negative_inside"], 128, 1, [0.3j, 1.0],
               [1.0, 0.2, -0.1], [1.0], 300))
@example(case=(REGIME_Q["negative_outside"], 128, 1, [1.0, -1.0j],
               [-0.5 + 0.5j, 1.0], [1.0], 40))
@example(case=(REGIME_Q["complex"], 128, 1, [1.0, -2.0], [2.0, 1.0j],
               [1.0], 2000))
@example(case=(REGIME_Q["near_root"], 128, 1, [-1.0, 0.25], [1.0, 0.5, 2.0],
               [1.0], 3))
def test_divide_matches_the_strided_loop(case):
    _, _, _, num, den, bnum, N = case
    # a dense operand, seeded by the case, beside the polynomials that
    # origin_series divides
    rng = np.random.default_rng(17 * N + len(num))
    dense = TruncatedSeries(rng.standard_normal(N + 1)
                            + 1j * rng.standard_normal(N + 1))
    poly = [TruncatedSeries.from_polynomial(c, order=N)
            for c in (num, den, bnum)]
    for a, b in ((poly[0], poly[1]), (poly[2], dense), (dense, poly[1])):
        # a quotient past double range is compared as it is, NaN included
        with np.errstate(all="ignore"):
            got, want = a.divide(b), reference_divide(a, b)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.safe_radius == want.safe_radius
