"""The banded solver and series division against the loops they replaced.

qode._recurrence never expands A = P/Q: each coefficient takes a sum
over the bands of P and Q (qcore._banded_steps, u = A d from Q u = P d),
where the loop below took a full-length strided dot with A's expansion.
TruncatedSeries.divide runs the same banded steps for an
exact-polynomial divisor. Banding moves last bits, so those routes are
held to accuracy, not bytes: against a 50-digit mpmath recurrence
(mp_recurrence, mp_quotient), their largest coefficient error may be at
most four times the strided loop's, or 1e-14. A solver's error is
relative to each coefficient; a quotient's, relative to the terms that
form it. The solvers must raise the same bracket errors with the same
messages, and issue the same ConditioningWarnings in the same order; a
coefficient overflow may come at another order (assert_as_accurate). A
dense divisor keeps the full-length dot, and its quotient stays the
strided loop's, bit for bit. residual's product A f of a rational A
runs the banded steps too (qode._times_a), and is held to the same
accuracy against the dense product of A's expansion with f.
"""

import cmath
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
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
    _times_a,
    residual,
    solve_series,
    solve_shifted_series,
)
from test_bracket_ladder import REGIME_Q, _qparam, regime_q


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


# the exact coefficients are computed at this many digits, and compared
# where their modulus lies in WINDOW: outside it both routes round into
# subnormals or out of double range
DPS = 50
WINDOW = (1e-250, 1e250)


def _exact(values) -> tuple:
    """values as a tuple of Python complex: the exact double inputs that
    a 50-digit reference is kept by."""
    return tuple(complex(v) for v in values)


# The 50-digit references below are kept by their exact inputs and shared
# by every test in this file. A few keys take most repeats: the two solves
# of an example share q, k and N, and the homogeneous ones share B = 0.
@functools.lru_cache(maxsize=4)
def _long_division(num: tuple, den: tuple, n: int) -> tuple:
    with mpmath.workdps(DPS):
        num = [mpmath.mpc(x) for x in num]
        den = [mpmath.mpc(x) for x in den]
        out = []
        for m in range(n):
            t = num[m] if m < len(num) else mpmath.mpc(0)
            for j in range(1, min(m, len(den) - 1) + 1):
                t -= den[j] * out[m - j]
            out.append(t / den[0])
        return tuple(out)


@functools.lru_cache(maxsize=4)
def _bracket_products(q: complex, k: int, n: int) -> tuple:
    """D_0 .. D_{n-1}, D_m = [m+1]_q ... [m+k]_q, at DPS digits."""
    with mpmath.workdps(DPS):
        brackets = mp_brackets(mpmath.mpc(q), n + k - 1)
        return tuple(mpmath.fprod(brackets[m + 1: m + k + 1])
                     for m in range(n))


@functools.lru_cache(maxsize=4)
def _powers(q: complex, s: int, n: int) -> tuple:
    """q^(s j) for j < n at DPS digits."""
    with mpmath.workdps(DPS):
        q = mpmath.mpc(q)
        return tuple(q ** (s * j) for j in range(n))


def mp_quotient(num, den, n):
    """The first n coefficients of num/den at DPS digits, den a polynomial
    with den[0] != 0, by long division. Zeros that end num add nothing,
    so they are not part of the key."""
    num = _exact(num)
    while len(num) > 1 and num[-1] == 0:
        num = num[:-1]
    return _long_division(num, _exact(den), n)


def mp_brackets(q, N):
    """[0]_q .. [N]_q at the working precision."""
    out, qn = [mpmath.mpc(0)], mpmath.mpc(1)
    for _ in range(N):
        qn *= q
        out.append((qn - 1) / (q - 1))
    return out


def mp_recurrence(prob, N, s):
    """c_0 .. c_N of the recurrence with weights q^{s(n-m)} at DPS digits
    (the first list of mp_banded)."""
    return mp_banded(prob, N, s)[0]


def mp_banded(prob, N, s):
    """(c, u, d, b) at DPS digits: the recurrence with weights q^{s(n-m)}
    as qode._recurrence takes it, with u = A d for A = P/Q from Q u = P d,

        u_n = (sum_m P_m d_{n-m} - sum_{j>=1} Q_j u_{n-j}) / Q_0,
        c_{n+k} = (b_n - u_n) / D_n,

    d_j = q^{sj} c_j and b the expansion of B. In exact arithmetic it is
    the plain recurrence (mp_plain_recurrence), in O(N) steps, not
    O(N^2). The expansion b, the bracket products D_n and the weights
    q^{sj} are kept by their exact inputs."""
    k, qv = prob.k, prob.qp.q
    b = mp_quotient(prob.B.num, prob.B.den, N - k + 1)
    D = _bracket_products(qv, k, N - k + 1)
    with mpmath.workdps(DPS):
        P = [mpmath.mpc(x) for x in prob.A.num]
        Q = [mpmath.mpc(x) for x in prob.A.den]
        c = [mpmath.mpc(x) for x in prob.initial]
        if s:
            weights = _powers(qv, s, N + 1)
            d = [w * x for w, x in zip(weights, c)]
        else:  # every weight is 1: d is c
            d = c
        u = []
        for n in range(N - k + 1):
            t = P[0] * d[n]
            for m in range(1, min(n, len(P) - 1) + 1):
                t += P[m] * d[n - m]
            for j in range(1, min(n, len(Q) - 1) + 1):
                t -= Q[j] * u[n - j]
            u.append(t / Q[0])
            c.append((b[n] - u[n]) / D[n])
            if s:
                d.append(weights[n + k] * c[-1])
        return c, u, list(d), list(b)


def mp_plain_recurrence(prob, N, s):
    """c_0 .. c_N of c_{n+k} D_n = b_n - sum_m a_m q^{s(n-m)} c_{n-m} at
    DPS digits, with A expanded to a."""
    k = prob.k
    with mpmath.workdps(DPS):
        q = mpmath.mpc(prob.qp.q)
        a = mp_quotient(prob.A.num, prob.A.den, N + 1)
        b = mp_quotient(prob.B.num, prob.B.den, N + 1)
        brackets = mp_brackets(q, N)
        c = [mpmath.mpc(x) for x in prob.initial]
        for n in range(N - k + 1):
            t = b[n]
            for m in range(n + 1):
                t -= a[m] * q ** (s * (n - m)) * c[n - m]
            c.append(t / mpmath.fprod(brackets[n + 1: n + k + 1]))
        return c


def doubles(exact) -> tuple:
    """The DPS-digit values exact, each rounded once to a pair of complex
    doubles (hi, lo): hi the value rounded, lo the remainder rounded, so
    hi + lo holds about 32 digits. A value past double range has hi inf
    and is never compared (WINDOW)."""
    with mpmath.workdps(DPS):
        hi = [complex(e) for e in exact]
        lo = [complex(e - h) for e, h in zip(exact, hi)]
    return (np.array(hi, dtype=np.complex128),
            np.array(lo, dtype=np.complex128))


def max_rel_error(got, exact, scales=None) -> float:
    """Largest |got_n - c_n| / |c_n| over the exact c_n, a (hi, lo) pair
    of doubles, whose modulus lies in WINDOW, or |got_n - c_n| /
    scales[n]; inf where such a got_n is not finite. got_n - hi_n is
    exact where the two are close, so the error keeps its digits."""
    hi, lo = exact
    got = np.asarray(got, dtype=np.complex128)
    n = min(got.size, hi.size)
    got, hi, lo = got[:n], hi[:n], lo[:n]
    with np.errstate(all="ignore"):  # entries past WINDOW are not read
        modulus = np.abs(hi)
        scales = modulus if scales is None else np.asarray(scales)[:n]
        inside = (WINDOW[0] <= modulus) & (modulus <= WINDOW[1])
        if not np.all(np.isfinite(got[inside])):
            return math.inf
        err = np.abs((got - hi) - lo)[inside] / scales[inside]
    return float(err.max(initial=0.0))


def term_scales(u, p, q, d) -> np.ndarray:
    """The size of the terms each u_m of Q u = P d is formed from,

        u_m = (sum_i p_i d_{m-i} - sum_{j>=1} q_j u_{m-j}) / q_0,

    as (sum_i |p_i d_{m-i}| + sum_j |q_j u_{m-j}|) / |q_0|, or |u_m|
    where that is larger, for the exact u rounded to doubles (the
    quotient d / Q for P = [1]). Where the terms cancel, u_m is much
    smaller, and any rounding of them is that much larger relative to
    u_m. A zero coefficient adds nothing, also beside a |u_j| past
    double range."""
    n = u.size
    size_u, size_d = np.abs(u), np.zeros(n)
    d = np.abs(np.asarray(d, dtype=np.complex128))[:n]
    size_d[: d.size] = d
    total = np.zeros(n)
    with np.errstate(over="ignore"):
        for i, pi in enumerate(list(p)[:n]):
            if pi != 0:
                total[i:] += abs(pi) * size_d[: n - i]
        for j, qj in enumerate(list(q)[1:n], 1):
            if qj != 0:
                total[j:] += abs(qj) * size_u[: n - j]
        return np.maximum(size_u, total / abs(q[0]))


def outcome(solve):
    """(the series, or the error's type and message; the
    ConditioningWarning messages in order; where they point)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve()
        except (BracketOverflow, BracketUnderflow) as exc:
            result = (type(exc).__name__, str(exc))
    kept = [w for w in caught if w.category is ConditioningWarning]
    return result, [str(w.message) for w in kept], {w.filename for w in kept}


def stop_order(result) -> int:
    """The order a solver error names ('... at order n ...')."""
    return int(result[1].split(" at order ")[1].split()[0])


def coefficient_overflow(result) -> bool:
    return isinstance(result, tuple) and result[1].startswith("coefficient")


def assert_as_accurate(new, old, prob, N, s):
    """The solver route new against the strided loop old on prob: the
    same bracket errors and warnings, and coefficients at most four
    times as far from the exact ones (or 1e-14).

    Only a coefficient overflow may stop the two at different orders:
    the strided loop's terms a_m q^{s(n-m)} c_{n-m} overflow wherever A's
    expansion grows past double range, though no coefficient has, and
    the banded route never forms them. Its own terms are Q_0 u_n, b_n,
    d_n and c_n, and it may stop at a coefficient overflow only where
    one of them comes within a factor 2e8 of double range, since the
    partial sums of a band can pass it a few orders before they do.
    """
    (got, got_warned, where), (want, want_warned, _) = outcome(new), \
        outcome(old)
    # a warning points at the solver's caller, as it always did
    assert where <= {__file__}
    if got == want:
        assert got_warned == want_warned
        return
    if coefficient_overflow(got):
        c, u, d, b = mp_banded(prob, stop_order(got), s)
        with mpmath.workdps(DPS):
            q0 = abs(prob.A.den[0])
            assert max(abs(x) for x in c + [q0 * v for v in u] + d + b) \
                >= 1e300
    # otherwise the strided loop stopped first, at an overflowing term
    if not coefficient_overflow(got) and isinstance(want, tuple):
        assert coefficient_overflow(want)
        if isinstance(got, tuple):  # the bracket error past it
            assert stop_order(want) < stop_order(got)
    if isinstance(got, tuple) or isinstance(want, tuple):
        # the same warnings up to the earlier stop
        common = min(len(got_warned), len(want_warned))
        assert got_warned[:common] == want_warned[:common]
    if isinstance(got, tuple):
        return
    exact = doubles(mp_recurrence(prob, N, s))
    bound = 1e-14 if isinstance(want, tuple) else max(
        4.0 * max_rel_error(want.coeffs, exact), 1e-14)
    assert max_rel_error(got.coeffs, exact) <= bound


def _polynomial(draw, size):
    return [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
            for _ in range(draw(st.integers(1, size)))]


@st.composite
def cases(draw):
    """(q, guard_order, k, A numerator, A denominator, B numerator, N):
    A of degree at most 3 over at most 2. A small guard_order lets q sit
    nearer a root of unity than QParam's default guard allows, so
    brackets fall below the guard in the loop."""
    qv = draw(regime_q())
    guard_order = draw(st.sampled_from([128, 128, 2]))
    if guard_order == 2:
        m = draw(st.integers(3, 9))
        qv = (1.0 + draw(st.sampled_from([1e-12, 1e-8, 1e-5]))) * cmath.exp(
            2j * math.pi / m)
    den = _polynomial(draw, 3)
    den[0] = draw(st.sampled_from([1.0, -0.5 + 0.5j, 2.0]))
    return (qv, guard_order, draw(st.integers(1, 3)), _polynomial(draw, 4),
            den, _polynomial(draw, 3), draw(st.sampled_from([40, 300, 2000])))


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
# N = k: the one step reads the band below index 0
@example(case=(REGIME_Q["outside"], 128, 3, [1.0, 0.5, 0.25, 2.0],
               [1.0, 0.3, -0.2], [1.0, 2.0], 3))
# a pole of A inside the unit disc with a tiny residue: dividing b by Q
# too (Q y + P d = Q b) grew its rounding like 2.7^n, past every
# coefficient from c_5 on
@example(case=(-0.0534292181505406 + 0.39307170245382556j, 128, 1,
               [1.645506979320641e-307 + 6.61539343929849e-63j],
               [-0.5 + 0.5j, -0.9630713057144644 + 1.6426853606162197j],
               [-7.862608512262158e-145 + 1.4511510616388028j,
                -0.05 + 3.779339855992859e-241j], 2000))
def test_solvers_are_as_accurate_as_the_strided_loop(case):
    prob, homogeneous, N = _problem(case)
    k, A, qp = prob.k, prob.A, prob.qp
    assert_as_accurate(lambda: solve_series(prob, N),
                       lambda: reference_recurrence(prob, N, 0), prob, N, 0)
    assert_as_accurate(
        lambda: solve_shifted_series(k, A, qp, homogeneous.initial, N),
        lambda: reference_recurrence(homogeneous, N, k), homogeneous, N, k)


@pytest.mark.parametrize("qv", sorted(REGIME_Q.values(), key=str))
def test_the_mpmath_recurrence_is_the_plain_one(qv):
    qp = _qparam(qv)
    A = RationalFunction([0.3j, 1.0, -0.5, 0.25], [1.0, 0.2 - 0.4j, -0.1])
    B = RationalFunction([1.0, -0.5], [2.0, 1.0])
    for prob, s in ((QdeProblem(2, A, B, qp, (1.0, 0.5j)), 0),
                    (QdeProblem.homogeneous(3, A, qp, (1.0, 0.5j, -2.0)), 3)):
        cleared = mp_recurrence(prob, 40, s)
        plain = mp_plain_recurrence(prob, 40, s)
        with mpmath.workdps(DPS):
            assert all(abs(x - y) <= 1e-40 * abs(y)
                       for x, y in zip(cleared, plain))


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
def test_divide_is_as_accurate_as_the_strided_loop(case):
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
        if b is dense:
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.safe_radius == want.safe_radius
            continue
        # each error is taken relative to the terms that form the
        # coefficient: a random dividend makes some quotient coefficients
        # nearly cancel, and how far rounding moves those is luck
        exact = doubles(mp_quotient(a.coeffs, den, N + 1))
        scales = term_scales(exact[0], [1.0], den, a.coeffs)
        assert max_rel_error(got.coeffs, exact, scales) <= max(
            4.0 * max_rel_error(want.coeffs, exact, scales), 1e-14)


def mp_times(num, den, d, n):
    """The first n coefficients of (num/den) d at DPS digits, num and den
    polynomials with den[0] != 0, from den u = num d."""
    with mpmath.workdps(DPS):
        num = [mpmath.mpc(x) for x in num]
        den = [mpmath.mpc(x) for x in den]
        d = [mpmath.mpc(x) for x in d]
        u = []
        for m in range(n):
            terms = [num[i] * d[m - i] for i in range(min(m, len(num) - 1)
                                                      + 1)]
            terms += [-den[j] * u[m - j]
                      for j in range(1, min(m, len(den) - 1) + 1)]
            u.append(mpmath.fsum(terms) / den[0])
        return u


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=cases())
@example(case=(REGIME_Q["inside"], 128, 2, [-1.0, 0.5], [1.0, -0.9], [1.0],
               2000))
@example(case=(REGIME_Q["outside"], 128, 1, [1.0], [0.5, 1.5, -2.0],
               [1.0], 1200))
@example(case=(REGIME_Q["complex"], 128, 3, [1.0, -2.0], [2.0, 1.0j],
               [0.5], 300))
@example(case=(REGIME_Q["negative_outside"], 128, 2, [-1.0, 0.25, 0.5j],
               [1.0, -0.3], [1.0, -0.5], 40))
def test_residual_product_is_as_accurate_as_the_dense_one(case):
    # residual's A f for a rational A comes from Q u = P f; the dense
    # product of A's expansion with f was the route before
    prob, _, N = _problem(case)
    A, k = prob.A, prob.k
    rng = np.random.default_rng(29 * N + len(A.num))
    inputs = [TruncatedSeries((rng.standard_normal(N + 1)
                               + 1j * rng.standard_normal(N + 1))
                              * 0.9 ** np.arange(N + 1))]
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            inputs.append(solve_series(prob, N))
    except (BracketOverflow, BracketUnderflow):
        pass
    for f in inputs:
        order = N - k
        with np.errstate(all="ignore"):
            got = _times_a(A, f, order)
            want = (A.origin_series(N) * f).truncated(order)
        if A.is_polynomial:  # the same route as before, bit for bit
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            continue
        exact = doubles(mp_times(A.num, A.den, f.coeffs, order + 1))
        scales = term_scales(exact[0], A.num, A.den, f.coeffs)
        assert max_rel_error(got.coeffs, exact, scales) <= max(
            4.0 * max_rel_error(want.coeffs, exact, scales), 1e-14)


@pytest.mark.parametrize("den", [[1.0], [1.0, -0.3], [2.0, 0.5, 0.1j]],
                         ids=["polynomial", "linear", "quadratic"])
def test_the_solvers_expand_no_a_and_take_no_dot(monkeypatch, den):
    A = RationalFunction([-1.0, 0.25, 0.5j], den)
    expansions, dots, convolved = [], [], []
    origin_series, dot, convolve = (RationalFunction.origin_series, np.dot,
                                    np.convolve)

    def count_expansion(rf, order):
        if rf is A:
            expansions.append(order)
        return origin_series(rf, order)

    def count_dot(x, y, *args):
        dots.append(np.size(x))
        return dot(x, y, *args)

    def count_convolve(x, y, *args):
        convolved.append(min(np.size(x), np.size(y)))
        return convolve(x, y, *args)

    monkeypatch.setattr(RationalFunction, "origin_series", count_expansion)
    monkeypatch.setattr(np, "dot", count_dot)
    monkeypatch.setattr(np, "convolve", count_convolve)
    qp = QParam(1.5 + 0.3j)
    prob = QdeProblem(2, A, RationalFunction([1.0, -0.5]), qp, (1.0, -0.5))
    f = solve_series(prob, 300)
    solve_shifted_series(2, A, qp, prob.initial, 300)
    assert expansions == dots == convolved == []
    residual(prob, f)
    # the check expands a polynomial A only, to an exact polynomial whose
    # product with f convolves A's band; a rational A's product runs the
    # banded steps, with no expansion, dot or convolution
    if len(den) == 1:
        assert expansions == [300]
        assert max(convolved) <= A.num.size
    else:
        assert expansions == dots == convolved == []
