"""The series layer's fast paths against the scalar routes they replace.

q_brackets gives the whole ladder [0]_q .. [N]_q in one pass and must
equal q_bracket on every entry, bit for bit. origin_series divides by a
constant denominator directly, dqk_series shares one ladder over its k
passes, and _certify_radius takes the ratios of adjacent coefficients
as one array and stops its bisection at the fixed point; each must
return exactly what the long route returns. The route pins patch
the long routes to raise, so a solve that still returns never took them.
A QParam keeps its bracket and 1/[n]_q! ladders, and a RationalFunction
its origin expansions; whatever a cache holds, every result must equal
what a fresh object gives.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jacksonq
from jacksonq import qcore, qspecial
from jacksonq.errors import BracketOverflow, BracketUnderflow, DomainError
from jacksonq.qcore import (
    QParam,
    TruncatedSeries,
    _certify_radius,
    q_bracket,
    q_brackets,
)
from jacksonq.qode import (
    QdeProblem,
    RationalFunction,
    residual,
    solve_series,
    solve_shifted_series,
)
from jacksonq.qoperator import dq_series, dqk_series
from jacksonq.qspecial import (
    PhiParams,
    big_e_q,
    etilde_q,
    exp_q,
    phi_rs,
    sinq_cosq,
)


def assert_same_bits(got, want):
    x = np.asarray(got, dtype=np.complex128).view(np.float64)
    y = np.asarray(want, dtype=np.complex128).view(np.float64)
    assert x.shape == y.shape
    assert np.array_equal(x, y, equal_nan=True)
    assert np.array_equal(np.signbit(x), np.signbit(y))


# ---------------------------------------------------------------------------
# the bracket ladder
# ---------------------------------------------------------------------------

# N at and around the powers of two, where the ladder's top bit moves
EDGE_N = sorted({0, 1, 2100} | {(1 << t) + d for t in range(1, 12)
                                for d in (-1, 0, 1)})


@st.composite
def q_values(draw):
    """Valid q in every regime: |q| < 1, |q| > 1, negative, complex, and
    just off the unit circle near a root of unity."""
    regime = draw(st.sampled_from(
        ["inside", "outside", "negative", "complex", "near_root"]))
    if regime == "inside":
        q = draw(st.floats(0.02, 0.98))
    elif regime == "outside":
        q = draw(st.floats(1.01, 40.0))
    elif regime == "negative":
        q = -draw(st.sampled_from([draw(st.floats(0.02, 0.98)),
                                   draw(st.floats(1.01, 40.0))]))
    elif regime == "complex":
        q = draw(st.floats(0.05, 20.0)) * cmath.exp(
            1j * draw(st.floats(-math.pi, math.pi)))
        if abs(abs(q) - 1.0) < 1e-3:
            q *= 1.01
    else:
        m = draw(st.integers(2, 12))
        p = draw(st.integers(1, m - 1))
        mod = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.floats(1e-6, 1e-2))
        q = mod * cmath.exp(2j * math.pi * p / m)
    try:
        return QParam(q)
    except DomainError:
        return QParam(2.0 * q)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(qp=q_values(), N=st.one_of(st.sampled_from(EDGE_N),
                                  st.integers(0, 2100)))
def test_ladder_matches_scalar_bracket(qp, N):
    ladder = q_brackets(N, qp)
    assert all(type(b) is complex for b in ladder)
    assert_same_bits(ladder, [q_bracket(n, qp) for n in range(N + 1)])


@pytest.mark.parametrize("qv, first", [(2.0, 997),
                                       (1.9 * cmath.exp(0.85j), 1077)])
def test_ladder_saturates_where_the_scalar_bracket_does(qv, first):
    qp = QParam(qv)
    ladder = q_brackets(2100, qp)
    assert_same_bits(ladder, [q_bracket(n, qp) for n in range(2101)])
    saturated = [n for n, b in enumerate(ladder) if math.isinf(b.real)]
    assert saturated[0] == first
    assert ladder[first] == complex(math.inf, 0.0)


def test_saturation_is_inf_never_nan():
    # past n = 2048 the square q^1024 = inf + 0j squares to inf + nanj;
    # a NaN part counts as overflow, so every saturated entry is inf + 0j
    qp = QParam(2.0)
    ladder = q_brackets(3100, qp)
    assert_same_bits(ladder, [q_bracket(n, qp) for n in range(3101)])
    saturated = [b for b in ladder if not cmath.isfinite(b)]
    assert len(saturated) == 3100 - 997 + 1
    assert_same_bits(saturated, [complex(math.inf, 0.0)] * len(saturated))


def test_ladder_rejects_negative_order():
    with pytest.raises(DomainError):
        q_brackets(-1, QParam(2.0))


# ---------------------------------------------------------------------------
# dq_series and dqk_series: one ladder for all k passes
# ---------------------------------------------------------------------------


def _dq_series_scalar(f, qp):
    """dq_series with one q_bracket call per coefficient."""
    if f.order < 1:
        return TruncatedSeries.from_polynomial([0.0])
    c = f.coeffs[1:]
    brackets = np.array([q_bracket(m, qp) for m in range(1, f.order + 1)])
    finite = np.isfinite(brackets)
    overflowed = np.flatnonzero(
        ~finite & (c != 0) if f.is_exact_polynomial else ~finite)
    if overflowed.size:
        raise BracketOverflow(
            f"bracket [{overflowed[0] + 1}]_q is not finite")
    return TruncatedSeries(c * np.where(finite, brackets, 0.0), f.tail_tol,
                           exact_polynomial=f.is_exact_polynomial)


def _k_passes(f, qp, k):
    out = f
    for _ in range(k):
        out = _dq_series_scalar(out, qp)
    return out


def _outcome(fn):
    try:
        return fn()
    except BracketOverflow as exc:
        return str(exc)


@pytest.mark.parametrize("qv", [2.0, 0.5, -1.7, 1 + 0.5j, 1.07,
                                1.9 * cmath.exp(0.85j)])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_dqk_series_equals_k_scalar_passes(qv, k):
    qp = QParam(qv)
    inputs = [
        etilde_q(qp, 200),
        TruncatedSeries.from_polynomial([1.0, 2.0, -0.5j], order=1100),
        TruncatedSeries.from_polynomial([0.0] * 1000 + [1.0, 2.0]),
        TruncatedSeries(np.full(1100, 0.5 + 0.25j)),
        TruncatedSeries.from_polynomial([3.0]),
    ]
    for f in inputs:
        # both routes may overflow a product c_n [n]_q to inf alike
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(_outcome(lambda: dqk_series(f, qp, k)),
                      _outcome(lambda: _k_passes(f, qp, k)))]
            if k == 1:
                pairs.append((_outcome(lambda: dq_series(f, qp)),
                              _outcome(lambda: _dq_series_scalar(f, qp))))
        for got, want in pairs:
            assert type(got) is type(want)
            if isinstance(want, str):
                assert got == want
            else:
                assert_same_bits(got.coeffs, want.coeffs)
                assert got.safe_radius == want.safe_radius
                assert got.tail_tol == want.tail_tol


# ---------------------------------------------------------------------------
# origin_series with a constant denominator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("den", [[1.0], [2.0 - 1.0j], [-0.0 + 3e-3j]])
@pytest.mark.parametrize("num", [[0.0], [1.0, -0.0, 2.5 - 0.0j, 1e-300],
                                 [-0.0j, 0.3 + 0.7j, -2.0, 0.0, 1e12]])
@pytest.mark.parametrize("order", [0, 2, 30, 200])
def test_constant_denominator_matches_long_division(num, den, order):
    rf = RationalFunction(num, den)
    got = rf.origin_series(order)
    want = TruncatedSeries.from_polynomial(rf.num, order=order).divide(
        TruncatedSeries.from_polynomial(rf.den, order=order))
    assert_same_bits(got.coeffs, want.coeffs)
    # a polynomial that fits the order has no tail; one cut short has the
    # long division's radius
    if rf.num.size <= order + 1:
        assert got.safe_radius == math.inf
    else:
        assert got.safe_radius == want.safe_radius


@pytest.mark.parametrize("num, den", [([1.0, 0.5], [1.0, -0.25]),
                                      ([0.3, -1.0, 0.2], [2.0, 0.5, 0.1j])])
def test_origin_series_is_prefix_stable(num, den):
    rf = RationalFunction(num, den)
    assert_same_bits(rf.origin_series(40).coeffs,
                     rf.origin_series(50).coeffs[:41])


# ---------------------------------------------------------------------------
# _certify_radius: array ratios, and a bisection that stops at its fixed point
# ---------------------------------------------------------------------------


def _certify_radius_200(coeffs, tail_tol):
    """_certify_radius with a scalar loop over the ratios and its
    bisection run for all 200 steps."""
    mags = np.abs(coeffs)
    if not np.all(np.isfinite(mags)):
        return None
    n = mags.size - 1
    nz = np.flatnonzero(mags > 0.0)
    if nz.size == 0:
        return math.inf
    if nz.size == 1 and nz[0] == 0:
        return math.inf
    start = max(0, (3 * (n + 1)) // 4 - 1)
    window = nz[nz >= start]
    if window.size < 2:
        window = nz[-2:] if nz.size >= 2 else nz
    if window.size < 2:
        return None
    rho = 0.0
    for i, j in zip(window[:-1], window[1:]):
        rho = max(rho, (mags[j] / mags[i]) ** (1.0 / (j - i)))
    rho *= 1.25
    if rho <= 0.0:
        return math.inf
    if rho >= 1.0:
        return None
    m = int(nz[-1])
    log_anchor = math.log(mags[m])
    log_rho = math.log(rho)
    rmax = (1.0 - 1e-9) / rho
    log_tol = math.log(tail_tol)

    def log_tail(radius):
        x = rho * radius
        if x >= 1.0:
            return math.inf
        return (log_anchor + (n + 1 - m) * log_rho
                + (n + 1) * math.log(radius) - math.log1p(-x))

    if log_tail(rmax) <= log_tol:
        return rmax
    lo, hi = 0.0, rmax
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or log_tail(mid) <= log_tol:
            lo = mid
        else:
            hi = mid
    return lo if lo > 0.0 else None


def _certified_outputs(qp, N):
    yield exp_q(qp, N)
    yield etilde_q(qp, N)
    yield big_e_q(qp, N)
    yield phi_rs(PhiParams((0.3, -0.2j), (0.7,), qp), N)
    yield from sinq_cosq(qp, N)  # every other coefficient zero: gaps of 2
    A = RationalFunction([1.0, 0.5], [1.0, -0.25])
    for k in (1, 2):
        prob = QdeProblem(k, A, RationalFunction([1.0, -0.5]), qp,
                          (1.0, -0.5)[:k])
        try:
            yield solve_series(prob, N)
        except BracketOverflow:
            pass


@pytest.mark.filterwarnings("ignore::jacksonq.errors.ConditioningWarning")
@pytest.mark.parametrize("qv", [2.0, 0.5, -1.7, 1 + 0.5j, 1.07, 0.93])
@pytest.mark.parametrize("N", [30, 200, 2000])
def test_radius_equals_full_bisection(qv, N):
    for f in _certified_outputs(QParam(qv), N):
        for tol in (f.tail_tol, 1e-300):
            want = _certify_radius_200(f.coeffs, tol)
            got = _certify_radius(f.coeffs, tol)
            assert got == want or (got is None and want is None)
            assert type(got) is type(want)


# ---------------------------------------------------------------------------
# route pins: a polynomial A never reaches q_bracket or long division
# ---------------------------------------------------------------------------


@pytest.fixture
def long_routes_raise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("long route taken")

    for module in (qcore, jacksonq):
        monkeypatch.setattr(module, "q_bracket", refuse)
    monkeypatch.setattr(TruncatedSeries, "divide", refuse)


@pytest.mark.filterwarnings("ignore::jacksonq.errors.FormalRegimeWarning")
@pytest.mark.parametrize("qv", [1.5, 0.5, 1 + 0.5j])
def test_series_layer_skips_the_long_routes(long_routes_raise, qv):
    qp = QParam(qv)
    A = RationalFunction([-1.0, 0.25, 0.5j])
    prob = QdeProblem(2, A, RationalFunction([1.0, -0.5]), qp, (1.0, 0.0))
    f = solve_series(prob, 120)
    _, res = residual(prob, f)
    assert res < 1e-8 * max(1.0, float(np.max(np.abs(f.coeffs))))
    solve_shifted_series(2, A, qp, (1.0, 0.0), 120)
    exp_q(qp, 120)
    sinq_cosq(qp, 120)


# ---------------------------------------------------------------------------
# ladders kept on the QParam, origin expansions kept on the RationalFunction
# ---------------------------------------------------------------------------

# one pinned q per regime, so each regime runs whatever hypothesis draws
REGIME_Q = {
    "inside": 0.5,
    "outside": 2.0,
    "negative_inside": -0.7,
    "negative_outside": -1.7,
    "complex": 1.5 + 0.8j,
    "near_root": 1.001 * cmath.exp(2j * math.pi / 3),
}


@st.composite
def regime_q(draw):
    """q from one of the six regimes of REGIME_Q, as a complex number."""
    regime = draw(st.sampled_from(sorted(REGIME_Q)))
    inside, outside = draw(st.floats(0.05, 0.95)), draw(st.floats(1.05, 8.0))
    if regime == "inside":
        return complex(inside)
    if regime == "outside":
        return complex(outside)
    if regime == "negative_inside":
        return complex(-inside)
    if regime == "negative_outside":
        return complex(-outside)
    if regime == "complex":
        return draw(st.sampled_from([inside, outside])) * cmath.exp(
            1j * draw(st.floats(0.1, 3.0)))
    m = draw(st.integers(2, 12))
    mod = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.floats(1e-3, 1e-2))
    return mod * cmath.exp(2j * math.pi * draw(st.integers(1, m - 1)) / m)


def _qparam(qv):
    try:
        return QParam(qv)
    except DomainError:  # too near a root of unity for the guard
        return QParam(2.0 * qv)


def _problem(qp, k):
    A = RationalFunction([-1.0, 0.25, 0.5j], [1.0, -0.3])
    return QdeProblem(k, A, RationalFunction([1.0, -0.5]), qp,
                      (1.0, -0.5, 0.25)[:k])


def _results(qp, N, k):
    """Every ladder reader on qp at order N, each as its coefficient
    array and radius, or as the error it raised."""
    out = {"q_brackets": (q_brackets(N, qp), None)}

    def keep(name, fn):
        try:
            f = fn()
        except (BracketOverflow, BracketUnderflow) as exc:
            out[name] = (type(exc).__name__, str(exc))
        else:
            out[name] = (f.coeffs, f.safe_radius)

    prob = _problem(qp, k)
    keep("exp_q", lambda: exp_q(qp, N))
    keep("sin_q", lambda: sinq_cosq(qp, N)[0])
    keep("cos_q", lambda: sinq_cosq(qp, N)[1])
    keep("dqk_series", lambda: dqk_series(
        TruncatedSeries(np.linspace(1.0, 0.5j, N + 1) ** 3), qp, k))
    keep("solve_series", lambda: solve_series(prob, N))
    keep("residual", lambda: residual(prob, solve_series(prob, N))[0])
    keep("solve_shifted_series", lambda: solve_shifted_series(
        k, prob.A, qp, prob.initial, N))
    return out


def _assert_same_results(got, want):
    assert got.keys() == want.keys()
    for name in want:
        (g, g_radius), (w, w_radius) = got[name], want[name]
        if isinstance(w, str):
            assert (g, g_radius) == (w, w_radius), name
        else:
            assert_same_bits(g, w)
            assert g_radius == w_radius, name


@pytest.mark.filterwarnings("ignore::jacksonq.errors.ConditioningWarning")
@pytest.mark.filterwarnings("ignore::jacksonq.errors.FormalRegimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(qv=regime_q(), big=st.integers(40, 400), small=st.integers(3, 39),
       k=st.integers(1, 3))
@example(qv=REGIME_Q["inside"], big=300, small=20, k=1)
@example(qv=REGIME_Q["outside"], big=400, small=39, k=2)
@example(qv=REGIME_Q["negative_inside"], big=120, small=3, k=3)
@example(qv=REGIME_Q["negative_outside"], big=250, small=30, k=1)
@example(qv=REGIME_Q["complex"], big=200, small=25, k=2)
@example(qv=REGIME_Q["near_root"], big=160, small=12, k=3)
def test_kept_ladders_give_what_a_fresh_qparam_gives(qv, big, small, k):
    warm = _qparam(qv)
    _results(warm, big, k)  # fills every cache to the larger order first
    for N in (small, big):
        _assert_same_results(_results(warm, N, k),
                             _results(_qparam(qv), N, k))


@pytest.mark.parametrize("qv", sorted(REGIME_Q.values(), key=str))
def test_changing_a_returned_ladder_changes_no_later_result(qv):
    qp, N = _qparam(qv), 60
    want = _results(_qparam(qv), N, 2)
    ladder = q_brackets(N, qp)
    ladder[:] = [complex(math.nan, 1.0)] * len(ladder)
    ladder.append(0j)
    _assert_same_results(_results(qp, N, 2), want)
    kept = exp_q(qp, N).coeffs
    with pytest.raises(ValueError):
        kept[1] = 0.0
    with pytest.raises(ValueError):
        qp._exp_coeffs[1] = 0.0


def test_kept_ladders_leave_equality_and_hash_alone():
    qp = QParam(1.5 + 0.8j)
    before = (hash(qp), repr(qp))
    exp_q(qp, 50)
    assert (hash(qp), repr(qp)) == before
    assert qp == QParam(1.5 + 0.8j)


@pytest.mark.parametrize("rf", [
    RationalFunction([0.3, 0.2]),
    RationalFunction([1.0, 0.5], [1.0, -0.25]),
    RationalFunction([0.3, -1.0, 0.2], [2.0, 0.5, 0.1j]),
    RationalFunction([1.0, 0.3], [1.0, -0.5, 0.2j], cancel=False),
])
@pytest.mark.parametrize("order", [0, 7, 200])
def test_repeated_origin_series_is_the_first_bit_for_bit(rf, order):
    first = rf.origin_series(order)
    coeffs, radius = first.coeffs.copy(), first.safe_radius
    rf.origin_series(order + 3)
    again = rf.origin_series(order)
    assert_same_bits(again.coeffs, coeffs)
    assert again.safe_radius == radius


@pytest.mark.filterwarnings("ignore::jacksonq.errors.ConditioningWarning")
@pytest.mark.filterwarnings("ignore::jacksonq.errors.FormalRegimeWarning")
@pytest.mark.parametrize("qv", sorted(REGIME_Q.values(), key=str))
def test_a_solve_and_check_builds_each_ladder_once(monkeypatch, qv):
    built = {"brackets": [], "exp_q": [], "A expansions": []}
    ladder, exp_brackets = qcore._bracket_ladder, qspecial.q_brackets
    divide = TruncatedSeries.divide

    def count_divide(num, den):
        built["A expansions"].append(num.order)
        return divide(num, den)

    def count_ladder(q, N):
        built["brackets"].append(N)
        return ladder(q, N)

    def count_exp(N, qp):
        built["exp_q"].append(N)
        return exp_brackets(N, qp)

    monkeypatch.setattr(qcore, "_bracket_ladder", count_ladder)
    monkeypatch.setattr(qspecial, "q_brackets", count_exp)
    monkeypatch.setattr(TruncatedSeries, "divide", count_divide)
    qp, N = _qparam(qv), 150
    prob = _problem(qp, 2)
    f = solve_series(prob, N)
    residual(prob, f)
    exp_q(qp, N)
    sinq_cosq(qp, N)
    solve_shifted_series(2, prob.A, qp, prob.initial, N // 2)
    # residual reuses the expansion of A that solve_series made
    assert built == {"brackets": [N], "exp_q": [N],
                     "A expansions": [N, N // 2]}
