"""A TruncatedSeries certifies its radius on first read, then keeps it.

Every radius must be the one an eager certificate gives: _certify_radius
on the coefficients, capped as the derived-radius rule caps it, read at
construction. The reference below is that eager rule, kept here apart
from qcore: it reads no lazy radius, only coefficients and the radii it
computed itself. is_exact_polynomial is declared where a series is
built and follows the same structural rules here; reading it never runs
a certificate.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacksonq import qcore
from jacksonq.errors import BracketOverflow, BracketUnderflow
from jacksonq.qcore import QParam, TruncatedSeries, _certify_radius
from jacksonq.qode import (
    QdeProblem,
    RationalFunction,
    _times_a,
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
from test_bracket_ladder import REGIME_Q, _qparam, regime_q

TAIL = TruncatedSeries.tail_tol
UNITS = (1, -1, 1j, -1j)


def eager(coeffs, exact: bool, *caps):
    """The radius certified at construction: inf (None if a coefficient
    is not finite) for an exact polynomial, else the own certificate
    capped by each of caps, None dominant."""
    if exact:
        return math.inf if np.all(np.isfinite(coeffs)) else None
    rad = _certify_radius(coeffs, TAIL)
    for cap in caps:
        rad = None if rad is None or cap is None else min(rad, cap)
    return rad


def degree(coeffs) -> int:
    nz = np.flatnonzero(np.abs(coeffs) > 0)
    return int(nz[-1]) if nz.size else -1


class Ref:
    """A lazy series beside its eager radius and its declared exactness:
    exact as built, unless a coefficient is not finite."""

    def __init__(self, series, radius, exact: bool = False):
        self.s, self.R = series, radius
        self.exact = exact and bool(np.all(np.isfinite(series.coeffs)))

    @property
    def deg(self) -> int:
        return degree(self.s.coeffs)


def built(out, exact: bool, *caps) -> Ref:
    """out beside the eager radius of a series built exact or not,
    capped by caps."""
    return Ref(out, eager(out.coeffs, exact, *caps), exact)


def fresh(series, exact=False):
    return built(series, exact)


def neg_radius(x: Ref):
    return eager(-x.s.coeffs, x.exact, x.R, x.R)


def add(x, y):
    if isinstance(y, Ref):
        n = min(x.s.order, y.s.order)
        exact = x.exact and y.exact and max(x.deg, y.deg) <= n
        return built(x.s + y.s, exact, x.R, y.R)
    return built(x.s + y, x.exact, x.R, x.R)


def sub(x, y):
    if isinstance(y, Ref):  # x + (-y), and -y is exact when y is
        n = min(x.s.order, y.s.order)
        exact = x.exact and y.exact and max(x.deg, y.deg) <= n
        return built(x.s - y.s, exact, x.R, neg_radius(y))
    return built(x.s - y, x.exact, x.R, x.R)


def rsub(x, a):  # a - x = (-x) + a
    nx = neg_radius(x)
    return built(a - x.s, x.exact, nx, nx)


def neg(x):
    return built(-x.s, x.exact, x.R, x.R)


def mul(x, y):
    if isinstance(y, Ref):
        n = min(x.s.order, y.s.order)
        exact = x.exact and y.exact and (x.deg < 0 or y.deg < 0
                                         or x.deg + y.deg <= n)
        return built(x.s * y.s, exact, x.R, y.R)
    return built(y * x.s, x.exact, x.R, x.R)  # __rmul__


def div(x, y):
    if isinstance(y, Ref):
        # exact only by an exact constant, of a dividend that fits the order
        n = min(x.s.order, y.s.order)
        exact = x.exact and y.exact and y.deg == 0 and x.deg <= n
        return built(x.s / y.s, exact, x.R, y.R)
    return built(x.s / y, x.exact, x.R, x.R)


def scale_arg(x, fac):
    out = x.s.scale_arg(fac)
    if fac in UNITS:
        return Ref(out, x.R, x.exact)
    if x.exact or fac == 0:  # f(0 z) is the constant c_0
        return built(out, True)
    if x.R is None:
        return built(out, False)
    return built(out, False, x.R / abs(fac))


def shifted(x, m):
    return built(x.s.shifted(m), x.exact, x.R, x.R)


def truncated(x, order):
    out = x.s.truncated(order)
    if order >= x.s.order:
        return Ref(out, x.R, x.exact)
    return built(out, x.exact and x.deg <= order, x.R, x.R)


def dqk(x, qp, k):
    """D_q^k of x, or None where a bracket it needs overflows."""
    try:
        out = dqk_series(x.s, qp, k)
    except BracketOverflow:
        return None
    step = x  # each D_q pass keeps the exactness of the one before,
    for _ in range(k):  # and a constant goes to the zero polynomial
        step = built(dq_series(step.s, qp), step.exact or step.s.order < 1)
    assert out.coeffs.tobytes() == step.s.coeffs.tobytes()
    return Ref(out, step.R, step.exact)


def origin_series(rf: RationalFunction, order: int) -> Ref:
    """num / den by divide: exact for an exact num over a constant den."""
    num = fresh(TruncatedSeries.from_polynomial(rf.num, order=order),
                not np.any(rf.num[order + 1:]))
    den = fresh(TruncatedSeries.from_polynomial(rf.den, order=order),
                not np.any(rf.den[order + 1:]))
    ref = div(num, den)
    out = rf.origin_series(order)
    assert out.coeffs.tobytes() == ref.s.coeffs.tobytes()
    return Ref(out, ref.R, ref.exact)


def times_a(A: RationalFunction, f: Ref, order: int) -> Ref:
    """A f to order: a polynomial A's exact expansion times f, cut to
    order; a rational A's product, from Q u = P f, is one series capped
    by f alone."""
    if A.is_polynomial:
        return truncated(mul(origin_series(A, f.s.order), f), order)
    return built(_times_a(A, f.s, order), False, f.R)


def residual_ref(prob, f: Ref) -> Ref:
    oo = f.s.order - prob.k
    lhs = dqk(f, prob.qp, prob.k)
    if lhs is None:
        return None
    b = origin_series(prob.B, oo)
    out = sub(add(lhs, times_a(prob.A, f, oo)), b)
    res, _ = residual(prob, f.s)
    assert res.coeffs.tobytes() == out.s.coeffs.tobytes()
    return Ref(res, out.R, out.exact)


@contextlib.contextmanager
def certificates():
    """The coefficient arrays _certify_radius is called on while the
    block runs, in order."""
    calls = []
    certify = qcore._certify_radius

    def counting(coeffs, tail_tol):
        calls.append(coeffs)
        return certify(coeffs, tail_tol)

    qcore._certify_radius = counting
    try:
        yield calls
    finally:
        qcore._certify_radius = certify


def assert_lazy_is_eager(refs):
    """Read every is_exact_polynomial first, which certifies nothing, then
    safe_radius, newest series first, so each read resolves through its
    pending operands."""
    with certificates() as calls:
        for ref in refs:
            assert ref.s.is_exact_polynomial == ref.exact
    assert calls == []
    for ref in reversed(refs):
        got = ref.s.safe_radius
        assert (got is None) == (ref.R is None)
        if got is not None:
            assert got == ref.R


def ladders(qp, N):
    """exp_q, etilde_q, big_e_q, phi_rs and sin_q, cos_q beside their
    eager radii; big_e_q carried its 0phi0's, sin_q and cos_q exp_q's."""
    e = exp_q(qp, N)
    s, c = sinq_cosq(qp, N)
    r_e = eager(e.coeffs, False)
    r_0 = eager(phi_rs(PhiParams((), (), qp), N).coeffs, False)
    params = PhiParams((0.3 + 0.1j,), (0.6,), qp)
    return [fresh(e), fresh(etilde_q(qp, N)), Ref(big_e_q(qp, N), r_0),
            fresh(phi_rs(params, N)), Ref(s, r_e), Ref(c, r_e)]


def bases(qp, N, rng):
    """Series of every construction route at order N: the ladders, the
    constructor (decaying, growing, constant, zero), from_polynomial (cut
    and padded), D_q^k, the two solvers and a residual."""
    pool = ladders(qp, N)
    decay = (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)) \
        * 0.7 ** np.arange(N + 1)
    poly = list(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    pool += [
        fresh(TruncatedSeries(decay)),
        fresh(TruncatedSeries(rng.standard_normal(N + 1) * 1.5 ** np.arange(
            N + 1))),
        fresh(TruncatedSeries([0.5 - 2j] + [0.0] * N)),
        fresh(TruncatedSeries(np.zeros(N + 1))),
        fresh(TruncatedSeries(poly[: N + 1], exact_polynomial=True), True),
        fresh(TruncatedSeries.from_polynomial(poly, order=N),
              N + 1 >= len(poly)),
        fresh(TruncatedSeries.from_polynomial(poly[:2]), True),
    ]
    pool += [x for x in [dqk(pool[0], qp, int(rng.integers(1, 4)))] if x]
    k = int(rng.integers(1, 4))
    if N >= k:
        A = RationalFunction([-1.0, 0.3 * rng.standard_normal()],
                             [1.0, -0.2] if rng.random() < 0.5 else [1.0])
        B = RationalFunction([0.5, 0.25j] if rng.random() < 0.5 else [0.0])
        initial = [1.0, -0.5 + 0.25j, 0.25][:k]
        prob = QdeProblem(k, A, B, qp, initial)
        try:
            f = fresh(solve_series(prob, N))
            pool += [f, fresh(solve_shifted_series(k, A, qp, initial, N))]
        except (BracketOverflow, BracketUnderflow):
            pass
        else:
            pool += [x for x in [residual_ref(prob, f)] if x]
    return pool


SCALARS = (2.0, -0.5 + 1j, 1e-3j, 0.0, 1e200)
ROUTES = ("add", "sub", "rsub", "neg", "mul", "div", "divide", "scale",
          "shifted", "truncated", "dqk")


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def apply(route, x, y, scalar, qp, rng):
    """One construction route on x, and y or a scalar."""
    if route in ("add", "sub", "mul"):
        other = y if rng.random() < 0.5 else scalar
        return {"add": add, "sub": sub, "mul": mul}[route](x, other)
    if route == "div":
        return div(x, scalar or 3.0)
    if route == "divide":
        return div(x, y) if y.s.coeffs[0] != 0 else None
    if route == "rsub":
        return rsub(x, scalar)
    if route == "neg":
        return neg(x)
    if route == "scale":
        fac = pick(rng, UNITS + (0.0, 0.5, 3.0 - 1j, 1e-300))
        return scale_arg(x, fac)
    if route == "shifted":
        return shifted(x, int(rng.integers(0, 4)))
    if route == "truncated":
        return truncated(x, int(rng.integers(0, x.s.order + 2)))
    return dqk(x, qp, int(rng.integers(1, 3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(qv=regime_q(), N=st.sampled_from([0, 1, 2, 3, 8, 40, 200, 2000]),
       seed=st.integers(0, 2**32 - 1))
@example(qv=REGIME_Q["inside"], N=200, seed=1)
@example(qv=REGIME_Q["outside"], N=2000, seed=2)
@example(qv=REGIME_Q["negative_inside"], N=40, seed=3)
@example(qv=REGIME_Q["negative_outside"], N=0, seed=4)
@example(qv=REGIME_Q["complex"], N=8, seed=5)
@example(qv=REGIME_Q["near_root"], N=1, seed=6)
def test_lazy_radius_equals_eager(qv, N, seed):
    rng = np.random.default_rng(seed)
    qp = _qparam(qv)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # overflow, division and conditioning warnings are not the point
        warnings.simplefilter("ignore")
        pool = bases(qp, N, rng)
        # chains of 4 to 12 operations on earlier results, half of them
        # on the newest series, so operands wait several generations deep
        for _ in range(int(rng.integers(4, 13))):
            i = len(pool) - 1 if rng.random() < 0.5 else int(
                rng.integers(len(pool)))
            out = apply(pick(rng, ROUTES), pool[i],
                        pool[int(rng.integers(len(pool)))],
                        pick(rng, SCALARS), qp, rng)
            if out is not None:
                pool.append(out)
        assert_lazy_is_eager(pool)


def test_window_ratios_that_underflow_certify_inf():
    # past index 0 a certificate is inf only when every window ratio
    # underflows to 0: here |c_1|/|c_0| = 1e-330. The radius is inf, but
    # no certificate declares a series exact, nor its sum with an exact
    # polynomial, whose radius is its own certificate, inf again
    odd = TruncatedSeries([1e10, 1e-320])
    assert _certify_radius(odd.coeffs, TAIL) == math.inf
    assert odd.safe_radius == math.inf and not odd.is_exact_polynomial
    poly = TruncatedSeries.from_polynomial([1.0, 0.0])
    total = TruncatedSeries([1e10, 1e-320]) + poly
    assert not total.is_exact_polynomial and total.safe_radius == math.inf
    # at the edge: |c_1|/|c_0| = 2^-1075 exactly rounds to 0
    edge = TruncatedSeries([2.0, 5e-324])
    assert not edge.is_exact_polynomial and edge.safe_radius == math.inf
    # far from underflow is a finite certificate
    far = TruncatedSeries([1e10, 1e-290])
    assert not far.is_exact_polynomial and far.safe_radius < math.inf


def test_zero_and_constant_series_are_exact_only_if_built_so():
    for coeffs in ([0.0] * 5, [0.5 - 2j] + [0.0] * 4):
        built = TruncatedSeries(coeffs)
        declared = TruncatedSeries(coeffs, exact_polynomial=True)
        assert built.safe_radius == declared.safe_radius == math.inf
        assert not built.is_exact_polynomial
        assert declared.is_exact_polynomial
        assert not (built + declared).is_exact_polynomial
        assert (declared * declared).is_exact_polynomial


def test_scale_arg_zero_is_the_exact_constant():
    rng = np.random.default_rng(3)
    for order in (0, 1, 40):
        f = TruncatedSeries(rng.standard_normal(order + 1)
                            * 0.5 ** np.arange(order + 1))
        g = f.scale_arg(0.0)
        assert g.is_exact_polynomial and g.safe_radius == math.inf
        assert g.c(0) == f.c(0) and not g.coeffs[1:].any()
    # a coefficient that is not finite leaves f(0 z) with NaN: no claim
    with np.errstate(invalid="ignore"):
        bad = TruncatedSeries([1.0, math.inf]).scale_arg(0.0)
    assert not bad.is_exact_polynomial and bad.safe_radius is None


def test_exact_polynomial_over_an_exact_constant_stays_exact():
    p = TruncatedSeries.from_polynomial([1.0, 2.0 - 1j, 3.0], order=5)
    four = TruncatedSeries.from_polynomial([4.0 + 1j], order=5)
    quot = p / four
    assert quot.is_exact_polynomial and quot.safe_radius == math.inf
    assert quot.coeffs.tobytes() == (p.coeffs / (4.0 + 1j)).tobytes()
    # a dividend cut by the order, a divisor not declared exact, one that
    # is not a constant: each quotient is a series, not a polynomial
    cut = TruncatedSeries.from_polynomial([4.0 + 1j], order=1)
    undeclared = TruncatedSeries([4.0 + 1j] + [0.0] * 5)
    linear = TruncatedSeries.from_polynomial([4.0, 1.0], order=5)
    for divisor in (cut, undeclared, linear):
        assert not (p / divisor).is_exact_polynomial


def test_an_undeclared_zero_series_meets_the_overflowed_brackets():
    # [n]_2 overflows from n = 997 on: the zeros of a series not declared
    # exact stand for a tail that is not known to vanish there
    qp = QParam(2.0)
    with pytest.raises(BracketOverflow):
        dq_series(TruncatedSeries(np.zeros(1201)), qp)
    zero = TruncatedSeries(np.zeros(1201), exact_polynomial=True)
    out = dq_series(zero, qp)
    assert out.is_exact_polynomial and not out.coeffs.any()


def test_only_read_radii_are_certified():
    with certificates() as calls:
        only_read_radii_are_certified(calls)


def only_read_radii_are_certified(calls):
    qp = QParam(1.5 + 0.3j)
    A = RationalFunction([-1.0, 0.2], [1.0, -0.3])
    prob = QdeProblem(2, A, RationalFunction([0.5, 0.1]), qp, (1.0, 0.5))
    f = solve_series(prob, 200)
    res, _ = residual(prob, f)
    s, c = sinq_cosq(qp, 200)
    series = [f, res, exp_q(qp, 200), etilde_q(qp, 200), big_e_q(qp, 200),
              phi_rs(PhiParams((0.3,), (0.6,), qp), 200), s, c,
              solve_shifted_series(2, A, qp, (1.0, 0.5), 100)]
    for x in series:
        x.coeffs
        assert not x.is_exact_polynomial
    assert calls == []
    radius = f.safe_radius
    assert len(calls) == 1 and calls[0] is f.coeffs
    # a radius read twice, or by eval, is certified once
    assert f.safe_radius == radius
    f.eval(0.5 * radius)
    assert len(calls) == 1


def test_a_long_chain_of_pending_sums_resolves(monkeypatch):
    # each sum waits on the one before; past _PENDING_GENERATIONS an
    # operand is certified first, so a read never recurses deeply
    rng = np.random.default_rng(7)
    # geometric terms so long that each certificate is its first guess
    # (rmax, one tail bound): 2 * 10^4 certificates stay cheap
    terms = [TruncatedSeries(rng.standard_normal() * 0.5 ** np.arange(300))
             for _ in range(10)]
    total, radius = terms[0], eager(terms[0].coeffs, False)
    radii = [eager(t.coeffs, False) for t in terms]
    for i in range(1, 10 ** 4):
        total = total + terms[i % 10]
        radius = eager(total.coeffs, False, radius, radii[i % 10])
    assert 0 < radius < math.inf
    assert total._basis[2] <= qcore._PENDING_GENERATIONS
    assert total.safe_radius == radius


def test_a_first_read_ignores_the_callers_errstate():
    # |c_10|/|c_0| = 3.3e-311 underflows: numpy's default ignores that,
    # errstate(all="raise") would raise it out of the certificate
    coeffs = np.array([3.0] + [0.0] * 9 + [1e-310], dtype=complex)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _certify_radius(coeffs, TAIL)
    want = _certify_radius(coeffs, TAIL)
    f = TruncatedSeries(coeffs)
    g = f.scale_arg(0.5)
    h = g + TruncatedSeries.from_polynomial([1.0, 2.0])
    want_g = eager(g.coeffs, False, want / 0.5)
    want_h = eager(h.coeffs, False, want_g, math.inf)
    assert all(0 < r < math.inf for r in (want, want_g, want_h))
    with np.errstate(all="raise"):
        assert (h.safe_radius, g.safe_radius, f.safe_radius) == (
            want_h, want_g, want)
