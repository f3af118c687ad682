"""Named verification suites over the library's identities and theorems.

Each runner returns a list of CheckResult rows; the CLI `verify` command
and the acceptance tests both drive these, so a suite id means the same
thing everywhere. All randomized suites take an explicit seed.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormalRegimeWarning
from .nevanlinna import (
    INF,
    MeroModel,
    RadialGrid,
    characteristic,
    defect_estimates,
    jensen_residual,
    log_order_from_T,
    log_order_from_counting,
    log_order_from_nu,
    logderiv_lemma_check,
    sft_check,
    wiman_valiron_check,
)
from .qcore import QParam, TruncatedSeries, q_pochhammer
from .qode import QdeProblem, RationalFunction, solve_series, verify_pointwise
from .qoperator import (
    CasoratiPair,
    _PartsIntegrand,
    casorati,
    dq_sample,
    dq_series,
    dqk_closed_form,
    dqk_sample,
    dqk_series,
    jackson_integral,
    kernel_check,
)
from .qspecial import (
    BigEProduct,
    EtildeProduct,
    big_e_q,
    etilde_q,
    exp_q,
    sinq_cosq,
)

_JENSEN_RADII = (2.0, 10.0, 100.0)  # the jensen suite's quadrature radii


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}: "
                f"value={self.value:.3g} threshold={self.threshold:.3g}")


def _res(suite, name, value, threshold, larger_ok=False) -> CheckResult:
    ok = value >= threshold if larger_ok else value <= threshold
    return CheckResult(suite, name, bool(ok), float(value), float(threshold))


def _rand_poly(rng, deg, lo=-1.0, hi=1.0) -> TruncatedSeries:
    c = rng.uniform(lo, hi, deg + 1) + 1j * rng.uniform(lo, hi, deg + 1)
    while abs(c[-1]) < 0.1:
        c[-1] = rng.uniform(lo, hi) + 1j * rng.uniform(lo, hi)
    return TruncatedSeries.from_polynomial(c)


def _random_points(rng, n: int, lo: float, hi: float) -> list:
    """n points with modulus uniform in [lo, hi) and argument uniform in
    [0, 2 pi), drawn modulus then argument, point by point."""
    return [float(rng.uniform(lo, hi)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            for _ in range(n)]


def _max_tail(series: TruncatedSeries, start: int = 1) -> float:
    return float(np.max(np.abs(series.coeffs[start:])))


# ---------------------------------------------------------------------------


def run_identities() -> list:
    """Series identity suite at q in {2, 0.5, 1 + 0.5i}."""
    N, tol = 30, 1e-9
    out = []
    for qv in (2.0, 0.5, 1 + 0.5j):
        qp = QParam(qv)
        tag = f"q={qv}"
        prod = exp_q(qp, N) * exp_q(qp.inverse(), N).scale_arg(-1.0)
        out.append(_res("identities", f"exp_q*exp_qinv(-z)=1 {tag}",
                        max(abs(prod.c(0) - 1), _max_tail(prod)), tol))
        prod2 = etilde_q(qp, N) * big_e_q(qp, N).scale_arg(-1.0)
        out.append(_res("identities", f"etilde*bigE(-z)=1 {tag}",
                        max(abs(prod2.c(0) - 1), _max_tail(prod2)), tol))
        s, c = sinq_cosq(qp, N)
        ds = dq_series(s, qp)
        dc = dq_series(c, qp)
        n = ds.order
        out.append(_res("identities", f"Dq sin = cos {tag}",
                        float(np.max(np.abs(ds.coeffs - c.coeffs[: n + 1]))),
                        tol))
        out.append(_res("identities", f"Dq cos = -sin {tag}",
                        float(np.max(np.abs(dc.coeffs + s.coeffs[: n + 1]))),
                        tol))
        prod3 = etilde_q(qp, N) * etilde_q(qp.inverse(), N).scale_arg(1 / qp.q)
        out.append(_res("identities", f"etilde inversion pair {tag}",
                        max(abs(prod3.c(0) - 1), _max_tail(prod3)), tol))
    # product vs series forms
    qp2 = QParam(2.0)
    ser = etilde_q(qp2, 48)
    pr = EtildeProduct(qp2)
    worst = max(abs(ser.eval(z) - pr.eval(z)) for z in
                (0.3, 1.2j, -1.4, 0.9 + 0.9j))
    out.append(_res("identities", "etilde product=series (q=2)", worst, 1e-9))
    qph = QParam(0.5)
    serE = big_e_q(qph, 60)
    prE = BigEProduct(qph)
    worstE = max(abs(serE.eval(z) - prE.eval(z)) / max(1.0, abs(prE.eval(z)))
                 for z in (0.5, -0.3 + 0.4j, 2.0, 4.0))
    out.append(_res("identities", "bigE product=series (q=0.5)", worstE, 1e-9))
    return out


def run_operator_rules(seed: int = 20240501) -> list:
    """Operator rules: product, quotient, chain, fundamental theorem,
    integration by parts."""
    rng = np.random.default_rng(seed)
    qp = QParam(0.5)
    out = []

    worst_prod = 0.0
    for _ in range(12):
        f = _rand_poly(rng, int(rng.integers(1, 7)))
        g = _rand_poly(rng, int(rng.integers(1, 7)))
        z = complex(rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        lhs = dq_sample(lambda w: f.eval(w) * g.eval(w), z, qp)
        v1 = g.eval(qp.q * z) * dq_sample(f, z, qp) + f.eval(z) * dq_sample(g, z, qp)
        v2 = f.eval(qp.q * z) * dq_sample(g, z, qp) + g.eval(z) * dq_sample(f, z, qp)
        scale = max(1.0, abs(lhs))
        worst_prod = max(worst_prod, abs(lhs - v1) / scale, abs(lhs - v2) / scale)
    out.append(_res("rules", "product rule (both variants)", worst_prod, 1e-10))

    worst_quot = 0.0
    done = 0
    while done < 12:
        f = _rand_poly(rng, int(rng.integers(1, 6)))
        g = _rand_poly(rng, int(rng.integers(1, 6)))
        z = complex(rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        gz, gqz = g.eval(z), g.eval(qp.q * z)
        if min(abs(gz), abs(gqz)) < 0.05:
            continue
        lhs = dq_sample(lambda w: f.eval(w) / g.eval(w), z, qp)
        rhs = (gz * dq_sample(f, z, qp)
               - f.eval(z) * dq_sample(g, z, qp)) / (gqz * gz)
        worst_quot = max(worst_quot, abs(lhs - rhs) / max(1.0, abs(lhs)))
        done += 1
    out.append(_res("rules", "quotient rule", worst_quot, 1e-9))

    worst_chain = 0.0
    done = skipped = 0
    while done < 12 and skipped < 300:
        f = _rand_poly(rng, int(rng.integers(1, 5)))
        g = _rand_poly(rng, int(rng.integers(1, 5)))
        z = complex(rng.uniform(0.2, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        gz, gqz = g.eval(z), g.eval(qp.q * z)
        if abs(gqz - gz) < 1e-6:
            skipped += 1  # degenerate factorisation point, recorded and skipped
            continue
        lhs = dq_sample(lambda w: f.eval(g.eval(w)), z, qp)
        rhs = (f.eval(gqz) - f.eval(gz)) / (gqz - gz) * dq_sample(g, z, qp)
        worst_chain = max(worst_chain, abs(lhs - rhs) / max(1.0, abs(lhs)))
        done += 1
    out.append(_res("rules", "chain rule (two-factor)", worst_chain, 1e-9))

    worst_ft = 0.0
    for _ in range(6):
        f = _rand_poly(rng, int(rng.integers(1, 6)))
        z = complex(rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        F = lambda w, f=f: jackson_integral(f, 0.0, w, qp, tol=1e-14)
        worst_ft = max(worst_ft,
                       abs(dq_sample(F, z, qp) - f.eval(z)) / max(1.0, abs(f.eval(z))))
    out.append(_res("rules", "fundamental theorem (a=0)", worst_ft, 1e-10))

    worst_parts = 0.0
    for _ in range(6):
        f = _rand_poly(rng, int(rng.integers(1, 6)))
        g = _rand_poly(rng, int(rng.integers(1, 6)))
        # f(w) D_q g(w) and g(qw) D_q f(w)
        left = jackson_integral(_PartsIntegrand(f, g, qp), 0.0, 1.0, qp,
                                tol=1e-13)
        boundary = f.eval(1.0) * g.eval(1.0) - f.eval(0.0) * g.eval(0.0)
        right = boundary - jackson_integral(
            _PartsIntegrand(g, f, qp, shifted=True), 0.0, 1.0, qp, tol=1e-13)
        worst_parts = max(worst_parts, abs(left - right) / max(1.0, abs(left)))
    out.append(_res("rules", "integration by parts [0,1]", worst_parts, 1e-8))
    return out


def run_operator_equivalence(seed: int = 20240501) -> list:
    """dqk_closed_form == iterated dq_sample == dqk_series on random
    polynomials (degree <= 12, k <= 5, q in {0.5, 2})."""
    rng = np.random.default_rng(seed)
    qps = (QParam(0.5), QParam(2.0))
    worst = 0.0
    for i in range(100):
        qp = qps[i % 2]
        deg = int(rng.integers(1, 13))
        k = int(rng.integers(1, 6))
        f = _rand_poly(rng, deg)
        z = complex(rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        a = dqk_closed_form(f, z, qp, k)
        b = dqk_sample(f, z, qp, k)
        c = dqk_series(f, qp, k).eval(z)
        scale = max(1.0, abs(a))
        worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
    return [_res("operator", "triple equivalence (100 draws)", worst, 1e-9)]


def run_casorati() -> list:
    """sin_q/cos_q Casorati determinant at q=2, 40 terms: outside Ker(D_q)
    and satisfying D_q C = (q-1) z C for the equation D_q^2 f + f = 0."""
    qp = QParam(2.0)
    s, c = sinq_cosq(qp, 40)
    C = casorati(CasoratiPair(s, c, qp))
    out = [CheckResult("casorati", "kernel_check(C) is False",
                       not kernel_check(C, qp), 0.0, 0.0)]
    lhs = dq_series(C, qp)
    rhs = (qp.q - 1.0) * C.shifted(1)
    n = min(lhs.order, rhs.order)
    resid = float(np.max(np.abs(lhs.coeffs[: n + 1] - rhs.coeffs[: n + 1])))
    out.append(_res("casorati", "Dq C = (q-1) z C residual", resid, 1e-8))
    return out


def jensen_test_set(seed: int = 20240501) -> list:
    """20 random rational functions whose zero/pole moduli keep clear of
    the quadrature radii (relative margin 10%)."""
    rng = np.random.default_rng(seed)
    bands = [(r * 0.9, r * 1.1) for r in _JENSEN_RADII]

    def draw_moduli(n):
        out = []
        while len(out) < n:
            m = float(np.exp(rng.uniform(np.log(0.3), np.log(150.0))))
            if all(not (lo <= m <= hi) for lo, hi in bands):
                out.append(m)
        return out

    fs = []
    for _ in range(20):
        nz = int(rng.integers(1, 5))
        np_ = int(rng.integers(0, 4))
        zeros = [m * np.exp(1j * rng.uniform(0, 2 * np.pi))
                 for m in draw_moduli(nz)]
        poles = [m * np.exp(1j * rng.uniform(0, 2 * np.pi))
                 for m in draw_moduli(np_)]
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        fs.append(RationalFunction.from_roots(zeros, poles, lead))
    return fs


def run_jensen(seed: int = 20240501) -> list:
    fs = jensen_test_set(seed)
    worst = 0.0
    for f in fs:
        model = MeroModel.from_rational(f)
        for r in _JENSEN_RADII:
            worst = max(worst, jensen_residual(model, r, 4096))
    radii = ";".join(f"{r:g}" for r in _JENSEN_RADII)
    out = [_res("jensen", f"{len(fs)} rational functions at r in {{{radii}}}",
                worst, 1e-6)]
    qp = QParam(0.5)
    modelE = MeroModel.from_product(BigEProduct(qp))
    out.append(_res("jensen", "big-E product lattice vs quadrature (r=10)",
                    jensen_residual(modelE, 10.0, 4096), 1e-5))
    return out


def sft_test_set(seed: int = 20240501) -> list:
    """10 rational functions of degree <= 4 with all zeros and poles
    inside |z| <= 2 (margins at small radii stay tame)."""
    rng = np.random.default_rng(seed)
    fs = []
    for _ in range(10):
        nz = int(rng.integers(1, 5))
        np_ = int(rng.integers(1, 5))
        zeros = _random_points(rng, nz, 0.2, 2.0)
        poles = _random_points(rng, np_, 0.2, 2.0)
        fs.append(RationalFunction.from_roots(zeros, poles))
    return fs


def run_sft(seed: int = 20240501) -> list:
    """Second-fundamental-theorem margins with targets {0, 1, -1, inf}."""
    qp = QParam(0.5)
    grid = RadialGrid.log_spaced(10.0, 1e4, 7, angular_nodes=1024)
    fs = sft_test_set(seed)
    worst_margin = math.inf
    worst_rel = math.inf
    for f in fs:
        model = MeroModel.from_rational(f, qp)
        rows = sft_check(model, [0.0, 1.0, -1.0, INF], qp, grid)
        worst_margin = min(worst_margin, min(r.margin for r in rows))
        top = rows[-1]
        worst_rel = min(worst_rel, top.margin / top.T)
    return [
        _res("sft", f"min margin over {len(fs)} functions on r in [10;1e4]",
             worst_margin, -10.0, larger_ok=True),
        _res("sft", "top-radius margin/T", worst_rel, -0.05, larger_ok=True),
    ]


def run_logderiv(seed: int = 20240501) -> list:
    """m(r, D_q f / f)/T(r,f) at r = 1e4 for the zero-order test set."""
    rng = np.random.default_rng(seed)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5, angular_nodes=512)
    out = []
    worst = 0.0
    for i in range(3):
        deg = int(rng.integers(1, 4))
        zeros = _random_points(rng, deg, 0.3, 2.0)
        poles = _random_points(rng, 1, 0.3, 2.0)
        f = RationalFunction.from_roots(zeros, poles)
        qp = QParam(2.0)
        rows = logderiv_lemma_check(MeroModel.from_rational(f, qp), qp, 1, grid)
        worst = max(worst, rows[-1].ratio)
        decr = rows[-1].ratio <= rows[-2].ratio + 1e-12
        out.append(CheckResult("logderiv", f"rational #{i} ratio decreasing",
                               decr, rows[-1].ratio, rows[-2].ratio))
    out.append(_res("logderiv", "rational set ratio at r=1e4", worst, 0.2))
    product_grid = RadialGrid.log_spaced(10.0, 1e4, 5, angular_nodes=256)
    qp = QParam(0.5)
    modelE = MeroModel.from_product(BigEProduct(qp))
    rowsE = logderiv_lemma_check(modelE, qp, 1, product_grid)
    out.append(_res("logderiv", "big-E product ratio at r=1e4",
                    rowsE[-1].ratio, 0.2))
    qp2 = QParam(2.0)
    modelT = MeroModel.from_product(EtildeProduct(qp2))
    rowsT = logderiv_lemma_check(modelT, qp2, 1, product_grid)
    out.append(_res("logderiv", "etilde product ratio at r=1e4",
                    rowsT[-1].ratio, 0.2))
    return out


def run_wiman() -> list:
    """Wiman-Valiron deviation trend for the q-series test set (operator
    base q = 1.5, where the finite-radius deviation decays onto its
    limiting offset from above)."""
    qp = QParam(1.5)
    grid = RadialGrid.log_spaced(1e2, 1e6, 5, angular_nodes=1024)
    out = []
    for name, f in (("etilde(q=2)", etilde_q(QParam(2.0), 72)),
                    ("bigE(q=0.5)", big_e_q(QParam(0.5), 72))):
        rows = wiman_valiron_check(f, qp, 1, grid)
        devs = [r.deviation for r in rows]
        mono = devs[-3] > devs[-2] > devs[-1]
        out.append(CheckResult("wiman", f"{name} monotone top-3", mono,
                               devs[-1], devs[-2]))
        out.append(_res("wiman", f"{name} final deviation", devs[-1], 0.3))
    return out


def run_orders() -> list:
    """Logarithmic-order windows: the named q-series sit at 2, the
    polynomial control at 1."""
    out = []
    grid = RadialGrid.log_spaced(1e2, 1e6, 9)
    est1 = log_order_from_nu(etilde_q(QParam(2.0), 72), grid)
    out.append(CheckResult("orders", "etilde_q(q=2) nu-estimator",
                           1.8 <= est1.value <= 2.2, est1.value, 2.0))
    qp = QParam(0.5)
    modelE = MeroModel.from_product(BigEProduct(qp))
    est2 = log_order_from_counting(modelE, grid, target=0.0)
    out.append(CheckResult("orders", "big_e_q(q=0.5) counting estimator",
                           1.8 <= est2.value <= 2.2, est2.value, 2.0))
    poly = MeroModel.from_rational(RationalFunction([1.0, 0.5, 0.0, 2.0]))
    samples = [characteristic(poly, r, 1024)
               for r in RadialGrid.log_spaced(1e2, 1e6, 8).radii]
    est3 = log_order_from_T(samples)
    out.append(CheckResult("orders", "cubic polynomial T-estimator",
                           0.9 <= est3.value <= 1.1, est3.value, 1.0))
    exp_inv_sol = exp_q(QParam(2.0), 72).scale_arg(0.8)
    est4 = log_order_from_nu(exp_inv_sol, grid)
    out.append(CheckResult("orders", "exp_{1/q}(az) solution nu-estimator",
                           1.8 <= est4.value <= 2.2, est4.value, 2.0))
    return out


def run_defects(seed: int = 20240501) -> list:
    """Ramification-proxy sum over targets {0, 1, -1, inf} stays below
    2.1 at the top radius."""
    rng = np.random.default_rng(seed)
    qp = QParam(0.5)
    grid = RadialGrid.log_spaced(10.0, 1e4, 8, angular_nodes=512)
    worst = -math.inf
    for _ in range(5):
        nz = int(rng.integers(1, 4))
        np_ = int(rng.integers(1, 4))
        zeros = _random_points(rng, nz, 0.3, 2.0)
        poles = _random_points(rng, np_, 0.3, 2.0)
        f = RationalFunction.from_roots(zeros, poles)
        model = MeroModel.from_rational(f, qp)
        reports = defect_estimates(model, grid, [0.0, 1.0, -1.0, INF])
        worst = max(worst, sum(r.theta_J for r in reports))
    return [_res("defects", "max sum Theta_J over 5 functions",
                 worst, 2.1)]


def run_solver_fidelity() -> list:
    """D_q f = f at q = 0.5: solver coefficients against the closed form."""
    qp = QParam(0.5)
    prob = QdeProblem.homogeneous(1, RationalFunction([-1.0]), qp, (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FormalRegimeWarning)
        f = solve_series(prob, 30)
    worst = 0.0
    for n in range(31):
        expect = (1 - qp.q) ** n / q_pochhammer(qp.q, qp, n)
        worst = max(worst, abs(f.c(n) - expect) / abs(expect))
    return [_res("solver", "exp_q coefficients relative error", worst, 1e-12)]


def run_quintic_equations(seed: int = 20240501) -> list:
    """The quintic z^5 + 1 against its first- and second-order equations
    at q in {2, 0.5}: pointwise residuals and solver recovery."""
    rng = np.random.default_rng(seed)
    out = []
    pts = [complex(rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
           for _ in range(20)]
    poly = lambda z: z**5 + 1
    for qv in (2.0, 0.5):
        qp = QParam(qv)
        num1 = np.zeros(5, dtype=complex)
        num1[4] = -(qv**5 - 1)
        den1 = np.zeros(6, dtype=complex)
        den1[0] = den1[5] = qv - 1
        A1 = RationalFunction(num1, den1)
        num2 = np.zeros(4, dtype=complex)
        num2[3] = -(qv**9 - qv**5 - qv**4 + 1)
        den2 = np.zeros(6, dtype=complex)
        den2[0] = den2[5] = (qv - 1) ** 2
        A2 = RationalFunction(num2, den2)
        p1 = QdeProblem.homogeneous(1, A1, qp, (1.0,))
        p2 = QdeProblem.homogeneous(2, A2, qp, (1.0, 0.0))
        out.append(_res("quintic", f"first-order residual q={qv}",
                        max(verify_pointwise(p1, poly, pts)), 1e-9))
        out.append(_res("quintic", f"second-order residual q={qv}",
                        max(verify_pointwise(p2, poly, pts)), 1e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FormalRegimeWarning)
            sol1 = solve_series(p1, 20)
            sol2 = solve_series(p2, 20)
        for order_tag, sol in (("first", sol1), ("second", sol2)):
            off = np.abs(np.delete(sol.coeffs, [0, 5]))
            out.append(_res("quintic", f"{order_tag}-order recovery q={qv}",
                            max(abs(sol.c(5) - 1.0), float(np.max(off))),
                            1e-12))
    return out


SUITES = {
    "identities": run_identities,
    "rules": run_operator_rules,
    "operator": run_operator_equivalence,
    "casorati": run_casorati,
    "jensen": run_jensen,
    "sft": run_sft,
    "logderiv": run_logderiv,
    "wiman": run_wiman,
    "orders": run_orders,
    "defects": run_defects,
    "solver": run_solver_fidelity,
    "quintic": run_quintic_equations,
}


def run_suite(suite_id: str, seed: int = 20240501) -> list:
    """Run one suite (or 'all') with the given seed where randomness is
    involved; a suite without a seed parameter runs without it. Unknown
    ids raise KeyError."""
    if suite_id == "all":
        out = []
        for name in SUITES:
            out.extend(run_suite(name, seed))
        return out
    fn = SUITES[suite_id]
    if "seed" in inspect.signature(fn).parameters:
        return fn(seed=seed)
    return fn()
