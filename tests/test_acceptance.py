"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria with stated runtime budgets assert wall time too.
"""

import cmath
import json
import math
import time

import numpy as np

from jacksonq.checks import (
    CheckResult,
    run_casorati,
    run_defects,
    run_quintic_equations,
    run_identities,
    run_jensen,
    run_logderiv,
    run_operator_equivalence,
    run_sft,
    run_solver_fidelity,
    run_wiman,
)
from jacksonq.cli import main
from jacksonq.nevanlinna import series_zero_moduli
from jacksonq.qcore import QParam
from jacksonq.qode import (
    QdeProblem,
    RationalFunction,
    shifted_to_plain,
    solve_series,
    solve_shifted_series,
)
from jacksonq.qspecial import BigEProduct, EtildeProduct, big_e_q, etilde_q

SEED = 20240501


def report(criterion: str, rows, elapsed: float, budget=None) -> None:
    ok = all(r.passed for r in rows)
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    extra = f" ({elapsed:.2f}s < {budget:.0f}s)" if budget else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {criterion}: {status}{extra}")
    for r in rows:
        if not r.passed:
            print("  " + r.line())
    assert ok, f"{criterion}: " + "; ".join(r.line() for r in rows if not r.passed)
    assert within, f"{criterion}: runtime {elapsed:.2f}s over budget {budget}s"


def test_01_solver_fidelity():
    t = time.time()
    rows = run_solver_fidelity()
    report("01 solver-fidelity (D_q f = f, q=0.5, N=30, rel < 1e-12)",
           rows, time.time() - t, budget=1.0)


def test_02_quintic_exactness():
    t = time.time()
    rows = run_quintic_equations(seed=SEED)
    report("02 quintic-equation exactness (residual < 1e-9, recovery < 1e-12)",
           rows, time.time() - t, budget=1.0)


def test_03_identity_suite():
    t = time.time()
    rows = run_identities()
    report("03 identity suite (residuals < 1e-9, q in {2, 0.5, 1+0.5i})",
           rows, time.time() - t, budget=1.0)


def test_04_operator_equivalence():
    t = time.time()
    rows = run_operator_equivalence(seed=SEED)
    report("04 operator equivalence (100 polys, deg<=12, k<=5, rel < 1e-9)",
           rows, time.time() - t, budget=5.0)


def test_05_logarithmic_order_two(tmp_path):
    t = time.time()
    results = {}
    for name, model, q, window in (
            ("etilde", "etilde_q", "2", (1.8, 2.2)),
            ("bigE", "E_q", "0.5", (1.8, 2.2)),
            ("poly", "polynomial", "0.5", (0.9, 1.1))):
        out = tmp_path / f"{name}.json"
        argv = ["order", "--model", model, "--q", q,
                "--grid", "1e2:1e6:9", "--N", "72",
                "--out", str(out), "--format", "json"]
        if model == "polynomial":
            argv += ["--coeffs", "1,0,0,2", "--nodes", "256"]
        code = main(argv)
        assert code == 0
        data = json.loads(out.read_text())
        val = data["estimates"][0]["sigma_log"]
        results[name] = (val, window)
    elapsed = time.time() - t
    ok = all(lo <= v <= hi for v, (lo, hi) in results.values())
    status = "PASS" if ok and elapsed < 10.0 else "FAIL"
    detail = ", ".join(f"{k}={v:.3f}" for k, (v, _) in results.items())
    print(f"ACCEPTANCE 05 logarithmic-order windows: {status} "
          f"({detail}; {elapsed:.2f}s < 10s)")
    assert ok, results
    assert elapsed < 10.0


def test_06_jensen_residual():
    t = time.time()
    rows = run_jensen(seed=SEED)
    report("06 Jensen residual (20 rationals, r in {2,10,100}, M=4096, < 1e-6)",
           rows, time.time() - t, budget=10.0)


def test_07_sft_margin():
    t = time.time()
    rows = run_sft(seed=SEED)
    report("07 second-fundamental-theorem margin (>= -10; margin/T > -0.05)",
           rows, time.time() - t)


def test_08_casorati_non_kernel():
    t = time.time()
    rows = run_casorati()
    report("08 Casorati outside Ker(D_q) + first-order relation (< 1e-8)",
           rows, time.time() - t, budget=1.0)


def test_09_wiman_valiron_trend():
    t = time.time()
    rows = run_wiman()
    report("09 Wiman-Valiron deviation trend (monotone top-3, final < 0.3)",
           rows, time.time() - t)


def test_10_logderiv_ratio():
    t = time.time()
    rows = run_logderiv(seed=SEED)
    report("10 logarithmic difference ratio (m/T < 0.2 at r = 1e4)",
           rows, time.time() - t, budget=1.0)


def test_11_defect_relation_proxy():
    t = time.time()
    rows = run_defects(seed=SEED)
    report("11 defect relation proxy (sum Theta_J <= 2.1 at top radius)",
           rows, time.time() - t)


def test_12_complex_q_zero_location():
    t = time.time()
    rows = []
    for name, q, ladder, product in (
            ("etilde_q", 2.1 * cmath.exp(0.6j), etilde_q, EtildeProduct),
            ("E_q", 0.48 * cmath.exp(0.9j), big_e_q, BigEProduct)):
        qp = QParam(q)
        lattice = sorted(abs(z) for z, _ in product(qp).zeros_up_to(1e4))
        lo = max(m for m in lattice if m <= 300.0)
        r = math.sqrt(lo * min(m for m in lattice if m > 300.0))
        got = [m for m, c in series_zero_moduli(ladder(qp, 96), r)
               for _ in range(c)]
        want = [m for m in lattice if m < r]
        err = (max(abs(g / w - 1.0) for g, w in zip(got, want))
               if len(got) == len(want) else math.inf)
        rows.append(CheckResult("zeros", f"{name} q={q:.4g} r={r:.4g}",
                                err <= 1e-9, err, 1e-9))
    report("12 complex-q series zero location (lattice moduli, rel < 1e-9)",
           rows, time.time() - t, budget=1.0)


def test_13_shifted_solver():
    A = RationalFunction([0.7, -0.2], [1.0, 0.3])
    qp, init, N = QParam(1.07), (1.0, 0.5), 2000
    t = time.time()
    f = solve_shifted_series(2, A, qp, init, N)
    elapsed = time.time() - t
    # at |q| > 1 the substitution route stays in range: a second route
    qp_plain, A_plain = shifted_to_plain(2, A, qp)
    g = solve_series(QdeProblem.homogeneous(2, A_plain, qp_plain, init), N)
    err = float(np.max(np.abs(f.coeffs - g.coeffs))
                / np.max(np.abs(g.coeffs)))
    rows = [CheckResult("shifted", f"q=1.07 k=2 N={N} vs substitution",
                        err <= 1e-10, err, 1e-10)]
    report("13 shifted solver (q=1.07, k=2, N=2000, rel < 1e-10)",
           rows, elapsed, budget=1.0)
