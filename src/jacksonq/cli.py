"""Command-line front end.

Subcommands:

    eval    evaluate a q-special function at points (series or product route)
    solve   solve a Jackson q-difference equation from a problem JSON file
    order   estimate the logarithmic order of a named model over a radius grid
    verify  run a named identity/theorem check suite

Complex numbers are written "re+imi" on the command line ("2", "0.5i",
"1+0.5i") and as [re, im] pairs in JSON files. Exit codes: 0 success,
1 check failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import warnings

import numpy as np

from .checks import SUITES, run_suite
from .errors import (
    DomainError,
    JacksonQError,
    RegimeMismatch,
    SchemaError,
    TruncationTooShort,
)
from .nevanlinna import (
    MeroModel,
    RadialGrid,
    characteristic,
    log_order_from_T,
    log_order_from_counting,
    log_order_from_nu,
    samples_to_csv,
)
from .qcore import QParam, TruncatedSeries
from .qode import QdeProblem, RationalFunction, residual, solve_series
from .qspecial import (
    BigEProduct,
    EtildeProduct,
    big_e_q,
    etilde_q,
    exp_q,
    phi_rs,
    PhiParams,
    sinq_cosq,
)

_EVAL_FNS = ("exp_q", "etilde_q", "E_q", "sin_q", "cos_q", "phi_rs")
_ORDER_MODELS = ("etilde_q", "E_q", "exp_q", "polynomial")
# the functions with a product form; each class raises RegimeMismatch on
# the side of |q| = 1 where its product does not converge
_PRODUCTS = {"etilde_q": EtildeProduct, "E_q": BigEProduct}


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse 're+imi' literals: '2', '-0.5', 'i', '-1.5i', '1+0.5i',
    '1e-3-2e2i'."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise SchemaError("empty complex literal")
    if s[-1] in "iIjJ":
        body = s[:-1]
        split = None
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                split = pos
                break
        if split is None:
            re_s, im_s = "", body
        else:
            re_s, im_s = body[:split], body[split:]
        try:
            if im_s in ("", "+"):
                im = 1.0
            elif im_s == "-":
                im = -1.0
            else:
                im = float(im_s)
            re = float(re_s) if re_s else 0.0
        except ValueError as e:
            raise SchemaError(f"bad complex literal {text!r}") from e
        return complex(re, im)
    try:
        return complex(float(s), 0.0)
    except ValueError as e:
        raise SchemaError(f"bad complex literal {text!r}") from e


def format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _json_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v, 0.0)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise SchemaError(f"{where}: expected number or [re, im], got {v!r}")


def _json_complex_list(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{where}: expected a nonempty list")
    return [_json_complex(x, f"{where}[{i}]") for i, x in enumerate(v)]


def parse_grid(text: str) -> tuple:
    """'rmin:rmax:points' -> (rmin, rmax, points)."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise SchemaError("grid must be rmin:rmax:points")
    try:
        rmin, rmax, pts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise SchemaError(f"bad grid spec {text!r}") from e
    if pts < 4:
        raise SchemaError("grid needs at least 4 points")
    if not (0 < rmin < rmax):
        raise SchemaError("grid needs 0 < rmin < rmax")
    return rmin, rmax, pts


def _emit(args, csv_text: str, json_obj) -> None:
    if args.out is None:
        return
    with open(args.out, "w") as fh:
        if args.fmt == "csv":
            fh.write(csv_text)
        else:
            json.dump(json_obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _parse_list(text: str) -> list:
    return [parse_complex(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_series(name: str, qp: QParam, N: int, alphas, betas) -> TruncatedSeries:
    if name == "exp_q":
        return exp_q(qp, N)
    if name == "etilde_q":
        return etilde_q(qp, N)
    if name == "E_q":
        return big_e_q(qp, N)
    if name == "sin_q":
        return sinq_cosq(qp, N)[0]
    if name == "cos_q":
        return sinq_cosq(qp, N)[1]
    # phi_rs, the one id left once argparse has checked --fn
    return phi_rs(PhiParams(tuple(alphas), tuple(betas), qp), N)


def cmd_eval(args) -> int:
    if args.tol <= 0:
        raise SchemaError("tolerance must be positive")
    name, route, q = args.fn, args.route, parse_complex(args.q)
    zs = [parse_complex(z) for z in (args.z or ["0"])]
    alphas, betas = _parse_list(args.alpha), _parse_list(args.beta)
    qp = QParam(q)
    series = _eval_series(name, qp, args.N, alphas, betas)
    try:
        if name not in _PRODUCTS:
            raise RegimeMismatch(f"{name} has no product form")
        product = _PRODUCTS[name](qp, args.tol)
    except RegimeMismatch:
        if route == "product":
            raise
        product = None
    radius = series.safe_radius
    rows = []
    for z in zs:
        used = route
        if route == "auto":
            # the radius test TruncatedSeries.eval applies: past it the
            # series raises OutsideSafeRadius, and with no radius its
            # error bound is reported NaN; np.abs reads |z| past double
            # range as inf, where abs raises OverflowError
            inside = (radius is not None
                      and np.abs(z) <= radius * (1 + 1e-12))
            used = "series" if inside or product is None else "product"
        # an overflow is refused below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            if used == "series":
                val = series.eval(z)
                err = series.tail_tol if radius is not None else math.nan
            else:
                val = product.eval(z)
                err = 2.0 * args.tol * abs(val)
        if not cmath.isfinite(val):
            where = f"{name} at z = {format_complex(z)}"
            if used == "product":
                log_abs = float(product.log_abs(np.array([z]))[0])
                raise DomainError(f"{where} leaves double range "
                                  f"(log|f| = {log_abs:.17g})")
            raise DomainError(f"{where} is not a finite number")
        rows.append((z, val, err))
    print(f"# {name} at q = {format_complex(q)} (N = {args.N})")
    for z, val, err in rows:
        print(f"z = {format_complex(z):>24s}  ->  {format_complex(val)}"
              f"   (err <= {err:.3g})")
    csv_text = "z_re,z_im,value_re,value_im,err_bound\n" + "".join(
        f"{z.real:.16e},{z.imag:.16e},{v.real:.16e},{v.imag:.16e},{e:.16e}\n"
        for z, v, e in rows)
    json_obj = {
        "function": name,
        "q": [q.real, q.imag],
        "N": args.N,
        "values": [
            {"z": [z.real, z.imag], "value": [v.real, v.imag], "err_bound": e}
            for z, v, e in rows
        ],
    }
    _emit(args, csv_text, json_obj)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def load_problem(path: str):
    """Problem JSON: {"k": int, "q": num|[re,im], "A": {"num": [...],
    "den": [...]}, "B": {...} (optional), "initial": [...], "N": int}."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read problem file: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise SchemaError("problem file must hold a JSON object")

    def rational(key: str, default_zero: bool) -> RationalFunction:
        if key not in data:
            if default_zero:
                return RationalFunction([0.0])
            raise SchemaError(f"missing field {key!r}")
        v = data[key]
        if not isinstance(v, dict) or "num" not in v:
            raise SchemaError(f"{key}: expected {{'num': [...], 'den': [...]}}")
        num = _json_complex_list(v["num"], f"{key}.num")
        den = _json_complex_list(v.get("den", [1.0]), f"{key}.den")
        return RationalFunction(num, den)

    for field_name in ("k", "q", "A", "initial"):
        if field_name not in data:
            raise SchemaError(f"missing field {field_name!r}")
    k = data["k"]
    if not isinstance(k, int) or k < 1:
        raise SchemaError("k must be an integer >= 1")
    q = _json_complex(data["q"], "q")
    A = rational("A", default_zero=False)
    B = rational("B", default_zero=True)
    initial = _json_complex_list(data["initial"], "initial")
    if len(initial) != k:
        raise SchemaError(f"initial must list exactly k = {k} coefficients")
    N = data.get("N", 32)
    if not isinstance(N, int) or N < k:
        raise SchemaError("N must be an integer >= k")
    try:
        prob = QdeProblem(k, A, B, QParam(q), tuple(initial))
    except JacksonQError as e:
        raise SchemaError(f"invalid problem: {e}") from e
    return prob, N


def cmd_solve(args) -> int:
    prob, N = load_problem(args.problem)
    if args.N is not None:
        N = args.N
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = solve_series(prob, N)
    for w in caught:
        print(f"# warning: {w.message}")
    _, max_abs = residual(prob, f)
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    ok = max_abs <= 1e-8 * scale
    print(f"# solved k={prob.k}, q={format_complex(prob.qp.q)}, N={N}")
    print(f"# residual max |coeff| = {max_abs:.3e} (scale {scale:.3e})")
    shown = min(N, 10)
    for n in range(shown + 1):
        print(f"c[{n:3d}] = {format_complex(f.c(n))}")
    if N > shown:
        print(f"# ... {N - shown} more (see --out)")
    csv_text = "n,c_re,c_im\n" + "".join(
        f"{n},{f.c(n).real:.16e},{f.c(n).imag:.16e}\n" for n in range(N + 1))
    json_obj = {
        "k": prob.k,
        "q": [prob.qp.q.real, prob.qp.q.imag],
        "N": N,
        "residual_max": max_abs,
        "coefficients": [[f.c(n).real, f.c(n).imag] for n in range(N + 1)],
    }
    _emit(args, csv_text, json_obj)
    if not ok:
        print(f"# FAIL residual exceeds 1e-8 * scale", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def _order_models(name: str, qp: QParam, N: int, coeffs):
    """(estimator list, series or None, sweepable model or None)."""
    if name == "etilde_q":
        if abs(qp.q) <= 1.0:
            raise RegimeMismatch("etilde_q is entire only for |q| > 1")
        model = MeroModel.from_product(_PRODUCTS[name](qp))
        return ["nu", "counting"], etilde_q(qp, N), model
    if name == "E_q":
        if abs(qp.q) >= 1.0:
            raise RegimeMismatch("E_q is entire only for |q| < 1")
        model = MeroModel.from_product(_PRODUCTS[name](qp))
        return ["counting", "nu"], big_e_q(qp, N), model
    if name == "exp_q":
        if abs(qp.q) <= 1.0:
            raise RegimeMismatch("exp_q is entire only for |q| > 1")
        return ["nu"], exp_q(qp, N), None
    # polynomial, the one id left once argparse has checked --model
    if coeffs is None:
        raise SchemaError("polynomial model needs --coeffs")
    rf = RationalFunction(coeffs)
    if rf.num_degree < 1:
        raise SchemaError("polynomial must be nonconstant")
    return ["T"], None, MeroModel.from_rational(rf)


def cmd_order(args) -> int:
    name, estimator = args.model, args.estimator
    q, grid_spec = parse_complex(args.q), parse_grid(args.grid)
    coeffs = _parse_list(args.coeffs) if args.coeffs else None
    qp = QParam(q)
    auto, series, model = _order_models(name, qp, args.N, coeffs)
    wanted = auto if estimator == "auto" else [estimator]
    grid = RadialGrid.log_spaced(*grid_spec, angular_nodes=args.nodes)

    def sweep():
        return [characteristic(model, r, args.nodes)
                for r in grid.avoiding(
                    model.known_moduli(grid.radii[-1] * 2)).radii]

    estimates = []
    samples = []
    refusals = []
    for est_name in wanted:
        try:
            if est_name == "nu":
                if series is None:
                    raise SchemaError(f"{name} has no series route")
                est = log_order_from_nu(series, grid)
            elif est_name == "counting":
                if "counting" not in auto:  # only the products carry a lattice
                    raise SchemaError(f"{name} has no zero lattice")
                est = log_order_from_counting(model, grid, target=0.0)
            else:  # "T"
                if model is None:
                    raise SchemaError(f"{name} has no sweepable model")
                samples = sweep()
                est = log_order_from_T(samples)
        except TruncationTooShort as e:
            # the series is too short for this grid; auto keeps the rest
            refusals.append(f"{est_name}: TruncationTooShort: {e}")
            continue
        estimates.append(est)
    if refusals and (estimator != "auto" or not estimates):
        for line in refusals:
            print(f"error: {line}", file=sys.stderr)
        return 1
    for line in refusals:
        print(f"# skipped estimator {line}", file=sys.stderr)
    print(f"# logarithmic order of {name} at q = {format_complex(q)}")
    for est in estimates:
        print(f"sigma_log[{est.estimator:>8s}] = {est.value:.4f} "
              f"+- {est.half_width:.4f}")
    if args.out and args.fmt == "csv" and not samples and model is not None:
        samples = sweep()
    csv_text = samples_to_csv(samples) if samples else (
        "estimator,sigma_log,half_width\n" + "".join(
            f"{e.estimator},{e.value:.16e},{e.half_width:.16e}\n"
            for e in estimates))
    json_obj = {
        "model": name,
        "q": [q.real, q.imag],
        "grid": list(grid_spec),
        "estimates": [
            {"estimator": e.estimator, "sigma_log": e.value,
             "half_width": e.half_width} for e in estimates
        ],
        "samples": [
            {"r": s.r, "m": s.m, "N_0": s.N0, "N_inf": s.Ninf, "T": s.T,
             "nJ_0": s.nJ0, "nJ_inf": s.nJinf, "quad_err": s.quad_err}
            for s in samples
        ],
    }
    _emit(args, csv_text, json_obj)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    rows = run_suite(args.suite, seed=args.seed)
    for row in rows:
        print(row.line())
    failures = [r for r in rows if not r.passed]
    print(f"# {len(rows) - len(failures)}/{len(rows)} checks passed")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("suite", "name", "passed", "value", "threshold"))
    writer.writerows(
        (r.suite, r.name, int(r.passed), f"{r.value:.16e}",
         f"{r.threshold:.16e}") for r in rows)
    csv_text = buf.getvalue()
    json_obj = [
        {"suite": r.suite, "name": r.name, "passed": r.passed,
         "value": r.value, "threshold": r.threshold} for r in rows
    ]
    _emit(args, csv_text, json_obj)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


# option -> argparse settings; each command names the ones it reads, so
# a flag it would ignore is a usage error
_OPTIONS = {
    "--q": dict(default="0.5", help="base q as re+imi (default 0.5)"),
    "--N": dict(type=int, default=48, help="truncation order (default 48)"),
    "--grid": dict(default="1e2:1e6:9", help="rmin:rmax:points (log-spaced)"),
    "--nodes": dict(type=int, default=512, help="angular quadrature nodes"),
    "--tol": dict(type=float, default=1e-12),
    "--seed": dict(type=int, default=20240501),
    "--out": dict(default=None, help="artifact path"),
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jacksonq",
        description="Jackson q-difference calculus and Nevanlinna toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, options, **kw):
        sp = sub.add_parser(name, **kw)
        for flag in options:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(run=run)
        return sp

    pe = command("eval", cmd_eval,
                 ("--q", "--N", "--tol", "--out", "--format"),
                 help="evaluate a q-special function")
    pe.add_argument("--fn", required=True, choices=_EVAL_FNS)
    pe.add_argument("--z", action="append", default=None,
                    help="evaluation point re+imi (repeatable)")
    pe.add_argument("--route", choices=("auto", "series", "product"),
                    default="auto")
    pe.add_argument("--alpha", default="", help="phi_rs upper params, comma-sep")
    pe.add_argument("--beta", default="", help="phi_rs lower params, comma-sep")

    ps = command("solve", cmd_solve, ("--out", "--format"),
                 help="solve D_q^k f + A f = B from JSON")
    ps.add_argument("--N", type=int, default=None,
                    help="truncation order (default: the problem file's N)")
    ps.add_argument("--problem", required=True, help="problem JSON path")

    po = command("order", cmd_order,
                 ("--q", "--N", "--grid", "--nodes", "--out", "--format"),
                 help="logarithmic order estimation")
    po.add_argument("--model", required=True, choices=_ORDER_MODELS)
    po.add_argument("--estimator", choices=("auto", "nu", "counting", "T"),
                    default="auto")
    po.add_argument("--coeffs", default=None,
                    help="polynomial coefficients, comma-separated re+imi")

    pv = command("verify", cmd_verify, ("--seed", "--out", "--format"),
                 help="run a check suite")
    pv.add_argument("--suite", required=True, choices=[*sorted(SUITES), "all"])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except (SchemaError, RegimeMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except JacksonQError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
