"""The three workloads: their inputs, their operations and their checks.

Every operation calls jacksonq through module attributes looked up at call
time (``jq.solve_series``, ``jq_cli.main``), so that the traced run can
wrap them without touching ``src/``. An operation is ``run()`` (timed)
followed by ``check(out)`` (untimed), which compares the output with the
oracles in ``oracles.py`` or with properties the paper proves. A round is
the fixed list of operations built from the workload seed; a run repeats
whole rounds, so every run attempts the same share of kept faulty inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import warnings

import numpy as np

import jacksonq as jq
import jacksonq.checks as jq_checks
import jacksonq.cli as jq_cli
import jacksonq.nevanlinna as jq_nev
from jacksonq import errors as jq_errors

import oracles

# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

# Fault classes of the kept faulty inputs (see README.md).
WINDING = "winding_unstable"  # series zero location, nevanlinna.py:289-316
NAN_COEFFS = "nan_coefficients"  # NaN coefficients inside safe_radius
BARE_OVERFLOW = "bare_overflow"  # OverflowError out of solve_series


class CheckFailed(Exception):
    """An operation returned, but its output disagrees with an oracle or a
    proven property."""


class NonFiniteInsideRadius(Exception):
    """A series evaluated inside its certified radius returned inf/NaN."""


def fault_class(exc: BaseException) -> str:
    """Name the way an operation failed."""
    if isinstance(exc, NonFiniteInsideRadius):
        return NAN_COEFFS
    if isinstance(exc, jq_errors.DomainError) and \
            "winding number did not stabilise" in str(exc):
        return WINDING
    if isinstance(exc, OverflowError):
        return BARE_OVERFLOW
    if isinstance(exc, CheckFailed):
        return "wrong_output"
    if isinstance(exc, jq_errors.JacksonQError):
        return "typed:" + type(exc).__name__
    return "exception:" + type(exc).__name__


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, (bytes, bytearray)):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Op:
    """One operation. ``fault`` names the fault class a kept faulty input
    is expected to hit, and is None for a normal input."""

    label = ""
    fault: str | None = None

    def run(self):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

VERIFY_ROWS = 53
VERIFY_SEEDS = 5
SEED_VALUED_SUITES = ("rules", "operator", "sft", "defects", "quintic")
SEED_QUANTISED_SUITES = ("jensen", "logderiv")
SFT_RADII = tuple(float(r) for r in np.logspace(1.0, 4.0, 7))
JENSEN_RADII = (2.0, 10.0, 100.0)


class VerifyOp(Op):
    """``jacksonq verify --suite all --seed <s> --out <tmp>`` in-process,
    stdout captured."""

    def __init__(self, seed: int, out_path: str):
        self.seed = seed
        self.out_path = out_path
        self.label = f"verify seed={seed}"

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = jq_cli.main(["verify", "--suite", "all", "--seed",
                              str(self.seed), "--out", self.out_path])
        with open(self.out_path, "rb") as fh:
            csv = fh.read()
        return rc, buf.getvalue(), csv

    def check(self, out) -> None:
        rc, stdout, csv = out
        _require(rc == 0, f"exit code {rc}")
        lines = stdout.splitlines()
        _require(lines[-1] == f"# {VERIFY_ROWS}/{VERIFY_ROWS} checks passed",
                 f"summary line {lines[-1]!r}")
        rows = csv_rows(csv)
        _require(len(rows) == VERIFY_ROWS, f"{len(rows)} CSV rows")
        bad = [r for r in rows if r[2] != "1"]
        _require(not bad, f"failing rows {bad[:3]}")

    def digest(self, out) -> str:
        rc, stdout, csv = out
        return _digest(rc, stdout, csv)


def csv_rows(csv: bytes) -> list:
    """(suite, name, passed, value, threshold) rows. Names are written
    unquoted and one contains a comma ("integration by parts [0,1]"), so
    the name is whatever lies between the first field and the last
    three."""
    lines = csv.decode().splitlines()
    if not lines or lines[0] != "suite,name,passed,value,threshold":
        raise CheckFailed("verify CSV header missing")
    rows = []
    for line in lines[1:]:
        suite, rest = line.split(",", 1)
        rows.append((suite, *rest.rsplit(",", 3)))
    return rows


def verify_cross_checks(ops, outputs) -> None:
    """Checks over the whole round, outside the timed section.

    A suite that fell back to its default seed would give the same rows
    for every seed. Where the rows carry seed-dependent values, two seeds
    must differ; jensen (a worst residual of a few ulps) and logderiv
    (whose rational rows are exactly 0 for every draw) repeat across
    seeds, so their verify rows must instead equal a direct call of the
    suite with that seed. Then counting_N and proximity of each seed's
    sft and jensen test sets must equal the counting sums and log+ means
    computed from the generated zero and pole lists."""
    by_suite = {}
    for op in ops:
        for row in csv_rows(outputs[op][2]):
            by_suite.setdefault((op.seed, row[0]), []).append(row)
    seeds = [op.seed for op in ops]
    for i, a in enumerate(seeds):
        for b in seeds[i + 1:]:
            for suite in SEED_VALUED_SUITES:
                _require(by_suite[(a, suite)] != by_suite[(b, suite)],
                         f"suite {suite} identical for seeds {a} and {b}")
    for seed in seeds:
        for suite in SEED_QUANTISED_SUITES:
            direct = [(r.suite, r.name, str(int(r.passed)), f"{r.value:.16e}",
                       f"{r.threshold:.16e}")
                      for r in jq_checks.SUITES[suite](seed=seed)]
            _require(by_suite[(seed, suite)] == direct,
                     f"verify rows of {suite} differ from a direct call "
                     f"with seed {seed}")
        _check_counting(seed)


def _check_counting(seed: int) -> None:
    cases = ([(f, SFT_RADII) for f in jq_checks.sft_test_set(seed)]
             + [(f, JENSEN_RADII) for f in jq_checks.jensen_test_set(seed)])
    for f, radii in cases:
        zeros, poles = f.zeros(), f.poles()
        lead = complex(f.num[-1] / f.den[-1])
        model = jq.MeroModel.from_rational(f)
        for r in radii:
            for target, pts in ((0.0, zeros), (jq.INF, poles)):
                got = jq.counting_N(model, r, target)
                want = oracles.counting_sum(pts, r)
                _require(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                         f"counting_N(r={r:g}, {target}) = {got!r}, "
                         f"lattice sum {want!r} (seed {seed})")
        for r in radii[:3]:
            got = jq.proximity(model, r, 1024)
            want = oracles.circle_log_plus_mean(
                lambda zs: oracles.rational_log_abs(
                    [z for z, m in zeros for _ in range(m)],
                    [p for p, m in poles for _ in range(m)], lead, zs),
                r, 1024)
            _require(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                     f"proximity(r={r:g}) = {got!r}, root-list mean {want!r}")


# ---------------------------------------------------------------------------
# entire_growth
# ---------------------------------------------------------------------------

GROWTH_N = 96
GROWTH_M = 512
GROWTH_GRID = jq.RadialGrid.log_spaced(1e2, 1e6, 9, angular_nodes=GROWTH_M)
GROWTH_ZERO_R = 300.0
GROWTH_JENSEN_R = 10.0


def _between_lattice(moduli, target: float) -> float:
    """Geometric midpoint of the two lattice moduli around target, so that
    no circle of that radius passes near a zero."""
    lo = max([m for m in moduli if m <= target], default=target / 2.0)
    hi = min([m for m in moduli if m > target], default=target * 2.0)
    return math.sqrt(lo * hi)


class GrowthOp(Op):
    """One entire q-function: E_q (|q| < 1) or etilde_q (|q| > 1).

    Timed: the series and product models, both log-order estimators, T(r)
    of the product model at every grid radius and one Jensen residual;
    with ``locate_zeros``, also the zero moduli of the truncated series
    inside radius ~300 by winding-number bisection."""

    def __init__(self, kind: str, q: complex, locate_zeros: bool = False,
                 fault: str | None = None):
        self.kind = kind
        self.q = complex(q)
        self.locate_zeros = locate_zeros
        self.fault = fault
        name = "etilde_q" if kind == "etilde" else "E_q"
        self.label = (f"{name} q={q:.6g}"
                      + (" +zeros" if locate_zeros else ""))
        mods = [abs(z) for z in oracles.lattice(kind, self.q, 1e7)]
        self.zero_r = _between_lattice(mods, GROWTH_ZERO_R)
        self.jensen_r = _between_lattice(mods, GROWTH_JENSEN_R)

    def run(self):
        qp = jq.QParam(self.q)
        if self.kind == "etilde":
            ser = jq.etilde_q(qp, GROWTH_N)
            prod = jq.EtildeProduct(qp)
        else:
            ser = jq.big_e_q(qp, GROWTH_N)
            prod = jq.BigEProduct(qp)
        model = jq.MeroModel.from_q_product(prod.zeros_up_to, prod.log_eval,
                                            eval_fn=prod.eval, qp=qp)
        sigma_nu = jq.log_order_from_nu(ser, GROWTH_GRID).value
        sigma_n = jq.log_order_from_counting(model, GROWTH_GRID, 0.0).value
        grid = GROWTH_GRID.avoiding(
            model.known_moduli(GROWTH_GRID.radii[-1] * 2.0))
        samples = [jq.characteristic(model, r, GROWTH_M) for r in grid.radii]
        jensen = jq.jensen_residual(model, self.jensen_r, GROWTH_M)
        zeros = (jq_nev.series_zero_moduli(ser, self.zero_r)
                 if self.locate_zeros else None)
        return {
            "sigma": (sigma_nu, sigma_n),
            "samples": [(s.r, s.m, s.N0, s.T) for s in samples],
            "jensen": jensen,
            "zeros": zeros,
        }

    def check(self, out) -> None:
        for est in out["sigma"]:
            _require(1.8 <= est <= 2.2, f"sigma_log {est:.4f} outside [1.8, 2.2]")
        lattice = oracles.lattice(self.kind, self.q, 1e8)
        prev_T = -math.inf
        for r, m, N0, T in out["samples"]:
            want_N = oracles.counting_sum(lattice, r)
            _require(abs(N0 - want_N) <= 1e-9 * max(1.0, want_N),
                     f"N({r:g},0) = {N0!r}, lattice sum {want_N!r}")
            _require(m >= 0.0, f"m({r:g}) = {m!r} < 0")
            want_m = oracles.circle_log_plus_mean(
                lambda zs: oracles.lattice_log_abs(self.kind, self.q, zs),
                r, GROWTH_M)
            _require(abs(m - want_m) <= 1e-8 * max(1.0, want_m),
                     f"m({r:g}) = {m!r}, product-form mean {want_m!r}")
            _require(T >= prev_T, f"T decreases at r = {r:g}")
            prev_T = T
        _require(out["jensen"] <= 1e-5, f"Jensen residual {out['jensen']:.3g}")
        if out["zeros"] is None:
            return
        want = sorted(abs(z) for z in lattice if abs(z) < self.zero_r)
        got = sorted(m for m, c in out["zeros"] for _ in range(c))
        _require(len(got) == len(want),
                 f"{len(got)} series zeros inside r={self.zero_r:g}, "
                 f"lattice has {len(want)}")
        for g, w in zip(got, want):
            _require(abs(g - w) <= 1e-3 * w, f"zero modulus {g!r} vs {w!r}")

    def digest(self, out) -> str:
        return _digest(out["sigma"], out["samples"], out["jensen"],
                       out["zeros"])


# ---------------------------------------------------------------------------
# series_solve
# ---------------------------------------------------------------------------

SHIFT_N = 100


class SolveOp(Op):
    """Solve D_q^k f + A f = B by solve_series, take residual(), evaluate
    inside the certified radius, then (normal inputs only) build the
    coefficient ladders and solve the argument-shifted equation."""

    def __init__(self, q, k, a_num, a_den, b_num, initial, N,
                 alphas=(), betas=(), fault: str | None = None):
        self.q = complex(q)
        self.k = k
        self.a_num, self.a_den, self.b_num = a_num, a_den, b_num
        self.initial = tuple(complex(c) for c in initial)
        self.N = N
        self.alphas, self.betas = tuple(alphas), tuple(betas)
        self.fault = fault
        self.label = (f"solve q={self.q:.6g} k={k} N={N} "
                      f"A={'poly' if len(a_den) == 1 else 'rational'}")
        self._oracle = None

    def _problem(self, qp):
        A = jq.RationalFunction(self.a_num, self.a_den)
        B = jq.RationalFunction(self.b_num)
        return A, jq.QdeProblem(self.k, A, B, qp, self.initial)

    def _points(self, radius):
        """Eight points with |q^k z| <= 0.4 * radius, and |z| <= 0.4 where
        the poles of A sit at |z| >= 2. Without a certified radius the
        points stay at |z| <= 0.4, well inside the true disc of
        convergence of every equation built here."""
        radius = 1.0 if radius is None else min(1.0, radius)
        r = 0.4 * radius / max(1.0, abs(self.q)) ** self.k
        return r * np.exp(2j * np.pi * (np.arange(8) + 0.31) / 8)

    def run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            qp = jq.QParam(self.q)
            A, prob = self._problem(qp)
            f = jq.solve_series(prob, self.N)
            _, res_max = jq.residual(prob, f)
            R = f.safe_radius
            vals = f.eval(self._points(R))
            if not (np.all(np.isfinite(vals)) and math.isfinite(res_max)):
                raise NonFiniteInsideRadius(
                    f"non-finite value inside safe_radius {R}")
            out = {"f": f.coeffs, "R": R, "res_max": res_max, "vals": vals}
            if self.fault is None:
                s, c = jq.sinq_cosq(qp, self.N)
                out["ladders"] = {
                    "exp_q": jq.exp_q(qp, self.N).coeffs,
                    "etilde_q": jq.etilde_q(qp, self.N).coeffs,
                    "big_e_q": jq.big_e_q(qp, self.N).coeffs,
                    "phi_rs": jq.phi_rs(jq.PhiParams(self.alphas, self.betas,
                                                     qp), self.N).coeffs,
                    "sin_q": s.coeffs,
                    "cos_q": c.coeffs,
                }
                out["shifted"] = jq.solve_shifted_series(
                    self.k, A, qp, self.initial, SHIFT_N).coeffs
            return out

    def check(self, out) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._check(out)

    def _check(self, out) -> None:
        qp = jq.QParam(self.q)
        A, prob = self._problem(qp)
        c = out["f"]
        _require(np.all(np.isfinite(c)), "non-finite solution coefficients")
        _require(out["res_max"] <= 1e-8 * self._scale(c),
                 f"residual series {out['res_max']:.3g}")
        pointwise = jq.verify_pointwise(prob, jq.series_sampler(
            jq.TruncatedSeries(c)), self._points(out["R"]))
        _require(max(pointwise) <= 1e-8, f"pointwise residual {max(pointwise):.3g}")
        if self.fault is not None:
            return
        if self._oracle is None:
            self._oracle = oracles.series_coefficients(
                self.q, self.N, self.alphas, self.betas)
        for name, ref in self._oracle.items():
            err = oracles.max_rel_error(out["ladders"][name], ref)
            _require(err <= 1e-9, f"{name} vs mpmath: relative error {err:.3g}")
        et = out["ladders"]["etilde_q"]
        bigE_neg = out["ladders"]["big_e_q"] * (-1.0) ** np.arange(et.size)
        prod = np.convolve(et, bigE_neg)[: et.size]
        prod[0] -= 1.0
        scale = np.convolve(np.abs(et), np.abs(bigE_neg))[: et.size]
        _require(np.all(np.abs(prod) <= 1e-10 * np.maximum(scale, 1.0)),
                 "etilde_q(z) * E_q(-z) != 1")
        qp_plain, A_plain = jq.shifted_to_plain(self.k, A, qp)
        plain = jq.solve_series(jq.QdeProblem.homogeneous(
            self.k, A_plain, qp_plain, self.initial), SHIFT_N).coeffs
        sh = out["shifted"]
        # normwise: the two routes round differently, and the smallest
        # coefficients come out of cancellation in either route
        err = float(np.max(np.abs(sh - plain)))
        _require(err <= 1e-9 * float(np.max(np.abs(plain))),
                 f"solve_shifted_series vs shifted_to_plain + solve_series: "
                 f"max difference {err:.3g}")

    def _scale(self, c: np.ndarray) -> float:
        """Largest coefficient of D_q^k f, from the brackets [m]_q computed
        here, in logs so that no product overflows."""
        q, k = self.q, self.k
        m = np.arange(c.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_br = np.log(np.abs((q ** m - 1.0) / (q - 1.0)))
            logs = np.log(np.abs(c[k:]))
            for j in range(1, k + 1):
                logs = logs + log_br[j: j + logs.size]
        return max(1.0, math.exp(min(700.0, float(np.nanmax(logs)))))

    def digest(self, out) -> str:
        parts = [out["f"], out["R"], out["res_max"], out["vals"]]
        for key in sorted(out.get("ladders", {})):
            parts.append(out["ladders"][key])
        if "shifted" in out:
            parts.append(out["shifted"])
        return _digest(*parts)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _stratum(rng, lo: float, hi: float, i: int, n: int) -> float:
    """Draw from the i-th of n equal slices of [lo, hi], so that every
    round covers the range evenly whatever the seed."""
    w = (hi - lo) / n
    return float(lo + w * (i + rng.uniform()))


def build_verify(seed: int, out_dir: str) -> list:
    """VERIFY_SEEDS verify seeds drawn from the workload seed. The cost of
    one verify run moves by about +-15% with its seed (the degrees of the
    sft and defects test functions), so a round takes five of them.

    The operator suite's triple-equivalence row misses its 1e-9 tolerance
    on about 4% of seeds (1.42e-9 at seed 1809597393), so a run whose
    draw hit one would fail on some workload seeds only. Such a verify
    seed is left out and the next one drawn; the operator suite runs here
    once per candidate, as part of building the inputs."""
    rng = _rng(seed, "verify_all")
    seeds = []
    while len(seeds) < VERIFY_SEEDS:
        s = int(rng.integers(1, 2**31 - 1))
        if s not in seeds and all(
                r.passed for r in jq_checks.SUITES["operator"](seed=s)):
            seeds.append(s)
    return [VerifyOp(s, os.path.join(out_dir, f"verify_{s}.csv"))
            for s in seeds]


def build_growth(seed: int) -> list:
    """Four seeded real-q functions, then four fixed ones that also locate
    the zeros of the truncated series.

    Zero location stays off the seeded inputs: it fails for some real q
    as well (winding bisection lands next to a zero), so on seeded inputs
    the failed count would depend on the seed."""
    rng = _rng(seed, "entire_growth")
    return [
        GrowthOp("etilde", _stratum(rng, 1.9, 2.2, 0, 2)),
        GrowthOp("etilde", -_stratum(rng, 1.9, 2.2, 1, 2)),
        GrowthOp("bigE", _stratum(rng, 0.45, 0.52, 0, 2)),
        GrowthOp("bigE", -_stratum(rng, 0.45, 0.52, 1, 2)),
        GrowthOp("etilde", 2.0, locate_zeros=True),
        GrowthOp("bigE", 0.5, locate_zeros=True),
        # Kept faulty inputs: every complex-q series zero location fails.
        GrowthOp("etilde", 2.1 * np.exp(0.6j), locate_zeros=True,
                 fault=WINDING),
        GrowthOp("bigE", 0.48 * np.exp(0.9j), locate_zeros=True,
                 fault=WINDING),
    ]


def _poly(rng, deg: int, total: float) -> list:
    """deg+1 complex coefficients whose moduli sum to ``total``."""
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return list(c * (total / np.sum(np.abs(c))))


def _q_inside(rng, i: int, n: int) -> complex:
    """|q| < 1 with |1 - q| in [0.3, 0.7], which keeps the |q| < 1
    solutions and ladders decaying at every N used here."""
    rho = _stratum(rng, 0.3, 0.7, i, n)
    return 1.0 - rho * np.exp(1j * rng.uniform(-1.0, 1.0))


def _solve_op(rng, q, N, k, a_deg, rational, inhomogeneous) -> SolveOp:
    """One seeded equation of a fixed shape: order k, A a polynomial of
    degree a_deg or a_deg-over-1 rational with its pole at |z| >= 2.
    Only continuous values come from the seed, so the cost of a slot
    hardly moves with the seed."""
    if rational:
        a_num = _poly(rng, a_deg, 0.3)
        d = rng.uniform(0.2, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a_den = [1.0, -d]
    else:
        a_num, a_den = _poly(rng, a_deg, 0.6), [1.0]
    b_num = _poly(rng, 1, 0.5) if inhomogeneous else [0.0]
    initial = _poly(rng, k - 1, 1.0)
    # |alpha q^j| and |beta q^j| keep a factor |q|^(1/2) away from 1, so
    # the factors 1 - alpha q^j of the phi_rs ladder are well conditioned.
    qa = abs(q)
    mod_a, mod_b = (qa ** -0.5, qa ** -1.5) if qa > 1.0 else (0.3, 0.6)
    alphas = (mod_a * np.exp(1j * rng.uniform(0, 2 * np.pi)),)
    betas = (mod_b * np.exp(1j * rng.uniform(0, 2 * np.pi)),)
    return SolveOp(q, k, a_num, a_den, b_num, initial, N, alphas, betas)


def _arg(rng) -> float:
    return float(rng.uniform(0.2, 2.9) * rng.choice([-1.0, 1.0]))


def build_solve(seed: int) -> list:
    """Six N = 200 equations, two N = 2000 equations and two fixed faulty
    ones per round."""
    rng = _rng(seed, "series_solve")
    ops = [
        # (q, N, k, deg A, rational A, inhomogeneous)
        _solve_op(rng, _stratum(rng, 1.2, 2.5, 0, 1), 200, 1, 1, False, False),
        _solve_op(rng, _stratum(rng, 1.2, 2.5, 0, 1) * np.exp(1j * _arg(rng)),
                  200, 2, 1, True, False),
        _solve_op(rng, -_stratum(rng, 1.2, 2.5, 0, 1), 200, 3, 2, False, True),
        _solve_op(rng, _stratum(rng, 0.3, 0.8, 0, 1), 200, 2, 0, False, True),
        _solve_op(rng, _q_inside(rng, 0, 2), 200, 3, 1, True, False),
        _solve_op(rng, _q_inside(rng, 1, 2), 200, 1, 1, False, True),
        # N = 2000 with |q| > 1 only while prod_j [n+j]_q stays finite:
        # |q|^(3N) < 1e300 for every k <= 3.
        _solve_op(rng, _stratum(rng, 1.03, 1.1, 0, 1), 2000, 2, 1, True, True),
        _solve_op(rng, _q_inside(rng, 0, 1), 2000, 1, 1, False, False),
    ]
    # Kept faulty inputs, independent of the seed.
    ops += [
        # q = 2, N = 2000: [n]_q overflows to inf+0j from n ~ 997 and the
        # coefficients turn NaN while safe_radius stays ~2e13.
        SolveOp(2.0, 1, [-1.0], [1.0], [0.0], (1.0,), 2000, fault=NAN_COEFFS),
        # complex q near 1.9, k = 2, N = 800: abs(denom) raises a bare
        # OverflowError inside solve_series.
        SolveOp(1.9 * np.exp(0.85j), 2, [-1.0], [1.0], [0.0], (1.0, 0.0),
                800, fault=BARE_OVERFLOW),
    ]
    return ops


WORKLOADS = ("verify_all", "entire_growth", "series_solve")


def build(workload: str, seed: int, out_dir: str) -> list:
    if workload == "verify_all":
        return build_verify(seed, out_dir)
    if workload == "entire_growth":
        return build_growth(seed)
    if workload == "series_solve":
        return build_solve(seed)
    raise ValueError(f"unknown workload {workload!r}")


def cross_checks(workload: str, ops, outputs) -> None:
    """Checks that need the outputs of the whole round."""
    if workload == "verify_all":
        verify_cross_checks(ops, outputs)
