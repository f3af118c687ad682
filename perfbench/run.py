"""Benchmark of jacksonq: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
workload seed builds a fixed round of operations (see workloads.py); the
run repeats whole rounds for about --seconds, timing every operation and
checking every output. Each wall time is multiplied by the reference
kernel's nominal time over its time measured around the operation
(kernel.py), so the figures are host-normalised; raw figures are printed
beside them on the ``# detail`` line.

With --trace 0 the last line carries the end-to-end metrics. With
--trace 1 the run spends half its time untraced and half with every layer
wrapped (tracing.py), and the last line carries the per-layer metrics per
operation plus the tracing overhead.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS/OpenMP thread, set before NumPy loads: the benchmark measures
# the program on one core, not the thread scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_PROBES = 9


def per_layer_units() -> dict:
    import tracing

    units = {}
    for name in tracing.metric_names():
        units[name] = {"calls": "calls/op", "points": "points/op",
                       "self_ms": "ms/op"}[name.rsplit(".", 1)[1]]
    units["trace.overhead_pct"] = "%"
    return units


def import_program():
    """Import jacksonq from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "jacksonq" / "__init__.py").is_file():
        print(f"error: no jacksonq package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import jacksonq

    if Path(jacksonq.__file__).resolve().parent != SRC / "jacksonq":
        print(f"error: imported jacksonq from {jacksonq.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Timed rounds
# ---------------------------------------------------------------------------


class Runner:
    """Runs whole rounds of one workload and keeps every timing and
    outcome."""

    def __init__(self, workload, ops, wl):
        from kernel import KernelClock

        self.workload = workload
        self.ops = ops
        self.wl = wl
        self.clock = KernelClock()
        self.first = {}  # op index -> (digest or None, fault class or None)
        self.first_outputs = {}
        self.records = []  # dicts: wall, scale, klass, outcome
        self.errors = []  # reasons the run is not correct

    def _gap(self) -> list:
        gc.collect()
        return self.clock.sample()

    def round(self, tracer=None) -> None:
        results = []
        before = self._gap()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin()
            exc = out = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # the operation's failure is measured
                exc = e
            wall = time.perf_counter() - t0
            after = self._gap()
            scale = self.clock.scale(before + after)
            if tracer is not None:
                tracer.end(scale)
            before = after
            results.append((i, op, out, exc, wall, scale))
        for i, op, out, exc, wall, scale in results:
            klass = self._judge(i, op, out, exc)
            self.records.append({"wall": wall, "scale": scale, "klass": klass,
                                 "outcome": self._outcome(op, klass)})

    def _judge(self, i, op, out, exc):
        """Fault class of this execution (None when it passed). The first
        execution of an operation is checked in full; every later one must
        repeat its output and its fault class exactly."""
        digest = None
        if exc is None:
            digest = op.digest(out)
            if i not in self.first:
                self.first_outputs[i] = out
                try:
                    op.check(out)
                except Exception as e:  # any check error is a wrong output
                    exc = e
        klass = None if exc is None else self.wl.fault_class(exc)
        if exc is not None and self._outcome(op, klass) == "unexpected":
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        if i not in self.first:
            self.first[i] = (digest, klass)
        elif self.first[i] != (digest, klass):
            self.errors.append(f"{op.label}: output differs from its first "
                               f"execution ({self.first[i][1]} -> {klass})")
        return klass

    @staticmethod
    def _outcome(op, klass) -> str:
        if klass is None:
            return "ok"
        if klass == op.fault:
            return "expected"
        if op.fault is not None and klass.startswith("typed:"):
            return "refused"  # a loud typed error where the fault was silent
        return "unexpected"

    def rounds_for(self, seconds: float, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        self.round(tracer)
        while time.perf_counter() < deadline:
            self.round(tracer)

    def cross_checks(self) -> None:
        try:
            self.wl.cross_checks(self.workload, self.ops, {
                op: self.first_outputs[i] for i, op in enumerate(self.ops)
                if i in self.first_outputs})
        except Exception as e:  # reported, never raised past the run
            self.errors.append(f"cross-check: {type(e).__name__}: {e}")


def summary(records) -> dict:
    norm = [r["wall"] * r["scale"] for r in records]
    raw = [r["wall"] for r in records]
    return {
        "ops_per_s": len(norm) / sum(norm),
        "op_p50_ms": 1e3 * statistics.median(norm),
        "ops_per_s_raw": len(raw) / sum(raw),
        "op_p50_ms_raw": 1e3 * statistics.median(raw),
        "mean_op_s": sum(norm) / len(norm),
    }


def failure_counts(records) -> dict:
    out = {}
    for r in records:
        if r["klass"] is not None:
            key = f"{r['outcome']}:{r['klass']}"
            out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def measure_setup(args) -> tuple:
    """Median over SETUP_PROBES fresh interpreters of the time from process
    start to the point where the first operation would run: imports and
    building the inputs, no operation. Returns (normalised, raw)."""
    from kernel import KernelClock

    clock = KernelClock()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw = []
    kernel_times = clock.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode(errors="replace"))
        kernel_times += clock.sample()
    # One scale for all probes: a kernel timed right after a child exits
    # reads noisier than the probes themselves.
    median_raw = statistics.median(raw)
    return median_raw * clock.scale(kernel_times), median_raw


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify_all", "entire_growth", "series_solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    if args.setup_probe:
        wl.build(args.workload, args.seed, str(OUT_ROOT / "probe"))
        return 0
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=str(OUT_ROOT))
    try:
        ops = wl.build(args.workload, args.seed, out_dir)
        setup_inproc = time.perf_counter() - _T0
        return run(args, wl, ops, setup_inproc)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, wl, ops, setup_inproc) -> int:
    runner = Runner(args.workload, ops, wl)
    detail = {"workload": args.workload, "seed": args.seed,
              "round": [op.label for op in ops],
              "setup_inproc_s": setup_inproc}
    # warm-up: lazy imports and first-call costs, untimed and uncounted;
    # a failure here shows again, counted, in the first timed round
    try:
        ops[0].run()
    except Exception:  # noqa: BLE001
        pass

    if args.trace == 0:
        setup_norm, setup_raw = measure_setup(args)
        runner.rounds_for(args.seconds)
        runner.cross_checks()
        s = summary(runner.records)
        metrics = {
            "ops_per_s": s["ops_per_s"],
            "op_p50_ms": s["op_p50_ms"],
            "setup_s": setup_norm,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail.update({k: s[k] for k in ("ops_per_s_raw", "op_p50_ms_raw")})
        detail["setup_s_raw"] = setup_raw
    else:
        import tracing

        runner.rounds_for(args.seconds / 2.0)
        untraced = list(runner.records)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.rounds_for(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        runner.cross_checks()
        traced = runner.records[len(untraced):]
        metrics = tracer.per_op(len(traced))
        metrics["trace.overhead_pct"] = 100.0 * (
            summary(traced)["mean_op_s"] / summary(untraced)["mean_op_s"] - 1.0)
        units = per_layer_units()

    scales = [r["scale"] for r in runner.records]
    detail.update({
        "ops_timed": len(runner.records),
        "rounds": len(runner.records) // len(ops),
        "kernel_scale_median": statistics.median(scales),
        "kernel_scale_min": min(scales),
        "kernel_scale_max": max(scales),
        "failures": failure_counts(runner.records),
        "errors": runner.errors[:20],
    })
    print("# detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not runner.errors,
        "attempted": len(runner.records),
        "failed": sum(1 for r in runner.records if r["klass"] is not None),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
