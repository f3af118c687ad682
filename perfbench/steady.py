"""Steadiness check: repeat one workload and summarise the spread.

    python3 perfbench/steady.py --workload series_solve --runs 10 --first-seed 1

Runs ``run.py`` once per seed (first-seed, first-seed+1, ...), one run at
a time, and prints for every end-to-end metric, normalised and raw, the
median, the quartiles (statistics.quantiles(n=4)) and the interquartile
spread as a share of the median, plus each run's kernel scale factor and
failed share. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
METRICS = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")
RAW = {"ops_per_s": "ops_per_s_raw", "op_p50_ms": "op_p50_ms_raw",
       "setup_s": "setup_s_raw"}


def one_run(workload: str, seed: int, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("# detail "):])
    return detail, json.loads(lines[-1])


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("need at least 2 runs for quartiles")

    rows = []
    print(f"{'seed':>6} {'correct':>7} {'failed':>11} {'kscale':>7} "
          + " ".join(f"{m:>12}" for m in METRICS))
    for i in range(args.runs):
        seed = args.first_seed + i
        detail, result = one_run(args.workload, seed, args.seconds)
        vals = {m: result["metrics"][m]["value"] for m in METRICS}
        vals.update({RAW[m]: detail[RAW[m]] for m in RAW})
        rows.append(vals)
        share = f"{result['failed']}/{result['attempted']}"
        print(f"{seed:>6} {str(result['correct']):>7} {share:>11} "
              f"{detail['kernel_scale_median']:>7.4f} "
              + " ".join(f"{vals[m]:>12.5g}" for m in METRICS), flush=True)

    print(f"\n{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for m in METRICS + tuple(RAW.values()):
        med, q1, q3, rel = spread([r[m] for r in rows])
        print(f"{m:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {rel:>8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
