"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--runs 10] [--workloads a,b] [--trace]
                                 [--out perfbench/trajectory/<name>.json]

For every workload it runs ``run.py`` once per seed (1..runs) with
``run_seconds`` from BENCHMARK.json and reports, per end-to-end metric, the
median, the quartiles, the sample count and the spread: the distance between
the quartiles as a share of the median.  A spread should stay below a third
of the metric's bound.  ``--trace`` adds one traced run per workload.  With
``--out`` the summary is written as a point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
        "values": values,
    }


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in report["seeds"]]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = summarise(values, metric["bound"])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][metric["name"]] = stats
            if metric["name"] != "setup_s":
                steady = steady and stats["steady"]
            print(
                f"{workload:20s} {metric['name']:12s} median {stats['median']:.5g} "
                f"{metric['unit']} q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.4f} "
                f"bound {metric['bound']} {'ok' if stats['steady'] else 'WIDE'}",
                flush=True,
            )
        if args.trace:
            traced = run_once(workload, report["seeds"][0], seconds, 1)
            entry["traced_run_wall_s"] = traced["wall_s"]
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
