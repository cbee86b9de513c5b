"""txtex-lab benchmark: one workload, end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload {verify-all|experiment-catalog|prefix-search}
                             --seed N --seconds S --trace {0|1}

Every number comes from fresh worker processes (``worker.py``), started one
after another so that no workload or pass warms another process's caches.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each a
median of times scaled to a reference machine speed (see ``worker.py``; the
raw wall times are printed above the JSON line):

- ``setup_s``: time from starting a worker process until it has imported the
  package and built the workload, over every worker of the run;
- ``cold_pass_s``: the first pass of each measuring worker, what every
  ``txtex-lab`` invocation pays;
- ``pass_s``: the warm passes that follow; a pass longer than a worker's share
  of ``--seconds`` leaves no warm pass, and then ``pass_s`` is taken over the
  first passes;
- ``peak_rss_mb``: peak resident memory of each measuring worker.

Measuring workers (up to ``MEASURING_PROCESSES``) each get an equal share of
``--seconds``; a set-up-only worker runs before each of them, and more after
them until there are ``MIN_SETUP_SAMPLES`` set-up times.

``--trace 1`` runs one worker that makes untraced passes for half the time and
then one traced pass, and reports the per-layer metrics of BENCHMARK.json.
Its spans and per-function numbers are written to
``perfbench/out/trace-<workload>-seed<N>.json``.

Every pass is checked against ``reference.json``; the last line of output is
the JSON result, with ``attempted`` and ``failed`` counting checked operations
(``failed_ratio`` in the summary line above it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT = BENCH_DIR / "out"

MEASURING_PROCESSES = 6  # target number of cold passes per run
SETUP_ONLY_PROCESSES = 1  # extra set-up samples before each measuring worker
MIN_SETUP_SAMPLES = 12  # topped up with set-up-only workers after long passes
RUN_LIMIT_S = 175  # hard stop for one run, below the 180 s allowed


class WorkerFailed(Exception):
    pass


def start_worker(args: list[str], deadline: float):
    """Start a worker; return (process, seconds until it reported READY)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        finish_worker(proc, deadline)
        raise WorkerFailed(f"worker did not reach READY: {line!r}")
    return proc, setup


def finish_worker(proc, deadline: float) -> dict:
    """Wait for the worker and return its JSON result."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def run_worker(common: list[str], mode: str, seconds: float, deadline: float, extra=()):
    args = [*common, "--mode", mode, "--seconds", f"{seconds:.3f}", *extra]
    proc, setup = start_worker(args, deadline)
    return setup, finish_worker(proc, deadline)


def measure(common, seconds: float, deadline: float):
    setups, raw_setups, results = [], [], []

    def sample(mode: str, share: float):
        raw, result = run_worker(common, mode, share, deadline)
        raw_setups.append(raw)
        setups.append(raw * result["setup_scale"])
        return result

    start = time.perf_counter()
    share = seconds / MEASURING_PROCESSES
    while not results or time.perf_counter() - start < seconds:
        for _ in range(SETUP_ONLY_PROCESSES):
            sample("setup", 0)
        remaining = seconds - (time.perf_counter() - start)
        results.append(sample("measure", max(0.0, min(share, remaining))))
    while len(setups) < MIN_SETUP_SAMPLES:
        sample("setup", 0)

    def medians(key: str) -> tuple[float, float]:
        colds = [r[key][0] for r in results]
        warms = [s for r in results for s in r[key][1:]]
        return statistics.median(colds), statistics.median(warms or colds)

    cold, warm = medians("pass_s")
    raw_cold, raw_warm = medians("raw_pass_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_pass_s": cold,
        "pass_s": warm,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    loops = [c for r in results for c in r["calibration_s"]]
    info = {
        "raw wall times": f"setup_s {statistics.median(raw_setups):.6g} s, "
        f"cold_pass_s {raw_cold:.6g} s, pass_s {raw_warm:.6g} s",
        "calibration loop": f"{statistics.median(loops) * 1e3:.4g} ms",
        "samples": f"{len(setups)} set-ups, {len(results)} cold passes, "
        f"{sum(len(r['pass_s']) - 1 for r in results)} warm passes",
    }
    return metrics, results, info


def trace(common, workload: str, seed: int, seconds: float, deadline: float):
    path = OUT / f"trace-{workload}-seed{seed}.json"
    _, result = run_worker(common, "trace", seconds / 2, deadline, ["--trace-out", str(path)])
    return result["layers"], [result], {"trace_file": str(path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "txtex_lab" / "__init__.py").is_file():
        print(f"no txtex_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values, results, info = trace(common, args.workload, args.seed, args.seconds, deadline)
        else:
            values, results, info = measure(common, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for mismatch in r["mismatches"]:
            print(f"output mismatch: {mismatch}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    summary = [f"workload {args.workload} seed {args.seed}"]
    summary += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    summary.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    summary += [f"{key}: {value}" for key, value in info.items()]
    print("\n".join(summary))
    if args.trace:
        entry_s = results[0].get("entry_s", {})
        for name, seconds in sorted(entry_s.items()):
            print(f"  entry {name} {seconds:.6g} s")
        for name, value in sorted(values.items()):
            if name not in metrics:
                print(f"  unlisted {name} {value:.6g}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
