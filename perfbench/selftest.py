"""Self-test of the benchmark: tracing is deterministic and changes no result.

    python3 perfbench/selftest.py [--workloads a,b] [--seed N] [--seconds S]

1. Two traced runs of each workload at one seed must report identical
   deterministic per-layer numbers (every per-layer metric that is not a time).
2. The experiment artifacts of a traced catalog pass must hash the same as
   those of an untraced pass and as the recorded reference fingerprint.

Exits 0 when both hold, 1 otherwise.  verify-all is left out by default
because each of its traced runs takes over a minute.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from collect import run_once
from worker import BENCH_DIR, ROOT, import_package

TIME_UNITS = {"s", "us", "x"}


def traced_counts_repeat(workload: str, seed: int, seconds: int, spec: dict) -> list[str]:
    deterministic = [m["name"] for m in spec["per_layer"] if m["unit"] not in TIME_UNITS]
    first, second = (run_once(workload, seed, seconds, 1) for _ in range(2))
    problems = [
        f"{workload}: traced run {i} failed {r['failed']} of {r['attempted']} operations"
        for i, r in enumerate((first, second), 1)
        if not r["correct"]
    ]
    for name in deterministic:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
    return problems


def traced_artifacts_match() -> list[str]:
    import_package()
    import workloads
    from tracing import NullTracer, Tracer

    reference = json.loads((BENCH_DIR / "reference.json").read_text())["experiment-catalog"]
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR / "out"))
    try:
        catalog = workloads.ExperimentCatalog(0, scratch)
        _, untraced = catalog.run_pass(NullTracer())
        tracer = Tracer()
        with tracer.installed():
            _, traced = catalog.run_pass(tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems = []
    for name in sorted(reference):
        if traced.get(name) != untraced.get(name):
            problems.append(f"experiment {name}: traced artifacts differ from untraced ones")
        if untraced.get(name) != reference[name]:
            problems.append(f"experiment {name}: artifacts differ from the reference fingerprint")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="experiment-catalog,prefix-search")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args(argv)

    problems = []
    for workload in args.workloads.split(","):
        problems += traced_counts_repeat(workload, args.seed, args.seconds, spec)
    problems += traced_artifacts_match()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
