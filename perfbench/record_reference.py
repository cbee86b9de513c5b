"""Write reference.json: the checked outputs of one untraced pass per workload.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good; the benchmark then
counts every later difference as a failed operation.  The prefix-search
reference holds only seed-independent fields, so seed 0 stands for all seeds.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from worker import BENCH_DIR, import_package


def main() -> int:
    import_package()
    import workloads
    from tracing import NullTracer

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=BENCH_DIR / "out"))
    try:
        reference = {}
        for name, workload_class in workloads.WORKLOADS.items():
            _, observed = workload_class(0, scratch).run_pass(NullTracer())
            reference[name] = observed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
