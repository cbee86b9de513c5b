"""One benchmark process: set up a workload, run passes, check and report them.

Started by ``run.py``, never by hand.  It prints ``READY`` once the package
is imported and the workload is built (the end of set-up), then a single JSON
line with the pass times, the output checks and, in trace mode, the traced
per-layer numbers.

Modes: ``setup`` only calibrates after ``READY``; ``measure`` runs a cold
pass and then warm passes until ``--seconds`` have passed since ``READY``;
``trace`` does the same and then one traced pass.

Times are reported raw and scaled to a reference machine speed.  The machine
this benchmark was defined on is shared: its speed swings by up to 2x within
seconds and by about 40% between quarter hours, for any Python code alike.
So every ``PROBE_INTERVAL_S`` of a pass a SIGALRM handler times
``calibration_loop``, fixed pure-Python work that uses nothing from the
package; the pass time excludes the handler's time and is scaled by
``CAL_REF_S`` over the loop's mean time during the pass.  Set-up is scaled by
the loop's time right after it.  A change to the package moves a scaled time
as much as the raw one; a change in machine speed mostly cancels.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from tracing import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


CAL_REF_S = 0.010  # reference duration of one calibration loop
PROBE_INTERVAL_S = 0.3  # time between calibration loops during a pass
CAL_LOOPS = 5  # calibration loops right after set-up and after each pass


@dataclass(frozen=True)
class _State:
    seen: frozenset = frozenset()
    total: int = 0


def calibration_loop() -> int:
    """Fixed interpreter work shaped like the package's hot paths.

    Generator sends, isqrt and small dict and set updates (the session loops
    and the codec), then frozen-dataclass states grown by frozenset unions
    over every ordering of 6 items (the descriptor recognizer).  Everything
    it builds stays small, so it does not raise the peak memory.
    """

    def accumulate():
        total = 0
        while True:
            total = (total + (yield total)) & 0xFFFF

    acc = accumulate()
    next(acc)
    seen = set()
    sums: dict[int, int] = {}
    for i in range(4_000):
        w = math.isqrt(8 * i + 1)
        t = (w - 1) // 2
        a = i - t * (t + 1) // 2
        b = t - a
        seen.add((a & 63, b & 63))
        sums[a & 63] = sums.get(a & 63, 0) + b
        acc.send(a ^ b)
    for order in itertools.permutations(range(6)):
        state = _State()
        for x in order:
            state = _State(state.seen | {x}, state.total + x)
    return len(seen) + state.total


def calibrate(loops: int = CAL_LOOPS) -> list[float]:
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return times


class SpeedProbe:
    """Times ``calibration_loop`` every PROBE_INTERVAL_S while running.

    ``clock`` reads wall time minus the time spent in the probe.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a slow loop overran the interval
            return
        self._busy = True
        start = time.perf_counter()
        try:
            calibration_loop()
            self.samples.append(time.perf_counter() - start)
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def import_package():
    """Import txtex_lab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import txtex_lab

    if Path(txtex_lab.__file__).resolve().parent != SRC / "txtex_lab":
        raise SystemExit(f"txtex_lab imported from {txtex_lab.__file__}, not from {SRC}")


class Tally:
    """Compares each pass's observations with the recorded reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, observed: dict) -> None:
        for key in sorted(set(self.reference) | set(observed)):
            self.attempted += 1
            differences = _differences(observed.get(key), self.reference.get(key), key)
            if differences:
                self.failed += 1
                self.mismatches += differences[: 5 - len(self.mismatches)]


def _differences(got, expected, path: str) -> list[str]:
    if isinstance(got, dict) and isinstance(expected, dict):
        out = []
        for key in sorted(set(got) | set(expected)):
            out += _differences(got.get(key), expected.get(key), f"{path}.{key}")
        return out
    return [] if got == expected else [f"{path}: got {got!r}, expected {expected!r}"]


def timed_pass(workload, tracer, tally: Tally, clock=time.perf_counter) -> float:
    gc.collect()
    seconds, observed = workload.run_pass(tracer, clock)
    tally.check(observed)
    return seconds


class Calibrated:
    """Runs untraced passes under a speed probe and scales each pass time."""

    def __init__(self, workload, tally: Tally):
        self.workload = workload
        self.tally = tally
        self.calibrations = calibrate()
        self.setup_scale = CAL_REF_S / statistics.fmean(self.calibrations)
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def run(self) -> None:
        probe = SpeedProbe()
        with probe.running():
            raw = timed_pass(self.workload, NullTracer(), self.tally, probe.clock)
        loops = probe.samples + calibrate()
        self.calibrations += loops
        self.raw.append(raw)
        self.scaled.append(raw * CAL_REF_S / statistics.fmean(loops))


def layer_metrics(tracer, workload, traced_s: float, untraced_s: float) -> dict:
    """Per-layer numbers of one traced pass, keyed as in BENCHMARK.json."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in [
        "codec.decode_tuple",
        "descriptor.element_parts",
        "descriptor.recognizer_step",
        "descriptor.validate_descriptor",
        "descriptor.build_descriptor",
        "session.run_session",
        "session.run_on_sequence",
        "agents.teacher_on_input",
        "families.build",
        "sets.set_equal",
        "evaluate.evaluate_run",
        "evaluate.check_characteristic_sample",
        "adversary.compute_q",
        "adversary.msd_defeat",
        "adversary.search_trap_sets",
        "adversary.chain_force",
    ]:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for kind in ("read", "skip", "query", "emit", "teach", "work", "abort"):
        out[f"session.events.{kind}"] = counts[f"session.events.{kind}"]
    events = counts["session.run_session.events"]
    out["session.run_session.events"] = events
    out["session.run_session.us_per_event"] = _ratio(self_s["session.run_session"] * 1e6, events)
    out["session.run_on_sequence.actions"] = counts["session.run_on_sequence.actions"]
    out["session.run_on_sequence.us_per_run"] = _ratio(
        self_s["session.run_on_sequence"] * 1e6, calls["session.run_on_sequence"]
    )
    steps = calls["descriptor.recognizer_step"]
    out["descriptor.recognizer_step.us_per_call"] = _ratio(
        self_s["descriptor.recognizer_step"] * 1e6, steps
    )
    out["descriptor.steps_per_case"] = _ratio(steps, workload.orderings)
    runs_under = "prefix_runs_under."
    out["evaluate.check_characteristic_sample.covering_prefixes"] = counts[
        runs_under + "evaluate.check_characteristic_sample"
    ]
    out["adversary.search_trap_sets.arrangements"] = (
        counts[runs_under + "adversary.search_trap_sets"]
        - counts["adversary.search_trap_sets.decoy_runs"]
    )
    out["adversary.chain_force.candidates"] = (
        counts[runs_under + "adversary.chain_force"] - counts["adversary.chain_force.replays"]
    )
    for layer, seconds in tracer.module_self_s().items():
        out[f"{layer}.self_s"] = seconds
    out["trace.traced_pass_s"] = traced_s
    out["trace.overhead"] = traced_s / untraced_s
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="worker-", dir=BENCH_DIR / "out"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        print("READY", flush=True)
        ready = time.perf_counter()

        reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
        tally = Tally(reference)
        passes = Calibrated(workload, tally)
        result = {"setup_scale": passes.setup_scale}
        if args.mode != "setup":
            passes.run()
            while time.perf_counter() - ready < args.seconds:
                passes.run()
        result.update(
            raw_pass_s=passes.raw,
            pass_s=passes.scaled,
            calibration_s=passes.calibrations,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if args.mode == "trace":
            tracer = Tracer()
            with tracer.installed():
                traced = timed_pass(workload, tracer, tally)
            untraced_s = statistics.median(passes.raw[1:] or passes.raw)
            result["layers"] = layer_metrics(tracer, workload, traced, untraced_s)
            report = {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_pass_s": untraced_s,
                "traced_pass_s": traced,
                "functions": tracer.function_stats(),
                "counts": dict(sorted(tracer.counts.items())),
                "entry_s": dict(tracer.entry_s),
                "spans": tracer.span_records(),
            }
            Path(args.trace_out).write_text(json.dumps(report) + "\n")
            result["entry_s"] = dict(tracer.entry_s)
        result.update(
            attempted=tally.attempted, failed=tally.failed, mismatches=tally.mismatches
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
