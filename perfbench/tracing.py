"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces the public functions of each layer with timing wrappers.
Modules bind imported names into their own namespace (``verify`` holds its own
``recognizer_step``, ``adversary`` its own ``run_on_sequence``), so a function
is replaced at every call site: in every module of the package whose globals
hold the original object.  Teacher methods are wrapped on their classes.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame, so a layer's self time is its duration minus the time of the
wrapped calls inside it.  Calls of hot leaf functions (millions per pass) are
only aggregated; all other calls also keep a span ``(name, start, end,
parent)`` in memory, written out when the run ends.  Deterministic counts
(calls, events, actions) are kept apart from the timings.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "txtex_lab"

# (name, defining module, function names) of every traced function.  The
# names in HOT are aggregated without spans.
FUNCTIONS = [
    ("codec.decode_tuple", "codec", ["decode_tuple"]),
    ("descriptor.element_parts", "descriptor", ["element_parts"]),
    ("descriptor.recognizer_step", "descriptor", ["recognizer_step"]),
    ("descriptor.validate_descriptor", "descriptor", ["validate_descriptor"]),
    ("descriptor.build_descriptor", "descriptor", ["build_descriptor"]),
    ("sets.set_equal", "sets", ["set_equal"]),
    ("session.run_session", "session", ["run_session"]),
    ("session.run_on_sequence", "session", ["run_on_sequence"]),
    (
        "families.build",
        "families",
        [
            "make_basic_family",
            "make_msd",
            "make_csd",
            "make_merged",
            "make_pcs_f",
            "make_thm64_g",
            "make_halting_family",
        ],
    ),
    ("evaluate.evaluate_run", "evaluate", ["evaluate_run"]),
    ("evaluate.check_characteristic_sample", "evaluate", ["check_characteristic_sample"]),
    ("adversary.compute_q", "adversary", ["compute_q"]),
    ("adversary.msd_defeat", "adversary", ["msd_defeat"]),
    ("adversary.search_trap_sets", "adversary", ["search_trap_sets"]),
    ("adversary.chain_force", "adversary", ["chain_force"]),
]
TEACHER_INPUT = "agents.teacher_on_input"
HOT = {
    "codec.decode_tuple",
    "descriptor.element_parts",
    "descriptor.recognizer_step",
    "sets.set_equal",
    "session.run_on_sequence",
    TEACHER_INPUT,
}


class Tracer:
    """Collects per-function call counts, self times and spans while installed."""

    def __init__(self):
        self._stats: dict = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()  # deterministic counts besides calls
        self.entry_s: Counter = Counter()  # total time per entry point
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self._stack = [[0.0, -1, "root"]]  # frames: [child time, span index, name]
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------

    @property
    def calls(self) -> Counter:
        return Counter({name: stat[0] for name, stat in self._stats.items()})

    @property
    def self_s(self) -> Counter:
        return Counter({name: stat[1] for name, stat in self._stats.items()})

    def _wrap(self, name: str, fn, hook=None):
        """Timing wrapper; ``hook(result, error, parent_name)`` adds counts."""
        stack = self._stack
        stat = self._stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        if name in HOT and hook is None:  # millions of calls: keep it lean

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1], name]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - t0
                    stack.pop()
                    parent[0] += duration
                    stat[0] += 1
                    stat[1] += duration - frame[0]

            return leaf

        spans = None if name in HOT else self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], name]
            if spans is not None:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent[0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if spans is not None:
                    spans[frame[1]] = (name, t0, t1, parent[1])
                if hook is not None:
                    hook(result, error, parent[2])
                    # counting is tracer work: keep it out of the caller's self time
                    parent[0] += clock() - t1

        return wrapper

    @contextmanager
    def entry(self, name: str):
        """Span around one call into the library made by the benchmark itself."""
        wrapped = self._wrap(name, _call)
        start = time.perf_counter()
        try:
            yield wrapped
        finally:
            self.entry_s[name] += time.perf_counter() - start

    # -- counting hooks ------------------------------------------------------

    def _count_session(self, transcript, error, parent):
        if transcript is not None:
            self.counts["session.run_session.events"] += len(transcript.events)
            for event in transcript.events:
                self.counts["session.events." + event.kind] += 1

    def _count_prefix_run(self, run, error, parent):
        if run is None:
            run = getattr(error, "partial", None)
        if run is not None:
            self.counts["session.run_on_sequence.actions"] += run.actions
        self.counts["prefix_runs_under." + parent] += 1

    def _count_trap_search(self, trap, error, parent):
        if trap is not None and trap.trap_core:
            self.counts["adversary.search_trap_sets.decoy_runs"] += 1

    def _count_chain_force(self, result, error, parent):
        if result is not None and result.status == "forced":
            self.counts["adversary.chain_force.replays"] += 1

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at all of its call sites in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "session.run_session": self._count_session,
            "session.run_on_sequence": self._count_prefix_run,
            "adversary.search_trap_sets": self._count_trap_search,
            "adversary.chain_force": self._count_chain_force,
        }
        modules = [m for key, m in sys.modules.items() if key.startswith(PACKAGE + ".") and m]
        for name, module_name, function_names in FUNCTIONS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for function_name in function_names:
                original = getattr(home, function_name)
                wrapped = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)
        session = sys.modules[f"{PACKAGE}.session"]
        for cls in _subclasses(session.Teacher):
            if "on_input" in vars(cls) and cls.__module__.startswith(PACKAGE + "."):
                original = vars(cls)["on_input"]
                self._patches.append((cls, "on_input", original))
                setattr(cls, "on_input", self._wrap(TEACHER_INPUT, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results -------------------------------------------------------------

    def function_stats(self) -> dict:
        return {
            name: {"calls": calls, "self_s": seconds}
            for name, (calls, seconds) in sorted(self._stats.items())
        }

    def module_self_s(self) -> dict:
        """Self time summed per layer; benchmark entry spans form the 'entry' layer."""
        out: Counter = Counter()
        entries = set(self.entry_s)
        for name, (_, seconds) in self._stats.items():
            out["entry" if name in entries else name.split(".")[0]] += seconds
        return dict(out)

    def span_records(self) -> list:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class NullTracer:
    """Stands in for a tracer in untraced passes."""

    @contextmanager
    def entry(self, name: str):
        yield _call


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)

