"""Shared fixtures, and a deterministic Hypothesis profile.

Tier-1 draws the same Hypothesis examples on every run and writes no
``.hypothesis/``: the profile turns off the example database.  Hypothesis
still caches the constants it reads from local source files, already while
collecting, so its storage directory is a temporary one removed when the run
ends.  The ``mutants`` profile draws the same examples but does not shrink a
failure.
"""

import math
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from txtex_lab import adversary, experiments
from txtex_lab.descriptor import RecognizerState, recognizer_step
from txtex_lab.session import run_session
from txtex_lab.verify import verify_suite

try:
    from hypothesis import Phase, settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    _storage = None
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
    # the same examples without shrinking a failure: ``tests/mutants.py`` asks only
    # whether a test fails, through ``--hypothesis-profile mutants``
    settings.register_profile(
        "mutants", settings.get_profile("deterministic"), phases=[Phase.explicit, Phase.generate]
    )
    _storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    if _storage is not None:
        _storage.cleanup()


@pytest.fixture(scope="session")
def verify_run():
    """``verify_run(suite)`` is the suite's ``(results, wall seconds)``, run once per session."""
    runs = {}

    def run(suite):
        if suite not in runs:
            start = time.perf_counter()
            results = verify_suite(suite)
            runs[suite] = results, time.perf_counter() - start
        return runs[suite]

    return run


class DefaultRun(NamedTuple):
    out: Path  # the experiment's output directory
    exit_code: int
    sessions: list  # (teacherless, transcript) of each of its run_session calls
    inputs: list  # (text, budget) of each of its run_session calls, in the same order
    seconds: float


@pytest.fixture(scope="session")
def default_catalog(tmp_path_factory):
    """Every experiment on its default config, run once per session: name -> DefaultRun."""
    base = tmp_path_factory.mktemp("default-catalog")
    sessions, inputs, runs = [], [], {}

    def recording_run_session(learner, text, *, budget, **kwargs):
        transcript = run_session(learner, text, budget=budget, **kwargs)
        sessions.append((kwargs.get("teacher") is None, transcript))
        inputs.append((text, budget))
        return transcript

    with pytest.MonkeyPatch.context() as patch:
        for module in (experiments, adversary):
            patch.setattr(module, "run_session", recording_run_session)
        for name in experiments.EXPERIMENTS:
            before, start = len(sessions), time.perf_counter()
            code = experiments.run_experiment(name, None, base / name)
            seconds = time.perf_counter() - start
            runs[name] = DefaultRun(base / name, code, sessions[before:], inputs[before:], seconds)
    return runs


def _check_recognizer_fires_last(descriptor, described, rng):
    """Every ordering completes exactly at its last element, with the value ``described``.

    Every earlier element is ``partial``.  Up to 8 elements all k! orderings
    are replayed, depth first over the permutation tree: ``recognizer_step``
    is pure and never changes the state it is given, so each prefix state is
    computed once and shared by the orderings that extend it.  Above 8
    elements, 100 orderings sampled from ``rng`` are replayed.
    """
    elements = sorted(descriptor)
    k = len(elements)

    def step(state, code, last):
        state, res = recognizer_step(state, code)
        assert res.status == ("complete" if last else "partial")
        if last:
            assert res.value == described
        return state

    if k > 8:
        for _ in range(100):
            state = RecognizerState()
            for pos, code in enumerate(rng.sample(elements, k)):
                state = step(state, code, pos == k - 1)
        return

    leaves = 0

    def walk(state, remaining):
        nonlocal leaves
        last = len(remaining) == 1
        for i, code in enumerate(remaining):
            nxt = step(state, code, last)
            if last:
                leaves += 1
            else:
                walk(nxt, remaining[:i] + remaining[i + 1 :])

    walk(RecognizerState(), tuple(elements))
    assert leaves == math.factorial(k)


@pytest.fixture(scope="session")
def recognizer_fires_last():
    """The recognizer's permutation replay; ``verify`` covers the same orders by lattice walk."""
    return _check_recognizer_fires_last


def _fold_events(events):
    """The ledger, and a snapshot at every emit, recomputed from the events alone.

    Snapshot positions count reads and skips, the raw positions of a session
    without a teacher.
    """
    ticks = queries = skips = mind_changes = position = 0
    read_payloads = set()
    snapshots = []
    for event in events:
        kind = event.kind
        if kind == "read":
            ticks += 1
            position += 1
            read_payloads.add(event.payload[0])
        elif kind == "skip":
            ticks += 1
            position += 1
            skips += 1
        elif kind == "query":
            ticks += 1
            queries += 1
        elif kind == "work":
            ticks += event.payload[0]
        elif kind == "emit":
            ticks += 1
            hypothesis = event.payload[0]
            if snapshots and snapshots[-1][0] != hypothesis:
                mind_changes += 1
            snapshots.append((hypothesis, position, ticks, len(read_payloads), queries))
    ledger = {
        "ticks": ticks,
        "distinct_data": len(read_payloads),
        "mind_changes": mind_changes,
        "oracle_queries": queries,
        "skips": skips,
    }
    return ledger, snapshots


@pytest.fixture(scope="session")
def fold_events():
    """``_fold_events``, shared by the session tests and the session property."""
    return _fold_events
