"""Experiment internals that the acceptance criteria do not see.

``msd-linear`` runs one session per distinct horizon prefix of its texts; a
session reads no further, so skipping a repeat must change no row, summary
or verdict.  ``merged-split`` sizes its horizon from the index, so a large
odd index still reads its whole descriptor count.  ``pow2-gap`` holds one
index's transcripts at a time.  ``csd-chain``'s ``max_anchor`` cap is the
greatest anchor whose sweep covers at most 1,000 indices.
"""

import csv
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from txtex_lab import agents, experiments, families
from txtex_lab.codec import poly_encode
from txtex_lab.session import Budget, run_session
from txtex_lab.text import make_text


class _OrderSensitiveTeacher(agents.DescriptorTeacher):
    """The descriptor teacher, leading once too often when the descriptor arrived out
    of increasing order: the pair then fails, a little later, on every order but one."""

    def __init__(self):
        super().__init__()
        self.ascending, self.last = True, -1

    def on_input(self, datum):
        self.ascending, self.last = self.ascending and datum >= self.last, datum
        planned = bool(self.plan)
        items = super().on_input(datum)
        if not planned and self.plan and not self.ascending:  # the descriptor just completed
            self.plan.appendleft(self.plan[0])
        return items


def every_text_msd_linear(config):
    """``msd-linear``'s rows, summary and ``ok`` with one session for every text."""
    registry = agents.build_default_registry()
    family = families.make_msd(registry, config["learner_id"], poly_encode(config["poly"]))
    learner, teacher_factory = agents.make_msd_pair()
    rows, ok = [], True
    for n in range(config["max_n"] + 1):
        texts = [family.canonical_text(n)]
        texts += [make_text("seeded", family.member(n), seed=s) for s in range(config["seeds"])]
        for position, text in enumerate(texts):
            budget = Budget(horizon=n + 60, window=20)
            transcript = run_session(learner, text, teacher=teacher_factory(), budget=budget)
            ok = ok and transcript.converged and transcript.final_hypothesis == n
            if position == 0:
                rows.append((n, transcript.convergence.ticks))
    c = sum(t * (n + 1) for n, t in rows) / sum((n + 1) ** 2 for n, _ in rows)
    max_residual = max(abs(t - c * (n + 1)) for n, t in rows)
    summary = {"fit_c": round(c, 6), "max_residual": round(max_residual, 6)}
    return rows, summary, ok and max_residual <= c


@pytest.mark.parametrize("teacher", [agents.DescriptorTeacher, _OrderSensitiveTeacher])
def test_msd_linear_equals_a_session_for_every_text(monkeypatch, teacher):
    learner, _ = agents.make_msd_pair()
    monkeypatch.setattr(agents, "make_msd_pair", lambda: (learner, teacher))
    keys = experiments.EXPERIMENTS["msd-linear"].keys
    config = {**{key: entry.default for key, entry in keys.items()}, "max_n": 15, "seeds": 10}
    result = experiments._msd_linear(config)
    expected = every_text_msd_linear(config)
    assert (result.rows, result.summary, result.ok) == expected
    # the order-sensitive pair fails on some seeded order and passes on the canonical text,
    # whose convergence ticks are the row's
    assert result.ok is (teacher is agents.DescriptorTeacher)


def test_default_msd_linear_runs_each_distinct_prefix_once(default_catalog):
    # 101 indices x 11 texts; a member has 3 elements, so its texts open in one of 3! orders
    inputs = default_catalog["msd-linear"].inputs
    keys = [
        (budget.horizon, tuple(itertools.islice(text.stream(), budget.horizon)))
        for text, budget in inputs
    ]
    assert len(keys) == 606
    assert len(set(keys)) == len(keys)
    assert {horizon - 60 for horizon, _ in keys} == set(range(101))


def test_csd_chain_cap_is_the_last_anchor_whose_sweep_fits_1000_indices():
    """A ``max_anchor`` of i sweeps anchor(i) + top(i) + 1 indices, one oracle session each."""
    chains = families.CsdFamily(1)
    cap = experiments.CSD_CHAIN_MAX_ANCHOR
    sweeps = [chains.anchor(i) + chains.top(i) + 1 for i in range(cap + 2)]
    assert sweeps == sorted(sweeps)  # so no anchor below the cap sweeps more
    assert sweeps[cap] <= 1_000 < sweeps[cap + 1]
    assert experiments.EXPERIMENTS["csd-chain"].keys["max_anchor"].cap == cap


def test_merged_split_sessions_reach_an_odd_index_past_236(tmp_path):
    """At a fixed horizon of 120, n = 237 held 235: its descriptor count did not fit."""
    assert experiments.run_experiment("merged-split", {"max_index": 240}, tmp_path / "out") == 0
    with (tmp_path / "out" / "results.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    family = families.make_merged(agents.build_default_registry(), 0, poly_encode([0, 1]))
    assert rows[237]["n"] == "237"
    assert int(rows[237]["hypothesis"]) == family.min_index(237) == int(rows[237]["min_index"])


# a fresh interpreter, so no cache that an earlier test filled lowers the peak
_POW2_GAP_PROBE = """
import sys, tracemalloc
from pathlib import Path
from txtex_lab.experiments import run_experiment

tracemalloc.start()
code = run_experiment("pow2-gap", None, Path(sys.argv[1]))
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_pow2_gap_holds_one_index_of_transcripts(tmp_path):
    """A default ``pow2-gap`` run peaks under 2 MB in ``tracemalloc``.

    Holding index n - 1's transcripts while index n runs, with a new record
    for every repeated emit, peaked at 3.0 MB.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _POW2_GAP_PROBE, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[0] == "0"
    assert int(out[1]) < 2 << 20, f"pow2-gap peaked at {int(out[1]) / 2**20:.2f} MB"
