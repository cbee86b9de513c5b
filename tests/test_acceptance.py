"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.  Criteria 1 and 3 read checks of the verify
suites, and criteria 4-10 read the default experiment catalog (each runs once
per test session).  An experiment's `ok` is the one home of its claims: the
criteria require it and assert the scope it covered, and fault injection
shows that a learner breaking one claim makes its experiment exit 1.
"""

import csv
import json
import random
import time
from collections import Counter

import pytest

from txtex_lab import adversary, agents, families
from txtex_lab.descriptor import build_descriptor, described_number, validate_descriptor
from txtex_lab.experiments import EXPERIMENTS, run_experiment
from txtex_lab.session import Emit, Learner, Query, Teacher, Work

CHAINS = families.make_csd()


def announce(number, text):
    print(f"\n[criterion {number:2d}] PASS  {text}")


def verify_check(verify_run, suite, name):
    """The named check of a verify suite; it must pass."""
    results, _ = verify_run(suite)
    [result] = [r for r in results if r.name == name]
    assert result.passed, result
    return result


def read_default(default_catalog, name):
    """A default experiment's results.csv rows (as ints) and report, from the session's run."""
    out = default_catalog[name].out
    assert default_catalog[name].exit_code == 0, name
    with open(out / "results.csv", newline="") as fh:
        rows = [
            {key: int(value) if value.isdigit() else value for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True and report["row_count"] == len(rows)
    return rows, report


def test_criterion_01_codec_roundtrips(verify_run):
    tuples = verify_check(verify_run, "codec", "tuple roundtrip with bounded coordinates")
    signed = verify_check(verify_run, "codec", "signed bijection")
    assert tuples.cases == 400_000 and signed.cases == 40_002
    _, elapsed = verify_run("codec")
    assert elapsed < 5.0, f"codec suite took {elapsed:.2f}s"
    announce(1, f"{tuples.cases} tuple roundtrips + signed bijection in {elapsed:.2f}s (< 5s)")


def test_criterion_02_descriptor_suite(recognizer_fires_last):
    start = time.monotonic()
    rng = random.Random(2024)
    single = {adversary.marker_element(0)}
    multi = {adversary.marker_element(j) for j in range(3)}
    widest = {adversary.marker_element(j) for j in range(5)}  # 7 elements, verify's largest k
    big = {adversary.marker_element(j) for j in range(10)}  # 12 elements: 100 sampled orderings
    cases = [
        (n, floor, markers)
        for n in range(0, 201)
        for floor in (0, 10_000)
        for markers in (single, multi)
    ]
    cases += [(n, floor, widest) for n in (0, 101, 200) for floor in (0, 10_000)]
    cases += [(n, 10_000, big) for n in range(0, 201, 25)]
    for n, floor, markers in cases:
        d = build_descriptor(n, floor, markers)
        assert validate_descriptor(d)
        assert described_number(d) == n
        assert markers <= d
        assert len(d) == len(markers) + 2
        recognizer_fires_last(d, n, rng)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"descriptor sweep took {elapsed:.2f}s"
    announce(
        2,
        f"{len(cases)} descriptors, exhaustive+sampled recognizer sweeps in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_exponential_query_search(verify_run):
    search = verify_check(verify_run, "agents", "endpoint search exact within the query bound")
    assert search.cases == 2 * 4097  # bases 2 and 3, every n <= 4096
    announce(3, "exact endpoints for n <= 4096, bases 2 and 3, zero bound violations")


def test_criterion_04_pow2_gap(default_catalog):
    # ok: plain learner distinct 2^n+1, queries <= (n+2)^3, teacher items <= n+2
    _, report = read_default(default_catalog, "pow2-gap")
    assert report["config"]["n_range"] == [1, 12]
    elapsed = default_catalog["pow2-gap"].seconds
    assert elapsed < 60.0
    announce(4, f"n in [1,12]: distinct 2^n+1 vs queries <= (n+2)^3 vs items <= n+2 in {elapsed:.2f}s")


def test_criterion_05_msd_headline(default_catalog):
    # ok: every session converged on the index; ticks fit c*(n+1), residuals <= c
    rows, report = read_default(default_catalog, "msd-linear")
    assert [row["n"] for row in rows] == list(range(101))
    assert report["config"]["seeds"] == 10  # the canonical text plus 10 seeded ones
    c, max_residual = report["summary"]["fit_c"], report["summary"]["max_residual"]

    # ok: each learner's prefix transcripts are identical and wrong for a target:
    # the chain-column oracle, the pow2 endpoint oracle, and constant zero
    rows, _ = read_default(default_catalog, "msd-defeat")
    assert [row["learner_id"] for row in rows] == [3, 4, 0]
    announce(
        5,
        f"pair exact on 101 indices x 11 texts; ticks fit c={c:.3f}, residual {max_residual:.3f} <= c; "
        "2 oracle learners defeated with identical prefix transcripts",
    )


def test_criterion_06_csd(default_catalog):
    # ok: each min_index named within 4.0*(mi+2)^3 queries; the chain forced; the pair not
    rows, report = read_default(default_catalog, "csd-chain")
    assert [row["n"] for row in rows] == list(range(CHAINS.anchor(5) + CHAINS.top(5) + 1))
    summary = report["summary"]
    cubic_c, forced = summary["query_cubic_coefficient"], summary["forced_mind_changes"]
    assert summary["chain"] == CHAINS.chain_indices(5)[:2]
    announce(
        6,
        f"oracle learner exact on anchors <= 5; queries <= {cubic_c:.3f}(mi+2)^3; "
        f"chain of 2 forces {forced} changes; reference pair yields witness",
    )


def test_criterion_07_merged_family(default_catalog):
    # ok: every hypothesis is the min_index after one query more than the component
    rows, _ = read_default(default_catalog, "merged-split")
    assert [row["n"] for row in rows] == list(range(25))
    announce(
        7, f"merged learner correct on both parities ({len(rows)} indices), exactly one extra query"
    )


def test_criterion_08_conversions(default_catalog):
    # ok: both conversions pass on every text and round-trip with <= 2 distinct data
    rows, _ = read_default(default_catalog, "conversions-roundtrip")
    seeded = [row for row in rows if row["n"] >= 1 and row["text"] >= 1]  # text 0 is canonical
    assert len(seeded) == 50
    announce(
        8,
        f"both conversions pass on {len(seeded)} seeded texts each (PMC p=x+2; dataset <= 2), "
        "zero failures",
    )


def test_criterion_09_pcs_suite(default_catalog):
    # ok: every sample passed its check; both trap families taught and learned each index
    rows, report = read_default(default_catalog, "pcs-suite")
    assert report["config"]["trap_learners"] == [[1, [0]], [2, [0]]]
    # only k* = <m, p> holds decoys: learner 1's k* = 1 holds a trap, learner 2's k* = 3
    # lies above max_k 2, so its rows test members that hold the left endpoint alone
    registry = agents.build_default_registry()
    trap_families = [families.make_pcs_f(registry, m, 0, max_k=2) for m in (1, 2)]
    assert [family.k_star for family in trap_families] == [1, 3]
    assert trap_families[0].trap_sets(1).trap_core == {9} and trap_families[1].trap is None
    traps = {f"trap-{kind}(m={m})": 4 for kind in ("pair", "pmc") for m in (1, 2)}  # k < max_k 2
    counts = {"pcs-G": 8, "offset-power": 8, "join-singletons": 9, **traps}
    assert Counter(row["check"] for row in rows) == counts
    samples = {(row["check"], row["sample_size"]) for row in rows if row["note"] != "session"}
    assert samples == {("pcs-G", 1), ("offset-power", 2), ("join-singletons", 1)}
    # a matched k where no trap core exists: the odd guesser at k* = 3 (wants 2k = 6)
    empty_family = families.make_pcs_f(registry, 2, 0, max_k=3)
    assert empty_family.k_star == 3
    assert empty_family.trap_sets(3).resolved
    assert not empty_family.trap_sets(3).trap_core
    announce(
        9,
        "segment samples {n} for n <= 8; offset-power samples of size 2 for n <= 8; "
        "trap families correct on k < 2, learner 1's trap at k* = 1 (learner 2's k* = 3 "
        "is above max_k); an empty trap core resolved",
    )


def test_criterion_10_halting_family(default_catalog):
    # ok: every ending correct after <= 2 distinct data, from the initial hypothesis 6
    rows, report = read_default(default_catalog, "halting-psd")
    assert report["config"]["w_set"] == [1, 3]
    assert [(row["w"], row["index"]) for row in rows] == [
        (w, 2 * i + 1) for w in ("empty", "{1,3}") for i in range(11)
    ]
    assert report["summary"]["initial_hypothesis"] == 6
    announce(10, "pair family: <= 2 distinct data, correct endings for i <= 10 under both parameter sets")


SMALL_CONFIGS = {
    "pow2-gap": {"n_range": [1, 6]},
    "msd-linear": {"max_n": 15, "seeds": 2},
    "msd-defeat": {"learner_ids": [3, 0]},
    "csd-chain": None,
    "merged-split": {"max_index": 10},
    "psd-finite": None,
    "conversions-roundtrip": {"max_n": 5, "seeds_per_n": 2},
    "pcs-suite": {"max_g": 4, "max_thm64": 4, "max_join": 4},
    "halting-psd": {"max_i": 5},
}


def test_criterion_11_determinism(tmp_path):
    for name in EXPERIMENTS:
        config = SMALL_CONFIGS[name]
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        assert run_experiment(name, config, first) == 0, name
        assert run_experiment(name, config, second) == 0, name
        first_files = sorted(p.name for p in first.iterdir())
        assert first_files == sorted(p.name for p in second.iterdir())
        assert len(first_files) >= 3
        for artifact in first_files:
            assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), (
                name,
                artifact,
            )
    announce(11, f"all {len(EXPERIMENTS)} experiments byte-identical across reruns (every artifact)")


class _Echo(Teacher):
    """Passes each datum on as it arrives."""

    def on_input(self, datum):
        return [datum]


def _faulty(learner, lead=(), rename=lambda h: h):
    """``learner`` after ``lead`` (whose answers it never sees), emitting rename(h) for h."""

    def program():
        for action in lead:
            yield action
        inner, answer = learner.program(), None
        while True:
            try:
                action = inner.send(answer)
            except StopIteration:
                return
            answer = yield Emit(rename(action.hypothesis)) if type(action) is Emit else action

    return Learner(learner.name, program, learner.cost_note)


ORIGINAL_MAKERS = dict(vars(agents))  # as imported, so that a patched maker never calls itself


@pytest.mark.parametrize(
    "experiment,config,maker,fault",
    [
        # 40 wasted queries at index 0 alone are 5.0*(0+2)^3
        ("csd-chain", None, "make_csd_learner", lambda learner: _faulty(learner, [Query(0)] * 40)),
        # the chain chaser behind an echo: a data-driven pair endorsing the whole default chain
        ("csd-chain", None, "make_msd_pair",
         lambda _: (adversary.make_chain_chaser(CHAINS, CHAINS.chain_indices(5)[:2]), _Echo)),
        # (n+2)^3 <= 125 on n <= 3
        ("pow2-gap", {"n_range": [1, 3]}, "make_pow2_oracle_learner",
         lambda learner: _faulty(learner, [Query(0)] * 200)),
        # a fixed start-up cost: ticks no longer grow as c*(n+1)
        ("msd-linear", {"max_n": 15, "seeds": 0}, "make_msd_pair",
         lambda pair: (_faulty(pair[0], [Work(1000)]), pair[1])),
        # two queries above the component learner
        ("merged-split", {"max_index": 4}, "make_merged_learner",
         lambda learner: _faulty(learner, [Query(0)])),
        # a count decoder that names the next index
        ("conversions-roundtrip", {"max_n": 3, "seeds_per_n": 1}, "make_count_decoder_learner",
         lambda learner: _faulty(learner, rename=lambda h: h + 1)),
        # the initial guess 6 stands; every later answer names the next pair
        ("halting-psd", {"max_i": 3}, "make_halting_psd_learner",
         lambda learner: _faulty(learner, rename=lambda h: h if h == 6 else h + 2)),
    ],
)
def test_broken_claim_fails_its_experiment(tmp_path, monkeypatch, experiment, config, maker, fault):
    """An experiment whose learner breaks one of its claims exits 1, not partial."""
    monkeypatch.setattr(agents, maker, lambda *args: fault(ORIGINAL_MAKERS[maker](*args)))
    assert run_experiment(experiment, config, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is False and report["partial"] is False
