"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.  The criteria read the shared evidence rather
than repeat it: criteria 1 and 3 read checks of the verify suites, and
criteria 4-8 and 10 read the default experiment catalog (each runs once per
test session), asserting on an experiment's `results.csv` and `report.json`
with the bounds that are stricter than the experiment's own `ok`.
"""

import csv
import json
import random
import time

from txtex_lab import adversary, agents, families
from txtex_lab.codec import poly_encode
from txtex_lab.descriptor import build_descriptor, described_number, validate_descriptor
from txtex_lab.evaluate import check_characteristic_sample, hypothesis_correct
from txtex_lab.experiments import EXPERIMENTS, run_experiment
from txtex_lab.session import Budget, run_session


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
        assert validate_descriptor(d.elements)
        assert described_number(d.elements) == d.described == n
        assert markers <= d.elements
        assert len(d.elements) == len(markers) + 2
        recognizer_fires_last(d, rng)
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
    rows, report = read_default(default_catalog, "pow2-gap")
    assert report["config"]["n_range"] == [1, 12]
    for row in rows:
        assert row["plain_distinct"] == 2 ** row["n"] + 1
        assert row["oracle_queries"] <= (row["n"] + 2) ** 3
        assert row["teacher_items"] <= row["n"] + 2
    elapsed = default_catalog["pow2-gap"].seconds
    assert elapsed < 60.0
    announce(4, f"n in [1,12]: distinct 2^n+1 vs queries <= (n+2)^3 vs items <= n+2 in {elapsed:.2f}s")


def test_criterion_05_msd_headline(default_catalog):
    rows, report = read_default(default_catalog, "msd-linear")
    # every session of every text converged on the index: the experiment's ok
    assert [row["n"] for row in rows] == list(range(101))
    assert report["config"]["seeds"] == 10  # the canonical text plus 10 seeded ones
    ticks = [(row["n"], row["ticks_at_convergence"]) for row in rows]
    c = sum(t * (n + 1) for n, t in ticks) / sum((n + 1) ** 2 for n, _ in ticks)
    max_residual = max(abs(t - c * (n + 1)) for n, t in ticks)
    assert max_residual <= c, f"fit c={c:.3f}, max residual {max_residual:.3f}"
    assert report["summary"] == {"fit_c": round(c, 6), "max_residual": round(max_residual, 6)}

    rows, _ = read_default(default_catalog, "msd-defeat")
    defeated = 0
    for row in rows:
        if row["learner_id"] in (3, 4):  # chain-column oracle, pow2 endpoint oracle
            assert row["transcripts_identical"] == 1
            assert row["wrong_for"] >= 1
            defeated += 1
    assert defeated == 2
    announce(
        5,
        f"pair exact on 101 indices x 11 texts; ticks fit c={c:.3f}, residual {max_residual:.3f} <= c; "
        f"{defeated} oracle learners defeated with identical prefix transcripts",
    )


def test_criterion_06_csd(default_catalog):
    rows, report = read_default(default_catalog, "csd-chain")
    chains = families.make_csd()
    assert [row["n"] for row in rows] == list(range(chains.anchor(5) + chains.top(5) + 1))
    assert all(row["hypothesis"] == row["min_index"] for row in rows)
    cubic_c = max(row["oracle_queries"] / (row["min_index"] + 2) ** 3 for row in rows)
    summary = report["summary"]
    forced = summary["forced_mind_changes"]
    assert summary["query_cubic_coefficient"] == round(cubic_c, 6)
    assert cubic_c <= 4.0, f"cubic coefficient unexpectedly large: {cubic_c:.3f}"

    assert len(summary["chain"]) == 2
    assert summary["forced_status"] == "forced"
    assert forced >= 2
    assert summary["reference_pair_status"] == "failure-witness"
    announce(
        6,
        f"oracle learner exact on anchors <= 5; queries <= {cubic_c:.3f}(mi+2)^3; "
        f"chain of 2 forces {forced} changes; reference pair yields witness",
    )


def test_criterion_07_merged_family(default_catalog):
    rows, _ = read_default(default_catalog, "merged-split")
    assert [row["n"] for row in rows] == list(range(25))
    for row in rows:
        assert row["hypothesis"] == row["min_index"]
        assert row["hypothesis"] % 2 == row["n"] % 2
        assert row["extra_vs_component"] == 1, row  # one query above the component learner
        if row["n"] % 2:
            assert row["oracle_queries"] == 1, row  # the descriptor pair never queries
    announce(
        7, f"merged learner correct on both parities ({len(rows)} indices), exactly one extra query"
    )


def test_criterion_08_conversions(default_catalog):
    rows, _ = read_default(default_catalog, "conversions-roundtrip")
    for row in rows:
        assert row["pmc_pass"] == row["psdT_pass"] == row["roundtrip_ok"] == 1, row
        assert row["psdT_distinct"] <= 2, row
    seeded = [row for row in rows if row["n"] >= 1 and row["text"] >= 1]  # text 0 is canonical
    assert len(seeded) == 50
    announce(
        8,
        f"both conversions pass on {len(seeded)} seeded texts each (PMC p=x+2; dataset <= 2), "
        "zero failures",
    )


def test_criterion_09_pcs_suite():
    poly = poly_encode([2, 1])
    pcsg = families.make_basic_family("pcs-G")
    for n in range(1, 9):
        verdict = check_characteristic_sample(
            agents.make_pcsG_oracle_learner, pcsg, n, [n], poly, max_text_len=4, max_universe=20
        )
        assert verdict.passed and verdict.details["exhaustive"], n

    t64 = families.make_thm64_g()
    for n in range(1, 9):
        verdict = check_characteristic_sample(
            agents.make_thm64_pcs_learner,
            t64,
            2 * n,
            [2 * n, 2 * 2**n + 1],
            poly_encode([3, 1]),
            max_text_len=3,
            max_universe=2 * 2**n + 2,
            use_oracle=False,
        )
        assert verdict.passed, n
        assert verdict.details["sample_size"] <= 2

    registry = agents.build_default_registry()
    resolved_families = 0
    for m_id, coeffs in [(0, [0]), (1, [0])]:
        family = families.make_pcs_f(registry, m_id, poly_encode(coeffs), max_k=2)
        catalog = agents.make_pcsF_agents(family)
        learner, teacher_factory = catalog["teacher_pair"]
        for index in range(0, 6):
            transcript = run_session(
                learner,
                family.canonical_text(index),
                teacher=teacher_factory(),
                budget=Budget(horizon=90, window=10),
            )
            assert transcript.converged and transcript.final_hypothesis == index, (m_id, index)
            pmc_run = run_session(
                catalog["pmc_learner"], family.canonical_text(index), budget=Budget(horizon=90, window=10)
            )
            assert hypothesis_correct(family, pmc_run.final_hypothesis, index), (m_id, index)
            assert pmc_run.ledger.mind_changes <= 2
        resolved_families += 1
    # a matched k where no trap core exists: constant-zero vs k=2 (wants 2k=4)
    empty_family = families.make_pcs_f(registry, 0, 1, max_k=2)
    assert empty_family.trap_sets(2).resolved
    assert not empty_family.trap_sets(2).trap_core
    announce(
        9,
        f"segment samples {{n}} exhaustive for n <= 8; offset-power samples of size <= 2 for n <= 8; "
        f"{resolved_families} trap families correct on k <= 2",
    )


def test_criterion_10_halting_family(default_catalog):
    rows, report = read_default(default_catalog, "halting-psd")
    assert report["config"]["w_set"] == [1, 3]
    assert [(row["w"], row["index"]) for row in rows] == [
        (w, 2 * i + 1) for w in ("empty", "{1,3}") for i in range(11)
    ]
    for row in rows:
        assert row["correct"] == 1 and row["distinct_data"] <= 2, row
    # the experiment's ok holds every first emission to the initial hypothesis
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
