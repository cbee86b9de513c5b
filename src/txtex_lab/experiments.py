"""Experiment catalog: each experiment writes results.csv, report.json and a
config echo into its output directory, deterministically for a fixed config.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import adversary, agents, families
from .codec import poly_encode
from .evaluate import check_characteristic_sample, evaluate_run, hypothesis_correct
from .session import Budget, MembershipOracle, compose_pair, run_session
from .text import make_text


class ConfigError(ValueError):
    """An experiment config value is out of range; raised before any file is written."""


@dataclass
class ExperimentResult:
    columns: list[str]
    rows: list[tuple]
    summary: dict
    ok: bool = True
    partial: bool = False
    extra_files: dict = field(default_factory=dict)  # filename -> text content


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    defaults: dict
    fn: Callable[[dict], ExperimentResult]


def _teacher_item_count(transcript) -> int:
    return sum(len(event.payload[1]) for event in transcript.events if event.kind == "teach")


# ---------------------------------------------------------------------------
# pow2-gap: plain vs oracle vs teacher on the dyadic intervals


def _pow2_gap(config: dict) -> ExperimentResult:
    family = families.make_basic_family("pow2")
    catalog = agents.make_basic_agents()
    lo, hi = config["n_range"]
    rows = []
    ok = True
    for n in range(lo, hi + 1):
        target = family.member(n)
        horizon = 2**n + 50
        text = family.canonical_text(n)

        plain = run_session(
            catalog["pow2_plain_learner"], text, budget=Budget(horizon=horizon, window=20)
        )
        oracle_run = run_session(
            catalog["pow2_oracle_learner"],
            text,
            oracle=MembershipOracle(target),
            budget=Budget(horizon=horizon),
        )
        learner, teacher_factory = catalog["pow2_teacher_pair"]
        pair = run_session(
            learner, text, teacher=teacher_factory(), budget=Budget(horizon=horizon, window=20)
        )

        plain_distinct = plain.convergence.distinct_data if plain.converged else -1
        queries = oracle_run.ledger.oracle_queries
        teacher_items = _teacher_item_count(pair)
        rows.append((n, plain_distinct, queries, teacher_items))
        ok = ok and plain.final_hypothesis == n == oracle_run.final_hypothesis
        ok = ok and pair.final_hypothesis == n
        ok = ok and plain_distinct == 2**n + 1
        ok = ok and queries <= (n + 2) ** 3
        ok = ok and teacher_items <= n + 2
    return ExperimentResult(
        columns=["n", "plain_distinct", "oracle_queries", "teacher_items"],
        rows=rows,
        summary={
            "distinct_is_exponential": all(r[1] == 2 ** r[0] + 1 for r in rows),
            "oracle_query_bound": "(n+2)^3",
            "teacher_item_bound": "n+2",
        },
        ok=ok,
    )


# ---------------------------------------------------------------------------
# msd-linear: teacher pair run time scales linearly in the index


def _msd_linear(config: dict) -> ExperimentResult:
    registry = agents.build_default_registry()
    family = families.make_msd(registry, config["learner_id"], poly_encode(config["poly"]))
    learner, teacher_factory = agents.make_msd_pair()
    rows = []
    ok = True
    seeds = list(range(config["seeds"]))
    for n in range(0, config["max_n"] + 1):
        target = family.member(n)
        texts = [family.canonical_text(n)]
        texts += [make_text("seeded", target, seed=s) for s in seeds]
        ticks = None
        for text in texts:
            transcript = run_session(
                learner,
                text,
                teacher=teacher_factory(),
                budget=Budget(horizon=n + 60, window=20),
            )
            ok = ok and transcript.converged and transcript.final_hypothesis == n
            if ticks is None:
                ticks = transcript.convergence.ticks
        rows.append((n, ticks))
    # one-parameter fit ticks ~= c*(n+1), least squares
    num = sum(t * (n + 1) for n, t in rows)
    den = sum((n + 1) ** 2 for n, _ in rows)
    c = num / den
    max_residual = max(abs(t - c * (n + 1)) for n, t in rows)
    ok = ok and max_residual <= c
    return ExperimentResult(
        columns=["n", "ticks_at_convergence"],
        rows=rows,
        summary={"fit_c": round(c, 6), "max_residual": round(max_residual, 6)},
        ok=ok,
    )


# ---------------------------------------------------------------------------
# msd-defeat: oracle learners cannot split the targeted descriptor pair


def _msd_defeat(config: dict) -> ExperimentResult:
    registry = agents.build_default_registry()
    p_code = poly_encode(config["poly"])
    rows = []
    reports = []
    extra_files = {}
    ok = True
    for m_id in config["learner_ids"]:
        report, transcripts = adversary.msd_defeat(registry, m_id, p_code)
        rows.append(
            (
                m_id,
                report.learner_name,
                report.prefix_length,
                int(report.transcripts_identical),
                len(report.wrong_for),
            )
        )
        reports.append(report.__dict__)
        for side, transcript in enumerate(transcripts):
            name = f"defeat_m{m_id}_target{side}.jsonl"
            extra_files[name] = transcript.events_jsonl() + "\n" + transcript.ledger_json() + "\n"
        ok = ok and report.transcripts_identical and len(report.wrong_for) >= 1
    return ExperimentResult(
        columns=["learner_id", "learner", "prefix_length", "transcripts_identical", "wrong_for"],
        rows=rows,
        summary={"reports": reports},
        ok=ok,
        extra_files=extra_files,
    )


# ---------------------------------------------------------------------------
# csd-chain: oracle learner exactness, query growth, forced mind changes


def _csd_chain(config: dict) -> ExperimentResult:
    family = families.make_csd()
    learner = agents.make_csd_learner()
    max_anchor = config["max_anchor"]
    top_index = family.table.anchor(max_anchor) + family.table.top(max_anchor)
    rows = []
    ok = True
    for n in range(0, top_index + 1):
        target = family.member(n)
        transcript = run_session(
            learner,
            family.canonical_text(n),
            oracle=MembershipOracle(target),
            budget=Budget(horizon=80),
        )
        expected = family.min_index(n)
        queries = transcript.ledger.oracle_queries
        rows.append((n, transcript.final_hypothesis, expected, queries))
        ok = ok and transcript.final_hypothesis == expected
    cubic_c = max(q / (mi + 2) ** 3 for _, _, mi, q in rows)
    chain = family.chain_indices(config["chain_anchor"])[: config["chain_length"]]
    chaser = adversary.make_chain_chaser(family, chain)
    forced = adversary.chain_force(chaser, None, chain, family)
    pair_learner, teacher_factory = agents.make_msd_pair()
    witness = adversary.chain_force(
        pair_learner, teacher_factory, chain, family, max_ext_len=2, max_candidates=2000
    )
    ok = ok and forced.status == "forced" and forced.forced_mind_changes >= len(chain)
    ok = ok and witness.status in ("forced", "failure-witness")
    return ExperimentResult(
        columns=["n", "hypothesis", "min_index", "oracle_queries"],
        rows=rows,
        summary={
            "query_cubic_coefficient": round(cubic_c, 6),
            "chain": chain,
            "forced_status": forced.status,
            "forced_mind_changes": forced.forced_mind_changes,
            "forcing_prefix": forced.prefix,
            "reference_pair_status": witness.status,
            "reference_pair_witness": witness.witness_index,
        },
        ok=ok,
    )


# ---------------------------------------------------------------------------
# merged-split: branch learner correct on both parities, one extra query


def _merged_split(config: dict) -> ExperimentResult:
    registry = agents.build_default_registry()
    family = families.make_merged(registry, config["learner_id"], poly_encode(config["poly"]))
    merged_learner = agents.make_merged_learner()
    csd3 = families.CsdFamily(3)
    csd3_learner = agents.make_csd_learner(csd3.table)
    msd_learner, msd_teacher = agents.make_msd_pair()
    composed = compose_pair(lambda: msd_learner, msd_teacher)
    rows = []
    ok = True
    for n in range(0, config["max_index"] + 1):
        target = family.member(n)
        transcript = run_session(
            merged_learner,
            family.canonical_text(n),
            oracle=MembershipOracle(target),
            budget=Budget(horizon=120, window=15),
        )
        if n % 2 == 0:
            component = run_session(
                csd3_learner,
                csd3.canonical_text(n // 2),
                oracle=MembershipOracle(target),
                budget=Budget(horizon=120),
            )
        else:
            component = run_session(
                composed,
                family.canonical_text(n),
                budget=Budget(horizon=120, window=15),
            )
        extra = transcript.ledger.oracle_queries - component.ledger.oracle_queries
        correct = transcript.final_hypothesis == family.min_index(n)
        rows.append(
            (n, transcript.final_hypothesis, family.min_index(n), transcript.ledger.oracle_queries, extra)
        )
        ok = ok and correct and extra == 1
        ok = ok and (transcript.final_hypothesis % 2 == n % 2)
    return ExperimentResult(
        columns=["n", "hypothesis", "min_index", "oracle_queries", "extra_vs_component"],
        rows=rows,
        summary={"extra_query_always_one": all(r[4] == 1 for r in rows)},
        ok=ok,
    )


# ---------------------------------------------------------------------------
# psd-finite: the size+mask learner on finite sets, plus the shared-prefix demo


def _psd_finite(config: dict) -> ExperimentResult:
    family = families.make_basic_family("finite-canonical")
    learner = agents.make_finite_psd_learner()
    poly = poly_encode(config["poly"])
    rows = []
    ok = True
    sets = [frozenset(s) for s in config["sets"]]
    for content in sets:
        index = family.index_of_set(content)
        transcript = run_session(
            learner,
            family.canonical_text(index),
            budget=Budget(horizon=len(content) + 30, window=10),
        )
        verdict = evaluate_run(transcript, family, index, poly, "PSD")
        rows.append(
            (
                index,
                len(content),
                transcript.ledger.distinct_data,
                verdict.passed,
                verdict.reason,
            )
        )
        ok = ok and verdict.passed
    index_a = family.index_of_set(frozenset(config["overlap_pair"][0]))
    index_b = family.index_of_set(frozenset(config["overlap_pair"][1]))
    text_a, text_b = adversary.repeat_prefix_texts(
        family, index_a, index_b, config["shared_element"], poly_encode([1, 1])
    )
    shared = len(text_a.prefix)
    run_a = run_session(learner, text_a, budget=Budget(horizon=shared + 20, window=5))
    run_b = run_session(learner, text_b, budget=Budget(horizon=shared + 20, window=5))
    hyp_a = [e for e in run_a.emissions if e.position <= shared][-1].hypothesis
    hyp_b = [e for e in run_b.emissions if e.position <= shared][-1].hypothesis
    ok = ok and hyp_a == hyp_b
    return ExperimentResult(
        columns=["index", "set_size", "distinct_data", "psd_pass", "reason"],
        rows=rows,
        summary={
            "shared_prefix_length": shared,
            "hypothesis_at_shared_prefix": [hyp_a, hyp_b],
            "same_hypothesis_on_both": hyp_a == hyp_b,
        },
        ok=ok,
    )


# ---------------------------------------------------------------------------
# conversions-roundtrip


def _conversions(config: dict) -> ExperimentResult:
    family = families.make_basic_family("pow2")
    catalog = agents.make_basic_agents()
    poly = poly_encode([2, 1])
    pair_learner, pair_teacher = catalog["pow2_teacher_pair"]
    gated = agents.convert_psdT_to_pmc(pair_learner, pair_teacher)
    decoder, encoder_factory = agents.convert_pmc_to_psdT(catalog["pow2_pmc_learner"])
    rows = []
    ok = True
    seeds = list(range(config["seeds_per_n"]))
    for n in range(0, config["max_n"] + 1):
        target = family.member(n)
        texts = [family.canonical_text(n)]
        texts += [make_text("seeded", target, seed=s) for s in seeds]
        for t_i, text in enumerate(texts):
            budget = Budget(horizon=2**n + 60, window=20)
            pmc_run = run_session(gated, text, budget=budget)
            pmc_verdict = evaluate_run(pmc_run, family, n, poly, "PMC")
            psd_run = run_session(decoder, text, teacher=encoder_factory(), budget=budget)
            psd_verdict = evaluate_run(psd_run, family, n, poly, "PSD")
            round_ok = (
                pmc_run.final_hypothesis == psd_run.final_hypothesis == n
                and psd_run.ledger.distinct_data <= 2
            )
            rows.append(
                (
                    n,
                    t_i,
                    pmc_run.ledger.mind_changes,
                    int(pmc_verdict.passed),
                    psd_run.ledger.distinct_data,
                    int(psd_verdict.passed),
                    int(round_ok),
                )
            )
            ok = ok and pmc_verdict.passed and psd_verdict.passed and round_ok
    return ExperimentResult(
        columns=[
            "n",
            "text",
            "pmc_mind_changes",
            "pmc_pass",
            "psdT_distinct",
            "psdT_pass",
            "roundtrip_ok",
        ],
        rows=rows,
        summary={"sessions": len(rows)},
        ok=ok,
    )


# ---------------------------------------------------------------------------
# pcs-suite


def _pcs_suite(config: dict) -> ExperimentResult:
    poly = poly_encode([2, 1])
    rows = []
    ok = True
    partial = False

    pcsg = families.make_basic_family("pcs-G")
    for n in range(1, config["max_g"] + 1):
        verdict = check_characteristic_sample(
            agents.make_pcsG_oracle_learner,
            pcsg,
            n,
            [n],
            poly,
            max_text_len=4,
            max_universe=20,
        )
        rows.append(("pcs-G", n, 1, int(verdict.passed), verdict.reason))
        ok = ok and verdict.passed

    t64 = families.make_thm64_g()
    for n in range(1, config["max_thm64"] + 1):
        index = 2 * n
        sample = [2 * n, 2 * 2**n + 1]
        verdict = check_characteristic_sample(
            agents.make_thm64_pcs_learner,
            t64,
            index,
            sample,
            poly,
            max_text_len=3,
            max_universe=2 * 2**n + 2,
            use_oracle=False,
            seed=config["seed"],
        )
        rows.append(("offset-power", index, len(sample), int(verdict.passed), verdict.reason))
        ok = ok and verdict.passed

    joins = families.make_basic_family("join-singletons")
    for n in range(0, config["max_join"] + 1):
        verdict = check_characteristic_sample(
            agents.make_join_evens_learner,
            joins,
            n,
            [2 * n],
            poly,
            max_text_len=3,
            max_universe=2 * n + 6,
            use_oracle=False,
            seed=config["seed"],
        )
        rows.append(("join-singletons", n, 1, int(verdict.passed), verdict.reason))
        ok = ok and verdict.passed

    registry = agents.build_default_registry()
    for m_id, p_coeffs in config["trap_learners"]:
        p_code = poly_encode(p_coeffs)
        family = families.make_pcs_f(
            registry,
            m_id,
            p_code,
            max_k=config["max_k"],
            search_budgets=config.get("trap_budgets"),
        )
        try:
            pcs_agents = agents.make_pcsF_agents(family)
        except ValueError:
            partial = True
            continue
        pair_learner, teacher_factory = pcs_agents["teacher_pair"]
        for k in range(0, config["max_k"]):
            for index in (2 * k, 2 * k + 1):
                transcript = run_session(
                    pair_learner,
                    family.canonical_text(index),
                    teacher=teacher_factory(),
                    budget=Budget(horizon=90, window=10),
                )
                good = transcript.converged and transcript.final_hypothesis == index
                rows.append((f"trap-pair(m={m_id})", index, -1, int(good), "session"))
                ok = ok and good
                pmc_run = run_session(
                    pcs_agents["pmc_learner"],
                    family.canonical_text(index),
                    budget=Budget(horizon=90, window=10),
                )
                good_pmc = (
                    pmc_run.converged
                    and hypothesis_correct(family, pmc_run.final_hypothesis, index)
                    and pmc_run.ledger.mind_changes <= 2
                )
                rows.append((f"trap-pmc(m={m_id})", index, -1, int(good_pmc), "session"))
                ok = ok and good_pmc
    return ExperimentResult(
        columns=["check", "index", "sample_size", "passed", "note"],
        rows=rows,
        summary={"checks": len(rows)},
        ok=ok,
        partial=partial,
    )


# ---------------------------------------------------------------------------
# halting-psd


def _halting(config: dict) -> ExperimentResult:
    learner = agents.make_halting_psd_learner()
    rows = []
    ok = True
    for w_name, w in (("empty", frozenset()), ("{1,3}", frozenset(config["w_set"]))):
        family = families.make_halting_family(w)
        for i in range(0, config["max_i"] + 1):
            index = 2 * i + 1
            transcript = run_session(
                learner,
                family.canonical_text(index),
                budget=Budget(horizon=30, window=5),
            )
            first_emit = transcript.emissions[0].hypothesis
            correct = hypothesis_correct(family, transcript.final_hypothesis, index)
            distinct = transcript.ledger.distinct_data
            rows.append((w_name, index, transcript.final_hypothesis, int(correct), distinct))
            ok = ok and correct and distinct <= 2 and first_emit == 6
    return ExperimentResult(
        columns=["w", "index", "hypothesis", "correct", "distinct_data"],
        rows=rows,
        summary={"initial_hypothesis": 6},
        ok=ok,
    )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            "pow2-gap",
            "distinct-data vs oracle-query vs teacher-item costs on dyadic intervals",
            {"n_range": [1, 12], "seed": 0},
            _pow2_gap,
        ),
        ExperimentSpec(
            "msd-linear",
            "descriptor teacher pair: hypothesis = index, ticks linear in index",
            {"max_n": 100, "learner_id": 0, "poly": [0, 1], "seeds": 10, "seed": 0},
            _msd_linear,
        ),
        ExperimentSpec(
            "msd-defeat",
            "marker-trapped descriptor family defeats registered oracle learners",
            {"learner_ids": [3, 4, 0], "poly": [0, 1], "seed": 0},
            _msd_defeat,
        ),
        ExperimentSpec(
            "csd-chain",
            "chain-column family: oracle learner exact, forced mind changes on chains",
            {"max_anchor": 5, "chain_anchor": 5, "chain_length": 2, "seed": 0},
            _csd_chain,
        ),
        ExperimentSpec(
            "merged-split",
            "parity-merged family: one oracle probe picks the branch",
            {"learner_id": 0, "poly": [0, 1], "max_index": 24, "seed": 0},
            _merged_split,
        ),
        ExperimentSpec(
            "psd-finite",
            "size+mask learner on finite sets; shared-prefix indistinguishability",
            {
                "poly": [2, 2, 1],
                "sets": [[0], [0, 2], [1, 3, 4], [0, 1, 2, 3], [2, 5, 9]],
                "overlap_pair": [[0, 2], [0, 5]],
                "shared_element": 0,
                "seed": 0,
            },
            _psd_finite,
        ),
        ExperimentSpec(
            "conversions-roundtrip",
            "teacher-dataset and mind-change conversions preserve learning",
            {"max_n": 10, "seeds_per_n": 5, "seed": 0},
            _conversions,
        ),
        ExperimentSpec(
            "pcs-suite",
            "characteristic samples: segments, joins, offset powers, trap families",
            {
                "max_g": 8,
                "max_thm64": 8,
                "max_join": 8,
                "max_k": 2,
                "trap_learners": [[1, [0]], [2, [0]]],
                "seed": 0,
            },
            _pcs_suite,
        ),
        ExperimentSpec(
            "halting-psd",
            "two distinct data suffice on the staged pair family",
            {"max_i": 10, "w_set": [1, 3], "seed": 0},
            _halting,
        ),
    ]
}


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _check_config(config: dict) -> None:
    max_n = config.get("max_n")
    if max_n is not None and (type(max_n) is not int or max_n < 0):
        raise ConfigError(f"max_n must be a natural number, got {max_n!r}")


def run_experiment(name: str, config: dict | None, out_dir) -> int:
    """Execute one experiment; returns the process exit code.

    Raises :class:`ConfigError` for an out-of-range config before the output
    directory is created.
    """
    if name not in EXPERIMENTS:
        raise KeyError(name)
    spec = EXPERIMENTS[name]
    merged = {**spec.defaults, **(config or {})}
    _check_config(merged)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    result = spec.fn(merged)

    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        writer.writerows(result.rows)

    report = {
        "experiment": name,
        "description": spec.description,
        "config": merged,
        "config_sha256": config_hash(merged),
        "columns": result.columns,
        "row_count": len(result.rows),
        "summary": result.summary,
        "ok": result.ok,
        "partial": result.partial,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(merged, sort_keys=True, indent=2) + "\n")
    for filename, content in sorted(result.extra_files.items()):
        (out / filename).write_text(content)

    if result.partial:
        return 3
    return 0 if result.ok else 1
