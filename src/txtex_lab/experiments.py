"""Experiment catalog: each experiment writes results.csv, report.json and a
config echo into its output directory, deterministically for a fixed config.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import adversary, agents, families
from .codec import poly_encode
from .evaluate import check_characteristic_sample, evaluate_run, hypothesis_correct
from .session import ActionBudgetExceeded, Budget, compose_pair, run_session
from .text import make_text


class ConfigError(ValueError):
    """An experiment config has an unknown key or a mistyped or out-of-range value.

    Raised before any file is written.
    """


@dataclass
class ExperimentResult:
    columns: list[str]
    rows: list[tuple]
    summary: dict
    ok: bool = True
    partial: bool = False
    extra_files: dict = field(default_factory=dict)  # filename -> text content


class ConfigType(NamedTuple):
    """What a config value must be, and the check that decides it."""

    description: str
    check: Callable[[object], bool]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    defaults: dict  # besides ``seed``, which every experiment accepts and defaults to 0
    fn: Callable[[dict], ExperimentResult]
    schema: dict[str, ConfigType]  # every accepted key but ``seed``: the same keys as ``defaults``
    # checks that relate values of a well-typed config; raises ConfigError
    check_values: Callable[[dict], None] | None = None
    # upper bounds of natural sweep keys, each set from a stated cost
    caps: dict[str, int] = field(default_factory=dict)


def _texts(family, n: int, seeds: int) -> list:
    """Member n's canonical text, then one seeded text for each seed below ``seeds``."""
    target = family.member(n)
    return [family.canonical_text(n)] + [make_text("seeded", target, seed=s) for s in range(seeds)]


def _teacher_item_count(transcript) -> int:
    return sum(len(event.payload[1]) for event in transcript.events if event.kind == "teach")


# ---------------------------------------------------------------------------
# pow2-gap: plain vs oracle vs teacher on the dyadic intervals


def _pow2_gap(config: dict) -> ExperimentResult:
    family = families.make_basic_family("pow2")
    catalog = agents.make_basic_agents()
    lo, hi = config["n_range"]
    rows, out_of_ticks = [], []
    ok = exponential = True
    for n in range(lo, hi + 1):
        target = family.member(n)
        horizon = 2**n + 50
        text = family.canonical_text(n)

        plain = run_session(
            catalog["pow2_plain_learner"], text, budget=Budget(horizon=horizon, window=20)
        )
        oracle_run = run_session(
            catalog["pow2_oracle_learner"], text, oracle=target, budget=Budget(horizon=horizon)
        )
        learner, teacher_factory = catalog["pow2_teacher_pair"]
        pair = run_session(
            learner, text, teacher=teacher_factory(), budget=Budget(horizon=horizon, window=20)
        )

        plain_distinct = plain.convergence.distinct_data if plain.converged else -1
        queries = oracle_run.ledger.oracle_queries
        teacher_items = _teacher_item_count(pair)
        rows.append((n, plain_distinct, queries, teacher_items))
        sessions = {"plain": plain, "oracle": oracle_run, "teacher-pair": pair}
        ended = [[n, name] for name, run in sessions.items() if run.end_reason == "ticks"]
        out_of_ticks += ended
        if not ended:  # a row whose meter ran out, not the claim, decides nothing
            exponential = exponential and plain_distinct == 2**n + 1
            ok = ok and plain.final_hypothesis == n == oracle_run.final_hypothesis
            ok = ok and pair.final_hypothesis == n
            ok = ok and queries <= (n + 2) ** 3
            ok = ok and teacher_items <= n + 2
        del plain, oracle_run, pair, sessions  # free index n's transcripts before n + 1 runs
    return ExperimentResult(
        columns=["n", "plain_distinct", "oracle_queries", "teacher_items"],
        rows=rows,
        summary={
            "distinct_is_exponential": exponential,
            "oracle_query_bound": "(n+2)^3",
            "teacher_item_bound": "n+2",
            **({"out_of_ticks": out_of_ticks} if out_of_ticks else {}),
        },
        ok=ok and exponential,
        partial=bool(out_of_ticks),
    )


# ---------------------------------------------------------------------------
# msd-linear: teacher pair run time scales linearly in the index


def _msd_linear(config: dict) -> ExperimentResult:
    registry = agents.build_default_registry()
    family = families.make_msd(registry, config["learner_id"], poly_encode(config["poly"]), None)
    learner, teacher_factory = agents.make_msd_pair()
    rows = []
    ok = True
    for n in range(0, config["max_n"] + 1):
        horizon = n + 60
        ticks = None
        # a session reads at most `horizon` raw positions, and its learner and teacher
        # start fresh, so texts that agree that far give the same transcript
        already_run = set()
        for text in _texts(family, n, config["seeds"]):
            prefix = tuple(itertools.islice(text.stream(), horizon))
            if prefix in already_run:
                continue
            already_run.add(prefix)
            transcript = run_session(
                learner,
                text,
                teacher=teacher_factory(),
                budget=Budget(horizon=horizon, window=20),
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
        family = families.make_msd(registry, m_id, p_code)
        report, transcripts = adversary.msd_defeat(family)
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


def _extension_space(family, chain: list[int]) -> int:
    """Sum over the chain of |A| + |A|**2, A a member's elements below the universe; capped."""
    space = 0
    for index in chain:
        size = len(family.member(index).elements_up_to(adversary.CHAIN_FORCE_UNIVERSE))
        space += size + size * size
        if space >= CSD_PAIR_MAX_CANDIDATES:
            return CSD_PAIR_MAX_CANDIDATES
    return space


def _csd_chain(config: dict) -> ExperimentResult:
    family = families.make_csd()
    learner = agents.make_csd_learner()
    max_anchor = config["max_anchor"]
    top_index = family.anchor(max_anchor) + family.top(max_anchor)
    rows = []
    ok = True
    for n in range(0, top_index + 1):
        target = family.member(n)
        transcript = run_session(
            learner, family.canonical_text(n), oracle=target, budget=Budget(horizon=80)
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
    # The budget covers the pair's whole search space, so only a space past
    # the cap can leave it inconclusive.
    witness = adversary.chain_force(
        pair_learner,
        teacher_factory,
        chain,
        family,
        max_ext_len=2,
        max_candidates=_extension_space(family, chain),
    )
    ok = ok and cubic_c <= 4.0  # queries <= 4.0*(min_index+2)^3 on every row
    ok = ok and forced.status == "forced" and forced.forced_mind_changes >= len(chain)
    # the descriptor pair cannot be led up the chain: some member is a failure witness
    ok = ok and witness.status == "failure-witness"
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
        partial="inconclusive" in (forced.status, witness.status),
    )


# ---------------------------------------------------------------------------
# merged-split: branch learner correct on both parities, one extra query


def _merged_split(config: dict) -> ExperimentResult:
    registry = agents.build_default_registry()
    family = families.make_merged(registry, config["learner_id"], poly_encode(config["poly"]))
    merged_learner = agents.make_merged_learner()
    csd3 = families.CsdFamily(3)
    csd3_learner = agents.make_csd_learner(csd3)
    msd_learner, msd_teacher = agents.make_msd_pair()
    composed = compose_pair(msd_learner, msd_teacher)
    rows = []
    ok = True
    for n in range(0, config["max_index"] + 1):
        # an odd index's descriptor count is read from about n raw positions
        horizon = max(120, n + 60)
        target = family.member(n)
        transcript = run_session(
            merged_learner,
            family.canonical_text(n),
            oracle=target,
            budget=Budget(horizon=horizon, window=15),
        )
        if n % 2 == 0:
            component = run_session(
                csd3_learner,
                csd3.canonical_text(n // 2),
                oracle=target,
                budget=Budget(horizon=horizon),
            )
        else:
            component = run_session(
                composed,
                family.canonical_text(n),
                budget=Budget(horizon=horizon, window=15),
            )
        extra = transcript.ledger.oracle_queries - component.ledger.oracle_queries
        expected = family.min_index(n)
        rows.append(
            (n, transcript.final_hypothesis, expected, transcript.ledger.oracle_queries, extra)
        )
        ok = ok and transcript.final_hypothesis == expected and extra == 1
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
    index_a, index_b = (family.index_of_set(frozenset(s)) for s in config["overlap_pair"])
    texts = adversary.repeat_prefix_texts(
        family, index_a, index_b, config["shared_element"], poly_encode([1, 1])
    )
    shared = len(texts[0].prefix)
    budget = Budget(horizon=shared + 20, window=5)
    hyp_a, hyp_b = (
        [
            e.hypothesis
            for e in run_session(learner, text, budget=budget).emissions
            if e.position <= shared
        ][-1]
        for text in texts
    )
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
    for n in range(0, config["max_n"] + 1):
        for t_i, text in enumerate(_texts(family, n, config["seeds_per_n"])):
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
            max_universe=max(20, n),
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
        family = families.make_pcs_f(registry, m_id, p_code, max_k=config["max_k"])
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


def _is_natural(value) -> bool:
    return type(value) is int and value >= 0


def _list_of(check: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: type(value) is list and all(map(check, value))


_is_naturals = _list_of(_is_natural)


def _is_poly(value) -> bool:
    return _is_naturals(value) and len(value) > 0


def _is_learner_id(value) -> bool:
    return _is_natural(value) and value in agents.build_default_registry()


def _is_trap_learner(value) -> bool:
    """``[step learner id, coefficients]``: the trap search steps its learner."""
    return (
        type(value) is list
        and len(value) == 2
        and _is_learner_id(value[0])
        and agents.build_default_registry()[value[0]].step is not None
        and _is_poly(value[1])
    )


def _pow2_gap_values(config: dict) -> None:
    """The sweep starts at n = 1, where the 2^n + 1 distinct-data claim starts to hold.

    At n = 0 the collector's first guess, 0, already names [0, 1], so it
    converges after one datum.
    """
    if config["n_range"][0] == 0:
        raise ConfigError(f"n_range must start at 1 or above, got {config['n_range']}")


def _marker_values(stretch: int, cap: int | None = None) -> Callable[[dict], None]:
    """Checks for a marker family: poly must grow, and each named learner's prefix must
    fit ``cap`` (None: any) and take it at most ``adversary.COMPUTE_Q_MAX_ACTIONS`` to read."""

    def check(config: dict) -> None:
        poly = config["poly"]
        m_ids = config["learner_ids"] if "learner_ids" in config else [config["learner_id"]]
        try:
            families.require_increasing_poly(poly)
            ells = {m_id: families.marker_prefix_length(poly, m_id, stretch, cap) for m_id in m_ids}
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        registry = agents.build_default_registry()
        for m_id, ell in ells.items():
            try:
                adversary.compute_q(registry[m_id], ell)
            except ActionBudgetExceeded:
                raise ConfigError(
                    f"learner {m_id} exceeds {adversary.COMPUTE_Q_MAX_ACTIONS} actions "
                    f"on the marker prefix of length {ell}"
                ) from None

    return check


def _psd_finite_values(config: dict) -> None:
    """Every set has a text, and the overlap pair is two sets sharing the element."""
    if [] in config["sets"]:
        raise ConfigError("sets must not contain an empty set")
    first, second = config["overlap_pair"]
    shared = config["shared_element"]
    if shared not in first or shared not in second:
        raise ConfigError(
            f"shared_element {shared} must be in both overlap_pair sets {first} and {second}"
        )
    if set(first) == set(second):
        raise ConfigError(f"overlap_pair must be two different sets, got {first} and {second}")


# Most indices the csd-chain sweep may cover; it runs one oracle session each.
CSD_CHAIN_MAX_SWEEP = 1_000
# Most candidates the csd-chain reference pair may search; read at call time.
CSD_PAIR_MAX_CANDIDATES = 100_000
# Greatest pcs-suite offset-power n: its check lists a universe of 2^n + 2 elements.
# The whole suite took 0.54 s / 32 MB at 18, 0.78 s / 67 MB at 20 and 2.7 s / 210 MB
# at 22 (ru_maxrss, Python 3.11); the list doubles with each n past that.
PCS_SUITE_MAX_THM64 = 20
# Greatest pcs-suite pcs-G n: each n from 17 on is a sampled check of 10,000 seeded
# draws over the member's n + 1 elements, so time grows linearly.  max_g 100 / 200 /
# 400 took 2.7 / 7.1 / 15.1 s at 20 MB peak RSS (Python 3.11, 2 cores).
PCS_SUITE_MAX_G = 200
# Greatest pcs-suite join-singletons n: its universe has n + 4 elements, and each n
# from 43 on is a sampled check of 10,000 seeded draws.  max_join 100 / 200 / 400
# took 1.8 / 3.0 / 6.8 s at 20 MB peak RSS (Python 3.11, 2 cores).
PCS_SUITE_MAX_JOIN = 200


# Greatest msd-linear index: it runs at most 3! = 6 distinct texts per n, each to
# horizon n + 60, so its time grows with the square of max_n.  max_n 100 / 200 / 400
# took 0.21 / 0.68 / 2.8 s and 800 took 10.6 s, all at about 20 MB (Python 3.11, 2 cores);
# the cap keeps a run within a few seconds.
MSD_LINEAR_MAX_N = 400
# Most msd-linear seeds: each seeded text is built and keyed by its first n + 60
# elements even when its session is skipped.  Seeds 100 / 1,000 took 0.24 / 1.6 s at
# max_n 100 and 2.2 / 9.5 s at max_n 400, all at about 20 MB (Python 3.11, 2 cores).
MSD_LINEAR_MAX_SEEDS = 100
# Greatest conversions-roundtrip index: its horizon is 2^n + 60, so time and memory
# double with each n.  max_n 14 / 15 / 16 / 17 took 0.49 / 0.93 / 2.6 / 5.2 s at
# 25 / 33 / 42 / 64 MB peak RSS (Python 3.11, 2 cores).
CONVERSIONS_ROUNDTRIP_MAX_N = 16
# Most conversions-roundtrip seeds per index: each seed runs two sessions to horizon
# 2^n + 60 for every n, so time grows linearly with it.  At max_n 16, seeds_per_n
# 10 / 20 took 4.7 / 8.9 s at 42 MB peak RSS (Python 3.11, 2 cores).
CONVERSIONS_ROUNDTRIP_MAX_SEEDS = 20
# Greatest merged-split index: it runs two sessions per n, each to horizon
# max(120, n + 60), so its time grows with the square of max_index.  max_index
# 300 / 1,000 / 2,000 took 0.24 / 1.8 / 7.8 s at 21-22 MB peak RSS (Python 3.11, 2 cores).
MERGED_SPLIT_MAX_INDEX = 1_000


def _csd_chain_values(config: dict) -> None:
    """The chain anchor lies in the swept table, above anchor 0, and the sweep is bounded.

    Anchor 0's chain is a lone top set whose index the chaser emits before any
    datum, so it forces nothing; a larger anchor than the sweep's can have a
    chain too long to build.  A ``max_anchor`` of i sweeps anchor(i) + top(i)
    + 1 indices, a count growing with i; the walk stops at the first i whose
    sweep passes the limit, so a huge ``max_anchor`` is rejected as fast as 25.
    """
    anchor, max_anchor = config["chain_anchor"], config["max_anchor"]
    if not 1 <= anchor <= max_anchor:
        raise ConfigError(
            f"chain_anchor must be between 1 and max_anchor {max_anchor}, got {anchor}"
        )
    chains = families.CsdFamily(1)
    for i in range(max_anchor + 1):
        if chains.anchor(i) + chains.top(i) + 1 > CSD_CHAIN_MAX_SWEEP:
            raise ConfigError(f"max_anchor must be at most {i - 1}, got {max_anchor}")


# Greatest swept i of W with a printable tower index 2^(2^i): Python prints ints of
# at most 4,300 digits, and 2^(2^14) has 4,933.
HALTING_MAX_TOWER = 13


def _halting_values(config: dict) -> None:
    """Every i of W that the sweep reaches keeps its tower index printable."""
    too_big = [w for w in config["w_set"] if HALTING_MAX_TOWER < w <= config["max_i"]]
    if too_big:
        raise ConfigError(
            f"swept w_set members (those <= max_i) must be at most {HALTING_MAX_TOWER}, "
            f"got {too_big[0]}"
        )


INTEGER = ConfigType("an integer", lambda v: type(v) is int)
NATURAL = ConfigType("a natural number", _is_natural)
POSITIVE = ConfigType("a positive integer", lambda v: type(v) is int and v >= 1)
NATURALS = ConfigType("a list of natural numbers", _is_naturals)
POLY = ConfigType("a nonempty list of natural coefficients", _is_poly)
N_RANGE = ConfigType(
    "[lo, hi] with natural lo <= hi", lambda v: _is_naturals(v) and len(v) == 2 and v[0] <= v[1]
)
LEARNER_ID = ConfigType("a registered learner id", _is_learner_id)
LEARNER_IDS = ConfigType("a list of registered learner ids", _list_of(_is_learner_id))
NATURAL_SETS = ConfigType("a list of lists of natural numbers", _list_of(_is_naturals))
NATURAL_SET_PAIR = ConfigType(
    "two lists of natural numbers", lambda v: NATURAL_SETS.check(v) and len(v) == 2
)
TRAP_LEARNERS = ConfigType(
    "a list of [step learner id, coefficients] pairs", _list_of(_is_trap_learner)
)

EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            "pow2-gap",
            "distinct-data vs oracle-query vs teacher-item costs on dyadic intervals",
            {"n_range": [1, 12]},
            _pow2_gap,
            {"n_range": N_RANGE},
            _pow2_gap_values,
        ),
        ExperimentSpec(
            "msd-linear",
            "descriptor teacher pair: hypothesis = index, ticks linear in index",
            {"max_n": 100, "learner_id": 0, "poly": [0, 1], "seeds": 10},
            _msd_linear,
            {"max_n": NATURAL, "learner_id": LEARNER_ID, "poly": POLY, "seeds": NATURAL},
            _marker_values(1),
            caps={"max_n": MSD_LINEAR_MAX_N, "seeds": MSD_LINEAR_MAX_SEEDS},
        ),
        ExperimentSpec(
            "msd-defeat",
            "marker-trapped descriptor family defeats registered oracle learners",
            {"learner_ids": [3, 4, 0], "poly": [0, 1]},
            _msd_defeat,
            {"learner_ids": LEARNER_IDS, "poly": POLY},
            _marker_values(1, families.MARKER_MAX_PREFIX),
        ),
        ExperimentSpec(
            "csd-chain",
            "chain-column family: oracle learner exact, forced mind changes on chains",
            {"max_anchor": 5, "chain_anchor": 5, "chain_length": 2},
            _csd_chain,
            {
                "max_anchor": NATURAL,
                "chain_anchor": NATURAL,
                "chain_length": POSITIVE,  # an empty chain forces nothing
            },
            _csd_chain_values,
        ),
        ExperimentSpec(
            "merged-split",
            "parity-merged family: one oracle probe picks the branch",
            {"learner_id": 0, "poly": [0, 1], "max_index": 24},
            _merged_split,
            {"learner_id": LEARNER_ID, "poly": POLY, "max_index": NATURAL},
            _marker_values(families.MERGED_STRETCH),
            caps={"max_index": MERGED_SPLIT_MAX_INDEX},
        ),
        ExperimentSpec(
            "psd-finite",
            "size+mask learner on finite sets; shared-prefix indistinguishability",
            {
                "poly": [2, 2, 1],
                "sets": [[0], [0, 2], [1, 3, 4], [0, 1, 2, 3], [2, 5, 9]],
                "overlap_pair": [[0, 2], [0, 5]],
                "shared_element": 0,
            },
            _psd_finite,
            {
                "poly": POLY,
                "sets": NATURAL_SETS,
                "overlap_pair": NATURAL_SET_PAIR,
                "shared_element": NATURAL,
            },
            _psd_finite_values,
        ),
        ExperimentSpec(
            "conversions-roundtrip",
            "teacher-dataset and mind-change conversions preserve learning",
            {"max_n": 10, "seeds_per_n": 5},
            _conversions,
            {"max_n": NATURAL, "seeds_per_n": NATURAL},
            caps={
                "max_n": CONVERSIONS_ROUNDTRIP_MAX_N,
                "seeds_per_n": CONVERSIONS_ROUNDTRIP_MAX_SEEDS,
            },
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
            },
            _pcs_suite,
            {
                "max_g": NATURAL,
                "max_thm64": NATURAL,
                "max_join": NATURAL,
                "max_k": NATURAL,
                "trap_learners": TRAP_LEARNERS,
            },
            caps={
                "max_g": PCS_SUITE_MAX_G,
                "max_thm64": PCS_SUITE_MAX_THM64,
                "max_join": PCS_SUITE_MAX_JOIN,
            },
        ),
        ExperimentSpec(
            "halting-psd",
            "two distinct data suffice on the staged pair family",
            {"max_i": 10, "w_set": [1, 3]},
            _halting,
            {"max_i": NATURAL, "w_set": NATURALS},
            _halting_values,
        ),
    ]
}


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _check_config(schema: dict[str, ConfigType], config: dict) -> None:
    unknown = sorted(set(config) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}; expected one of {sorted(schema)}")
    for key, value in config.items():
        if not schema[key].check(value):
            raise ConfigError(f"{key} must be {schema[key].description}, got {value!r}")


def run_experiment(name: str, config: dict | None, out_dir) -> int:
    """Execute one experiment; returns the process exit code.

    Raises :class:`ConfigError` for an unknown key, a value outside its
    schema type or above its cap, or values the spec's ``check_values``
    rejects, before the output directory is created.
    """
    if name not in EXPERIMENTS:
        raise KeyError(name)
    spec = EXPERIMENTS[name]
    merged = {**spec.defaults, "seed": 0, **(config or {})}
    _check_config({**spec.schema, "seed": INTEGER}, merged)
    for key, cap in spec.caps.items():
        if merged[key] > cap:
            raise ConfigError(f"{key} must be at most {cap}, got {merged[key]}")
    if spec.check_values is not None:
        spec.check_values(merged)
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
