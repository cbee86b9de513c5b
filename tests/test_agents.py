import hashlib
import itertools

import pytest

from txtex_lab import adversary, agents, families
from txtex_lab.adversary import marker_element
from txtex_lab.codec import encode_tuple, pair, poly_encode
from txtex_lab.descriptor import build_descriptor
from txtex_lab.evaluate import evaluate_run, hypothesis_correct
from txtex_lab.session import (
    READ,
    Budget,
    Learner,
    compose_pair,
    emit,
    query,
    run_on_sequence,
    run_session,
)
from txtex_lab.sets import FiniteSet, Interval
from txtex_lab.text import make_text


def counting_oracle(n):
    state = {"queries": 0}

    def probe(x):
        state["queries"] += 1
        return x <= n

    return probe, state


def test_exp_search_examples():
    probe, state = counting_oracle(0)
    assert agents.exp_query_search(probe, 2) == 0
    assert state["queries"] <= 2

    probe, state = counting_oracle(5)
    assert agents.exp_query_search(probe, 2) == 5

    for n in (1, 7, 63, 64, 100, 4096):
        probe, state = counting_oracle(n)
        assert agents.exp_query_search(probe, 2) == n
        assert state["queries"] <= agents.exp_search_query_bound(n, 2)


@pytest.fixture(scope="module")
def registry():
    return agents.build_default_registry()


@pytest.fixture(scope="module")
def msd_family(registry):
    return families.make_msd(registry, 0, poly_encode([0, 1]))


def test_msd_pair_identifies_all_orders(msd_family):
    learner, teacher_factory = agents.make_msd_pair()
    for n in (0, 1, 5, 23):
        target = msd_family.member(n)
        texts = [msd_family.canonical_text(n)]
        texts += [make_text("seeded", target, seed=s) for s in range(4)]
        for text in texts:
            transcript = run_session(
                learner, text, teacher=teacher_factory(), budget=Budget(horizon=n + 50, window=15)
            )
            assert transcript.converged
            assert transcript.final_hypothesis == n
            assert transcript.ledger.mind_changes <= n


def test_msd_pair_linear_ticks(msd_family):
    learner, teacher_factory = agents.make_msd_pair()
    ticks = []
    for n in range(0, 30):
        transcript = run_session(
            learner,
            msd_family.canonical_text(n),
            teacher=teacher_factory(),
            budget=Budget(horizon=n + 50, window=15),
        )
        ticks.append((n, transcript.convergence.ticks))
    assert all(t <= 2 * n + 3 for n, t in ticks)


def test_msd_teacher_silent_on_non_descriptor_stream():
    teacher = agents.DescriptorTeacher()
    # column-0 chain elements never complete a descriptor
    out = []
    for x in [pair(0, 0), pair(1, 0), pair(2, 0)] * 3:
        out += teacher.on_input(x)
    assert out == []


def _descriptor_teacher_output(described, tail):
    """Per-datum output of a fresh descriptor teacher fed one descriptor, then ``tail``."""
    elements = sorted(build_descriptor(described, 0, [marker_element(0)]))
    teacher = agents.DescriptorTeacher()
    return elements, [teacher.on_input(x) for x in elements + tail]


def test_descriptor_teacher_stops_for_good_after_a_second_descriptor_element():
    stray = encode_tuple([101, 1, 1, 0])  # descriptor-shaped, outside the descriptor
    tail = [pair(0, 0), stray] + [pair(0, 0)] * 6
    elements, out = _descriptor_teacher_output(3, tail)
    # the plan (three leads, then two more) has started, and nothing follows the stray
    assert out[len(elements) :] == [[elements[0]]] + [[]] * (len(tail) - 1)


def test_descriptor_teacher_passes_nothing_for_a_target_describing_zero():
    elements, out = _descriptor_teacher_output(0, [pair(0, 0)] * 8)
    assert out == [[]] * (len(elements) + 8)


def test_csd_learner_identifies_every_small_index():
    family = families.make_csd()
    learner = agents.make_csd_learner()
    top = family.anchor(6)
    for n in range(0, top):
        target = family.member(n)
        transcript = run_session(
            learner,
            family.canonical_text(n),
            oracle=target,
            budget=Budget(horizon=60),
        )
        assert transcript.final_hypothesis == family.min_index(n)


def test_merged_learner_branches_and_query_overhead(registry):
    family = families.make_merged(registry, 0, poly_encode([0, 1]))
    merged = agents.make_merged_learner()
    csd3 = families.CsdFamily(3)
    csd3_learner = agents.make_csd_learner(csd3)
    for n in range(0, 22):
        target = family.member(n)
        transcript = run_session(
            merged,
            family.canonical_text(n),
            oracle=target,
            budget=Budget(horizon=120, window=15),
        )
        assert transcript.final_hypothesis == family.min_index(n)
        assert transcript.final_hypothesis % 2 == n % 2
        if n % 2 == 0:
            component = run_session(
                csd3_learner,
                csd3.canonical_text(n // 2),
                oracle=target,
                budget=Budget(horizon=120),
            )
            assert transcript.ledger.oracle_queries == component.ledger.oracle_queries + 1
        else:
            assert transcript.ledger.oracle_queries == 1


def test_finite_psd_learner_hypotheses():
    learner = agents.make_finite_psd_learner()
    run = run_on_sequence(learner, [3, 3, 1])
    assert run.emissions == [pair(1, 8), pair(1, 8), pair(2, 10)]


def test_pow2_plain_learner_needs_everything():
    family = families.make_basic_family("pow2")
    learner = agents.make_pow2_plain_learner()
    transcript = run_session(learner, family.canonical_text(4), budget=Budget(horizon=60, window=10))
    assert transcript.final_hypothesis == 4
    assert transcript.convergence.distinct_data == 2**4 + 1


def test_pow2_teacher_pair_counts_brackets():
    family = families.make_basic_family("pow2")
    learner, teacher_factory = agents.make_pow2_teacher_pair()
    for n in (0, 1, 6):
        transcript = run_session(
            learner,
            family.canonical_text(n),
            teacher=teacher_factory(),
            budget=Budget(horizon=2**n + 40, window=10),
        )
        assert transcript.final_hypothesis == n
        assert transcript.ledger.distinct_data <= 1
        assert evaluate_run(transcript, family, n, poly_encode([2, 1]), "PSD").passed


def test_pow2_pmc_learner_threshold_counting():
    family = families.make_basic_family("pow2")
    learner = agents.make_pow2_pmc_learner()
    transcript = run_session(learner, family.canonical_text(4), budget=Budget(horizon=60, window=10))
    assert transcript.final_hypothesis == 4
    assert transcript.ledger.mind_changes <= 5


def test_pmc_msd_learner_zero_mind_changes(msd_family):
    learner = agents.make_pmc_msd_learner()
    sessions = 0
    for n in (0, 2, 4, 7, 9, 12, 15, 19, 24, 30):
        for seed in range(5):
            text = make_text("seeded", msd_family.member(n), seed=seed)
            transcript = run_session(learner, text, budget=Budget(horizon=n + 40, window=10))
            assert transcript.final_hypothesis == n
            assert transcript.ledger.mind_changes == 0
            sessions += 1
    assert sessions == 50


def test_msd_pair_composition_equivalence(msd_family):
    learner, teacher_factory = agents.make_msd_pair()
    composed = compose_pair(learner, teacher_factory)
    for n in (0, 3, 8, 13):
        for seed in range(5):
            text = make_text("seeded", msd_family.member(n), seed=seed)
            budget = Budget(horizon=n + 50, window=15)
            pair_run = run_session(learner, text, teacher=teacher_factory(), budget=budget)
            solo_run = run_session(composed, text, budget=budget)
            assert solo_run.hypothesis_stream() == pair_run.hypothesis_stream()
            assert solo_run.ledger.mind_changes == pair_run.ledger.mind_changes
            assert solo_run.final_hypothesis == n


def test_convert_psdT_to_pmc_bounded_by_extensions():
    family = families.make_basic_family("pow2")
    learner, teacher_factory = agents.make_pow2_teacher_pair()
    gated = agents.convert_psdT_to_pmc(learner, teacher_factory)
    for n in (0, 3, 6):
        text = make_text("seeded", family.member(n), seed=n)
        budget = Budget(horizon=2**n + 50, window=15)
        pair_run = run_session(learner, text, teacher=teacher_factory(), budget=budget)
        extensions = sum(1 for e in pair_run.events if e.kind == "teach")
        gated_run = run_session(gated, text, budget=budget)
        assert gated_run.final_hypothesis == n
        assert gated_run.ledger.mind_changes <= extensions


def test_convert_psdT_to_pmc_silent_teacher():
    class SilentTeacher(agents.Teacher):
        def on_input(self, datum):
            return []

    learner, _ = agents.make_pow2_teacher_pair()
    gated = agents.convert_psdT_to_pmc(learner, SilentTeacher)
    transcript = run_session(
        gated, make_text("canonical", Interval(0, 4)), budget=Budget(horizon=30, window=5)
    )
    assert transcript.hypothesis_stream() == [0]


def test_convert_psdT_to_pmc_emits_the_latest_hypothesis_before_each_raw_read():
    class TwiceTeacher(agents.Teacher):
        def on_input(self, datum):
            return [datum, datum]

    def step(count, item):  # emits item + count, then the count of items stepped
        return count + 1, item + count

    learner = Learner.from_step("adder", 0, step, "one tick per action", first=1)
    gated = agents.convert_psdT_to_pmc(learner, TwiceTeacher)
    transcript = run_session(
        gated, make_text("canonical", FiniteSet({3, 8})), budget=Budget(horizon=2)
    )
    logged = [(event.kind, event.payload) for event in transcript.events]
    # of the two outputs stepped per raw datum only the second goes out, before the next read
    assert logged == [
        ("emit", (1,)),
        ("read", (3,)),
        ("emit", (4,)),
        ("read", (8,)),
        ("emit", (11,)),
    ]
    assert transcript.end_reason == "horizon"


def test_conversions_refuse_a_learner_without_a_step_by_name():
    program_only = Learner("program-only", lambda: iter(()))
    refusal = "^learner program-only has no step for a "
    with pytest.raises(TypeError, match=refusal + "gated conversion$"):
        agents.convert_psdT_to_pmc(program_only, agents.DescriptorTeacher)
    with pytest.raises(TypeError, match=refusal + "count encoding$"):
        agents.convert_pmc_to_psdT(program_only)[1]()


def test_convert_pmc_to_psdT_dataset_bound():
    family = families.make_basic_family("pow2")
    decoder, encoder_factory = agents.convert_pmc_to_psdT(agents.make_pow2_pmc_learner())
    for n in (0, 4, 8):
        for seed in range(3):
            text = make_text("seeded", family.member(n), seed=seed)
            transcript = run_session(
                decoder, text, teacher=encoder_factory(), budget=Budget(horizon=2**n + 50, window=15)
            )
            assert transcript.final_hypothesis == n
            assert transcript.ledger.distinct_data <= 2


def test_conversion_roundtrip_preserves_hypotheses():
    family = families.make_basic_family("pow2")
    decoder, encoder_factory = agents.convert_pmc_to_psdT(agents.make_pow2_pmc_learner())
    roundtrip = agents.convert_psdT_to_pmc(decoder, encoder_factory)
    for n in (0, 2, 5):
        for seed in range(4):
            text = make_text("seeded", family.member(n), seed=seed)
            transcript = run_session(roundtrip, text, budget=Budget(horizon=2**n + 50, window=15))
            assert transcript.final_hypothesis == n


def _pinned_session(case, registry):
    """The session behind one pinned transcript of a pair-simulating agent."""
    if case.startswith("merged"):
        n = 7 if case == "merged-odd" else 20
        family = families.make_merged(registry, 0, poly_encode([0, 1]))
        return run_session(
            agents.make_merged_learner(),
            family.canonical_text(n),
            oracle=family.member(n),
            budget=Budget(horizon=120, window=15),
        )
    if case == "composed-msd":
        family = families.make_msd(registry, 0, poly_encode([0, 1]))
        learner, teacher_factory = agents.make_msd_pair()
        return run_session(
            compose_pair(learner, teacher_factory),
            make_text("seeded", family.member(5), seed=3),
            budget=Budget(horizon=65, window=20),
        )
    if case == "gated-pow2":
        learner = agents.convert_psdT_to_pmc(*agents.make_pow2_teacher_pair())
    else:  # the pmc -> psdT -> pmc round trip
        decoder, encoder_factory = agents.convert_pmc_to_psdT(agents.make_pow2_pmc_learner())
        learner = agents.convert_psdT_to_pmc(decoder, encoder_factory)
    text = make_text("seeded", families.make_basic_family("pow2").member(5), seed=2)
    return run_session(learner, text, budget=Budget(horizon=2**5 + 60, window=20))


@pytest.mark.parametrize(
    "case, digest",
    [
        ("merged-odd", "8f5ab3335da5524e8625686d66125779d75e85f1e6fa1626573306b2a2edef27"),
        ("merged-even", "d46e78891677d4b0df36a24ea05d6f47eb43c791232f8ba0e90c34905e18edc4"),
        ("composed-msd", "4e76bd7f248eec4fbba74817a8de383ba4e44d3d2af02601425b899b721938d8"),
        ("gated-pow2", "db4339c6045ba9d3acb59c8f1f3986cbca24e2b1e0eb1aef632664ac4f2d667b"),
        ("roundtrip-pow2", "184b6956b010dddb7034d573fabada7d64343f590cde521417fd905f93d2eb12"),
    ],
)
def test_pair_simulating_transcripts_are_pinned(registry, case, digest):
    transcript = _pinned_session(case, registry)
    logged = transcript.events_jsonl() + "\n" + transcript.ledger_json()
    assert hashlib.sha256(logged.encode()).hexdigest() == digest


def test_pcsG_learner_behavior():
    family = families.make_basic_family("pcs-G")
    learner = agents.make_pcsG_oracle_learner()
    unbounded = family.member(0)
    transcript = run_session(
        learner,
        make_text("canonical", Interval(0, None)),
        oracle=unbounded,
        budget=Budget(horizon=30, window=5),
    )
    assert transcript.hypothesis_stream() == [0] * len(transcript.hypothesis_stream())
    target = family.member(5)
    transcript = run_session(
        learner,
        make_text("prefixed", target, prefix=[(5, 1)]),
        oracle=target,
        budget=Budget(horizon=30, window=5),
    )
    assert transcript.emissions[0].hypothesis == 5


@pytest.mark.parametrize("m_id", [0, 1])  # traps at k=0 and k=1
def test_trap_teacher_pair_and_pmc(registry, m_id):
    # id 0 names the even guesser too, so k* = <0, 0> = 0 holds a trap
    family = families.make_pcs_f({**registry, 0: registry[1]}, m_id, poly_encode([0]), max_k=2)
    if m_id == 0:
        assert family.trap_sets(0).trap_core == family.trap_sets(0).decoys == {3}
    catalog = agents.make_pcsF_agents(family)
    learner, teacher_factory = catalog["teacher_pair"]
    pmc = catalog["pmc_learner"]
    for index in (0, 1, 2, 3, 4, 5):
        transcript = run_session(
            learner,
            family.canonical_text(index),
            teacher=teacher_factory(),
            budget=Budget(horizon=90, window=10),
        )
        assert transcript.converged, index
        assert transcript.final_hypothesis == index
        transcript = run_session(pmc, family.canonical_text(index), budget=Budget(horizon=90, window=10))
        assert hypothesis_correct(family, transcript.final_hypothesis, index), index
        assert transcript.ledger.mind_changes <= 2


def test_thm64_learner_rules():
    learner = agents.make_thm64_pcs_learner()
    run = run_on_sequence(learner, [6, 17])
    assert run.emissions[-1] == 6
    run = run_on_sequence(learner, [6, 5])
    assert run.emissions[-1] == 2 * (2 + 8) + 1
    run = run_on_sequence(learner, [1, 3, 5])
    assert run.emissions[-1] == 0


def generator_pcsG_learner():
    """The pcs-G prober written as a generator: read, query max+1, emit 0 or the max."""

    def program():
        peak = None
        while True:
            datum = yield READ
            peak = datum if peak is None else max(peak, datum)
            yield emit(0 if (yield query(peak + 1)) else peak)

    return Learner("segment-prober", program)


def generator_thm64_learner():
    """The offset-power learner written as a generator over the evens and odds seen."""

    def program():
        evens, odds = set(), set()
        while True:
            datum = yield READ
            (evens if datum % 2 == 0 else odds).add(datum)
            if not evens or not odds:
                yield emit(0)
                continue
            n, m = min(evens) // 2, (max(odds) - 1) // 2
            yield emit(2 * n if m == 2**n else 2 * (m + 2**n) + 1)

    return Learner("join-shape-split", program)


@pytest.mark.parametrize(
    "make_learner,reference,oracle",
    [
        (agents.make_pcsG_oracle_learner, generator_pcsG_learner, Interval(0, 5)),
        (agents.make_pcsG_oracle_learner, generator_pcsG_learner, Interval(0, None)),
        (agents.make_thm64_pcs_learner, generator_thm64_learner, None),
    ],
)
def test_step_built_pcs_learners_log_their_generators_sessions(make_learner, reference, oracle):
    learner, want = make_learner(), reference()
    assert learner.step is not None and learner.spec() == want.spec()
    for data in itertools.product([0, 3, 4, 5, 6, 9, 17], repeat=3):
        text = make_text("prefixed", FiniteSet(set(data)), prefix=[(x, 1) for x in data])
        budget = Budget(horizon=3, window=1)
        got = run_session(learner, text, oracle=oracle, budget=budget)
        assert got == run_session(want, text, oracle=oracle, budget=budget)


def test_halting_learner_rules():
    learner = agents.make_halting_psd_learner()
    run = run_on_sequence(learner, [])
    assert run.emissions == [6]
    run = run_on_sequence(learner, [4, 4, 4])
    assert run.emissions[-1] == 5
    run = run_on_sequence(learner, [4, 5])
    assert run.emissions[-1] == 2 ** (2**2)


def test_join_evens_learner():
    learner = agents.make_join_evens_learner()
    run = run_on_sequence(learner, [1, 3, 10, 7])
    assert run.emissions == [5]


def _bracket_by_loop(datum):
    k = 0
    while 2 ** (2 * k + 2) < datum:
        k += 1
    return k


@pytest.mark.parametrize("offset", [0, 1])
def test_trap_parity_learner_bracket_matches_power_loop(offset):
    data = range(2**16)
    run = run_on_sequence(agents.make_trap_parity_learner(offset), data, max_actions=2**18)
    # a read and an emit per datum, then the read past the end
    assert run.actions == 2 * len(data) + 1
    assert run.emissions == [2 * _bracket_by_loop(datum) + offset for datum in data]


def test_trap_watch_ignores_intervals_above_max_k(registry):
    """The mind-change learner reads no trap above max_k, where none was searched."""
    family = families.make_pcs_f(registry, 1, poly_encode([0]), max_k=1)
    learner = agents.make_pcsF_agents(family)["pmc_learner"]
    searched, above = adversary.trap_interval(1), adversary.trap_interval(2)
    # k = 1 holds the trap core {9}: 9 alone names 2k+1 = 3, a second element the interval 2k
    assert run_on_sequence(learner, [searched.lo, searched.lo + 1]).emissions == [3, 2]
    # k = 2 is past max_k: the learner keeps emitting 0 instead of asking for a trap
    assert run_on_sequence(learner, [above.lo, above.lo + 1]).emissions == [0, 0]
