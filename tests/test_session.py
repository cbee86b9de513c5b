import hashlib

import pytest

from txtex_lab.agents import build_default_registry, make_csd_learner, make_msd_pair
from txtex_lab.codec import poly_encode
from txtex_lab.families import make_csd, make_msd
from txtex_lab.session import (
    ActionBudgetExceeded,
    Budget,
    Emit,
    FnOracle,
    GenLearner,
    MembershipOracle,
    Query,
    Read,
    Skip,
    Teacher,
    Work,
    compose_pair,
    run_on_sequence,
    run_session,
)
from txtex_lab.sets import FiniteSet, Interval
from txtex_lab.text import make_text


def constant_learner(value=0):
    def program():
        yield Emit(value)

    return GenLearner(f"constant-{value}", program)


def echo_counter_learner():
    """Reads forever, emitting how many distinct elements it has seen."""

    def program():
        seen = set()
        while True:
            datum = yield Read()
            seen.add(datum)
            yield Emit(len(seen))

    return GenLearner("echo-counter", program)


def scan_learner():
    """Queries 0,1,2,... until the first member, emits it, stops."""

    def program():
        x = 0
        while True:
            if (yield Query(x)):
                break
            x += 1
        yield Emit(x)

    return GenLearner("scan", program)


def test_trivial_learner_converges_at_first_emission():
    text = make_text("canonical", Interval(0, 3))
    transcript = run_session(constant_learner(), text, budget=Budget(horizon=20))
    assert transcript.end_reason == "idle"
    assert transcript.converged
    assert transcript.final_hypothesis == 0
    assert transcript.ledger.mind_changes == 0
    assert transcript.ledger.ticks == 1


def test_session_replay_is_bit_identical():
    text = make_text("seeded", Interval(0, 40), seed=99)
    a = run_session(echo_counter_learner(), text, budget=Budget(horizon=60))
    b = run_session(echo_counter_learner(), text, budget=Budget(horizon=60))
    assert a.events == b.events
    assert a.events_jsonl() == b.events_jsonl()
    assert a.ledger_json() == b.ledger_json()


def test_ledger_counts_and_convergence_window():
    text = make_text("canonical", Interval(0, 4))
    transcript = run_session(echo_counter_learner(), text, budget=Budget(horizon=40, window=10))
    reads = sum(1 for e in transcript.events if e.kind == "read")
    assert transcript.ledger.distinct_data == 5
    assert transcript.ledger.distinct_data <= reads
    # hypotheses 1..5 then stable: 4 changes
    assert transcript.ledger.mind_changes == 4
    assert transcript.converged
    assert transcript.final_hypothesis == 5
    assert transcript.convergence.position == 5


def test_non_converged_when_changes_run_to_horizon():
    target = Interval(0, None)
    text = make_text("canonical", target)
    transcript = run_session(echo_counter_learner(), text, budget=Budget(horizon=30, window=5))
    assert transcript.end_reason == "horizon"
    assert not transcript.converged


def test_oracle_queries_counted_and_faithful():
    target = Interval(4, None)
    oracle = MembershipOracle(target)
    text = make_text("canonical", target)
    transcript = run_session(scan_learner(), text, oracle=oracle, budget=Budget(horizon=10))
    assert transcript.final_hypothesis == 4
    assert transcript.ledger.oracle_queries == 5
    assert oracle.queries == 5
    for event in transcript.events:
        if event.kind == "query":
            x, answer = event.payload
            assert answer == target.contains(x)


def test_query_without_oracle_raises():
    text = make_text("canonical", Interval(0, 3))
    with pytest.raises(ValueError):
        run_session(scan_learner(), text)


def test_skip_costs_one_tick():
    def program():
        yield Skip()
        datum = yield Read()
        yield Emit(datum)

    learner = GenLearner("skipper", program)
    text = make_text("canonical", Interval(7, 9))
    transcript = run_session(learner, text, budget=Budget(horizon=10))
    assert transcript.ledger.skips == 1
    assert transcript.final_hypothesis == 8
    assert transcript.ledger.ticks == 3


def test_work_units_add_ticks():
    def program():
        yield Work(5)
        yield Emit(1)

    transcript = run_session(
        GenLearner("worker", program), make_text("canonical", FiniteSet({3}))
    )
    assert transcript.ledger.ticks == 6


class FirstOccurrenceTeacher(Teacher):
    name = "first-occurrence"

    def __init__(self):
        self.seen = set()

    def on_input(self, datum):
        if datum in self.seen:
            return []
        self.seen.add(datum)
        return [datum]


class CheatingTeacher(Teacher):
    name = "cheater"

    def on_input(self, datum):
        return [datum + 1]


def test_teacher_filters_duplicates():
    text = make_text("repeat-pad", FiniteSet({5, 9}), pad_element=5, pad_count=4)
    transcript = run_session(
        echo_counter_learner(),
        text,
        teacher=FirstOccurrenceTeacher(),
        budget=Budget(horizon=20),
    )
    # teacher forwards 5 then 9 once each; learner consumes exactly those
    assert transcript.consumed == 2
    assert transcript.final_hypothesis == 2
    assert transcript.ledger.distinct_data == 2


def test_teacher_contract_violation_aborts():
    text = make_text("canonical", Interval(0, 3))
    transcript = run_session(
        echo_counter_learner(), text, teacher=CheatingTeacher(), budget=Budget(horizon=10)
    )
    assert transcript.end_reason == "contract-violation"
    assert not transcript.converged
    assert transcript.events[-1].kind == "abort"


def test_compose_pair_matches_two_agent_session():
    text = make_text("repeat-pad", FiniteSet({5, 9}), pad_element=5, pad_count=4, seed=3)
    pair_run = run_session(
        echo_counter_learner(),
        text,
        teacher=FirstOccurrenceTeacher(),
        budget=Budget(horizon=20),
    )
    composed = compose_pair(echo_counter_learner, FirstOccurrenceTeacher)
    solo_run = run_session(composed, text, budget=Budget(horizon=20))
    assert solo_run.hypothesis_stream() == pair_run.hypothesis_stream()
    assert solo_run.ledger.mind_changes == pair_run.ledger.mind_changes


def test_run_on_sequence_semantics():
    run = run_on_sequence(echo_counter_learner(), [4, 4, 7])
    assert run.emissions == [1, 1, 2]
    assert run.exhausted_input and not run.idled

    oracle = FnOracle(lambda x: x >= 2)
    run = run_on_sequence(scan_learner(), [], oracle=oracle)
    assert run.last_hypothesis == 2
    assert run.idled
    assert run.queries == [(0, False), (1, False), (2, True)]


def test_run_on_sequence_action_budget():
    def spinner():
        while True:
            yield Work(0)

    with pytest.raises(ActionBudgetExceeded) as exc_info:
        run_on_sequence(GenLearner("spinner", spinner), [], max_actions=50)
    assert exc_info.value.partial.actions == 50


class Shout:
    """Not an action the interpreters know."""


def shouting_learner():
    def program():
        yield Emit(1)
        yield Shout()

    return GenLearner("shouter", program)


def test_unknown_action_raises_type_error():
    with pytest.raises(TypeError, match="unknown action"):
        run_session(shouting_learner(), make_text("canonical", Interval(0, 3)))
    with pytest.raises(TypeError, match="unknown action"):
        run_on_sequence(shouting_learner(), [1, 2])


def test_run_on_sequence_skip_consumes_without_observing():
    def program():
        skipped = yield Skip()
        datum = yield Read()
        yield Emit(datum)
        yield Emit(-1 if skipped is None else skipped)
        yield Skip()

    learner = GenLearner("skip-read", program)
    run = run_on_sequence(learner, [7, 8])
    assert run.emissions == [8, -1]
    assert run.exhausted_input and not run.idled
    assert run.actions == 5  # the Skip past the end counts as an action


def test_run_on_sequence_work_counts_as_action():
    def program():
        yield Work(5)
        yield Work(0)
        yield Emit(3)

    run = run_on_sequence(GenLearner("worker", program), [])
    assert run.actions == 3 and run.idled and run.emissions == [3]
    with pytest.raises(ActionBudgetExceeded) as exc_info:
        run_on_sequence(GenLearner("worker", program), [], max_actions=2)
    assert exc_info.value.partial.actions == 2
    assert exc_info.value.partial.emissions == []


def test_run_on_sequence_tuple_and_list_inputs_agree():
    def oracle_fn(x):
        return x % 3 == 0

    for sequence in ([4, 4, 7], [], [0, 1, 2, 3, 4, 5]):
        as_list = run_on_sequence(echo_counter_learner(), list(sequence))
        as_tuple = run_on_sequence(echo_counter_learner(), tuple(sequence))
        assert as_list == as_tuple
        scan_list = run_on_sequence(scan_learner(), list(sequence), oracle=FnOracle(oracle_fn))
        scan_tuple = run_on_sequence(scan_learner(), tuple(sequence), oracle=FnOracle(oracle_fn))
        assert scan_list == scan_tuple


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_teacher_session_transcript_is_pinned():
    family = make_msd(build_default_registry(), 0, poly_encode([0, 1]))
    learner, teacher_factory = make_msd_pair()
    transcript = run_session(
        learner,
        make_text("seeded", family.member(5), seed=3),
        teacher=teacher_factory(),
        budget=Budget(horizon=65, window=20),
    )
    assert transcript.final_hypothesis == 5 and transcript.converged
    assert _sha256(transcript.events_jsonl()) == (
        "776a3cdc7c675002697f76a0e00a90895ba117331d9268e8227d3a754cc7962a"
    )
    assert _sha256(transcript.ledger_json()) == (
        "9a47d957f7ffb8e1b73b17760e80060ae4c1530f88e45e038bbae91eebf2c78c"
    )


def test_oracle_session_transcript_is_pinned():
    family = make_csd()
    transcript = run_session(
        make_csd_learner(),
        family.canonical_text(9),
        oracle=MembershipOracle(family.member(9)),
        budget=Budget(horizon=80),
    )
    assert transcript.final_hypothesis == 9 and transcript.end_reason == "idle"
    assert _sha256(transcript.events_jsonl()) == (
        "4f17a13172e9ec26c03be513288fdf6b3bf93bef1341cbc0f84aeae7e010b422"
    )
    assert _sha256(transcript.ledger_json()) == (
        "1996a361b7f7bd23a8bf8b6b6ec627f410a7673549d3b03f246bc7d2a0014911"
    )


def test_tick_budget_marks_non_converged():
    text = make_text("canonical", Interval(0, None))
    transcript = run_session(echo_counter_learner(), text, budget=Budget(max_ticks=9, horizon=50))
    assert transcript.end_reason == "ticks"
    assert not transcript.converged


def test_agent_spec_json():
    learner = constant_learner(3)
    spec = learner.spec()
    assert spec["kind"] == "learner" and spec["name"] == "constant-3"
    assert "constant-3" in learner.spec_json()
    assert FirstOccurrenceTeacher().spec()["kind"] == "teacher"
