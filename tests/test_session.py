import ast
import contextlib
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import pytest

from txtex_lab.adversary import search_trap_sets
from txtex_lab.agents import (
    build_default_registry,
    make_csd_learner,
    make_msd_pair,
    make_pcsG_oracle_learner,
)
from txtex_lab.codec import poly_encode
from txtex_lab.evaluate import check_characteristic_sample
from txtex_lab.families import make_basic_family, make_csd, make_msd
from txtex_lab.session import (
    READ,
    ActionBudgetExceeded,
    Budget,
    Emit,
    EmissionSnapshot,
    Event,
    Learner,
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

    return Learner(f"constant-{value}", program)


def echo_counter_learner():
    """Reads forever, emitting how many distinct elements it has seen."""

    def program():
        seen = set()
        while True:
            datum = yield Read()
            seen.add(datum)
            yield Emit(len(seen))

    return Learner("echo-counter", program)


def distinct_step_counter():
    """A step learner emitting how many distinct elements it has read; its state is their set."""

    def step(seen, datum):
        seen = seen | {datum}
        return seen, len(seen)

    return Learner.from_step("distinct-counter", frozenset(), step, "one tick per action")


def scan_learner():
    """Queries 0,1,2,... until the first member, emits it, stops."""

    def program():
        x = 0
        while True:
            if (yield Query(x)):
                break
            x += 1
        yield Emit(x)

    return Learner("scan", program)


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
    text = make_text("canonical", target)
    transcript = run_session(scan_learner(), text, oracle=target, budget=Budget(horizon=10))
    assert transcript.final_hypothesis == 4
    assert transcript.ledger.oracle_queries == 5
    for event in transcript.events:
        if event.kind == "query":
            x, answer = event.payload
            assert answer == target.contains(x)


def test_query_without_oracle_raises():
    text = make_text("canonical", Interval(0, 3))
    with pytest.raises(ValueError):
        run_session(scan_learner(), text, budget=Budget())


def test_skip_costs_one_tick():
    def program():
        yield Skip()
        datum = yield Read()
        yield Emit(datum)

    learner = Learner("skipper", program)
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
        Learner("worker", program), make_text("canonical", FiniteSet({3})), budget=Budget()
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
    text = make_text("prefixed", FiniteSet({5, 9}), prefix=[(5, 4)])
    transcript = run_session(
        echo_counter_learner(),
        text,
        teacher=FirstOccurrenceTeacher(),
        budget=Budget(horizon=20),
    )
    # teacher forwards 5 then 9 once each; learner consumes exactly those
    assert [e.payload for e in transcript.events if e.kind == "read"] == [(5,), (9,)]
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


def test_composed_step_pair_matches_two_agent_session():
    text = make_text("prefixed", FiniteSet({5, 9}), prefix=[(5, 4)])
    pair_run = run_session(
        distinct_step_counter(),
        text,
        teacher=FirstOccurrenceTeacher(),
        budget=Budget(horizon=20),
    )
    composed = compose_pair(distinct_step_counter(), FirstOccurrenceTeacher)
    solo_run = run_session(composed, text, budget=Budget(horizon=20))
    assert solo_run.hypothesis_stream() == pair_run.hypothesis_stream() == [1, 2]
    assert solo_run.ledger.mind_changes == pair_run.ledger.mind_changes
    # the composed pair reads every raw datum up to the horizon; its learner stepped on 5 and 9
    raw = list(itertools.islice(text.stream(), 20))
    assert [payload for kind, payload in solo_run.events if kind == "read"] == [(x,) for x in raw]
    assert [payload for kind, payload in pair_run.events if kind == "read"] == [(5,), (9,)]


def test_compose_pair_refuses_a_learner_without_a_step_by_name():
    def teacher():
        raise AssertionError("no teacher is made before the refusal")

    with pytest.raises(TypeError, match="^learner echo-counter has no step for a composed pair$"):
        compose_pair(echo_counter_learner(), teacher)


def test_run_on_sequence_semantics():
    run = run_on_sequence(echo_counter_learner(), [4, 4, 7])
    assert run.emissions == [1, 1, 2]
    assert run.actions == 7  # the read past the end is the last action

    run = run_on_sequence(scan_learner(), [], oracle=Interval(2))
    assert run.emissions == [2]
    assert run.actions == 4  # three queries and the emission, then the learner idles
    assert run.queries == [(0, False), (1, False), (2, True)]


def test_run_on_sequence_skip_consumes_without_observing():
    def program():
        skipped = yield Skip()
        datum = yield Read()
        yield Emit(datum)
        yield Emit(-1 if skipped is None else skipped)
        yield Skip()

    learner = Learner("skip-read", program)
    run = run_on_sequence(learner, [7, 8])
    assert run.emissions == [8, -1]
    assert run.actions == 5  # the Skip past the end counts as an action


def test_run_on_sequence_work_counts_its_units():
    def program():
        yield Work(5)
        yield Work(1)
        yield Emit(3)

    worker = Learner("worker", program)
    run = run_on_sequence(worker, [], max_actions=8)
    assert run.actions == 3 and run.emissions == [3]
    # Work(5) spends five ticks of the budget, and the idle is seen one tick after the emit
    for max_actions, actions, emissions in [(5, 1, []), (6, 2, []), (7, 3, [3])]:
        with pytest.raises(ActionBudgetExceeded) as exc_info:
            run_on_sequence(worker, [], max_actions=max_actions)
        assert exc_info.value.partial.actions == actions
        assert exc_info.value.partial.emissions == emissions


@pytest.mark.parametrize("units", [-1, 0, 1.5, True, None])
def test_work_units_must_be_a_natural(units):
    """Negative work would refund ticks and no work would spend none, so that a learner
    yielding it forever never met a budget; both paths that run a program refuse it by
    learner name.  A composed pair takes a step learner only, which declares no work."""

    def program():
        yield Work(units)
        yield READ

    worker = Learner("worker", program)
    message = re.escape(f"declared work of {units!r} units")
    text = make_text("canonical", Interval(0, None))
    with pytest.raises(ValueError, match="^learner worker " + message):
        run_session(worker, text, budget=Budget(max_ticks=20, horizon=50))
    with pytest.raises(ValueError, match="^learner worker " + message):
        run_on_sequence(worker, [1, 2])
    with pytest.raises(TypeError, match="^learner worker has no step"):
        compose_pair(worker, FirstOccurrenceTeacher)


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
        oracle=family.member(9),
        budget=Budget(horizon=80),
    )
    assert transcript.final_hypothesis == 9 and transcript.end_reason == "idle"
    assert _sha256(transcript.events_jsonl()) == (
        "4f17a13172e9ec26c03be513288fdf6b3bf93bef1341cbc0f84aeae7e010b422"
    )
    assert _sha256(transcript.ledger_json()) == (
        "1996a361b7f7bd23a8bf8b6b6ec627f410a7673549d3b03f246bc7d2a0014911"
    )


def test_readme_quick_session_prints_its_result():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "9 10\n"


def test_tick_budget_marks_non_converged():
    text = make_text("canonical", Interval(0, None))
    transcript = run_session(echo_counter_learner(), text, budget=Budget(max_ticks=9, horizon=50))
    assert transcript.end_reason == "ticks"
    assert not transcript.converged


def test_agent_spec():
    spec = constant_learner(3).spec()
    assert spec == {"kind": "learner", "name": "constant-3", "costs": "one tick per action"}
    noted = Learner("worker", constant_learner().program, "five ticks")
    assert noted.spec()["costs"] == "five ticks"
    assert FirstOccurrenceTeacher().spec() == {"kind": "teacher", "name": "first-occurrence"}


def test_run_on_sequence_read_past_end_on_last_budgeted_action():
    run = run_on_sequence(echo_counter_learner(), [5], max_actions=3)
    assert run.actions == 3  # read, emit, and the read past the end
    assert run.emissions == [1]


def test_read_and_skip_are_frozen_equal_and_hashable():
    assert Read() == Read() and Skip() == Skip()
    assert Read() != Skip()
    assert len({Read(), Read(), Skip()}) == 2
    with pytest.raises(AttributeError):
        Read().x = 1


def test_shared_read_is_a_read():
    assert isinstance(READ, Read) and READ == Read()


def test_payload_actions_are_slotted_and_compare_by_kind_and_value():
    assert Emit(1) == Emit(1)
    assert Emit(1) != Query(1) and Emit(1) != Work(1)
    for action in (Query(1), Emit(1), Work(1)):
        assert not hasattr(action, "__dict__")


def test_searches_build_no_payload_action(monkeypatch):
    """The learner-1 trap search and a pcs-G check take every ``Emit`` and ``Query`` shared."""
    built = []

    def counting(init):
        def counted(self, value):
            built.append(value)
            init(self, value)

        return counted

    for cls in (Emit, Query):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    trap = search_trap_sets(build_default_registry(), 1, poly_encode([2, 1]), 2)
    verdict = check_characteristic_sample(
        make_pcsG_oracle_learner,
        make_basic_family("pcs-G"),
        12,
        [12],
        poly_encode([2, 1]),
        max_text_len=4,
        max_universe=20,
    )
    assert trap.stats["arrangements_per_candidate"] == 40_320
    assert verdict.details["covering_prefixes_checked"] == 8_320
    assert built == []
    assert Emit(300) == Emit(300) and built == [300, 300]


def test_library_learners_yield_the_shared_read():
    """``READ = Read()`` in ``session`` is the only place the package builds a ``Read``."""
    package = Path(__file__).resolve().parents[1] / "src" / "txtex_lab"
    calls = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Read"
    ]
    assert len(calls) == 1 and calls[0][0] == "session.py"


def test_only_the_session_module_names_the_interpreted_actions():
    """``run_session`` alone gives ``Read``, ``Skip`` and ``Emit`` their meaning: no other
    library module names them, so no second loop that interprets actions comes back."""
    package = Path(__file__).resolve().parents[1] / "src" / "txtex_lab"
    interpreted = {"Read", "Skip", "Emit"}
    named = sorted(
        (path.name, node.lineno)
        for path in package.glob("*.py")
        if path.name != "session.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id in interpreted)
        or (isinstance(node, ast.Attribute) and node.attr in interpreted)
        or (isinstance(node, ast.alias) and node.name in interpreted)
    )
    assert named == []


# ---------------------------------------------------------------------------
# teacher-session edge cases, pinned byte for byte


class BatchTeacher(Teacher):
    """Holds its input back and passes it on three data at a time."""

    name = "batch-3"

    def __init__(self):
        self.held = []

    def on_input(self, datum):
        self.held.append(datum)
        if len(self.held) < 3:
            return []
        batch, self.held = self.held, []
        return batch


def skip_read_learner():
    """Skips one element, then reads one and emits it, forever."""

    def program():
        while True:
            yield Skip()
            datum = yield Read()
            yield Emit(datum)

    return Learner("skip-read", program)


def _teacher_edge_session(case):
    if case == "skip-through-teacher":
        text = make_text("prefixed", FiniteSet({5, 9, 12, 20}), prefix=[(5, 3)])
        return run_session(
            skip_read_learner(), text, teacher=FirstOccurrenceTeacher(), budget=Budget(horizon=30)
        )
    if case == "batch-teacher":
        text = make_text("seeded", Interval(0, 20), seed=5)
        return run_session(
            echo_counter_learner(), text, teacher=BatchTeacher(), budget=Budget(horizon=14)
        )
    if case == "max-ticks-mid-teacher":
        text = make_text("canonical", Interval(0, None))
        return run_session(
            echo_counter_learner(),
            text,
            teacher=BatchTeacher(),
            budget=Budget(max_ticks=8, horizon=30),
        )
    # the horizon falls on the datum that completes the last batch, so the
    # learner drains the buffer and then finds the raw text used up
    text = make_text("canonical", FiniteSet({2, 5, 7}))
    return run_session(
        echo_counter_learner(), text, teacher=BatchTeacher(), budget=Budget(horizon=6, window=3)
    )


# case -> (events digest, ledger digest, (end reason, elements taken, converged, emission positions))
TEACHER_EDGE_PINS = {
    "skip-through-teacher": (
        "d0dcc55ff779c8078850ec09d6328c33f9e969b0c36fbe277c5cb60736a06f7f",
        "b27692782f364757e4cb5cd440c02a40df1c944d5f8cedf4f6452c46fb15f426",
        ("horizon", 4, True, [5, 7]),
    ),
    "batch-teacher": (
        "a8acc4b75c31a7977789cd33875450ba973b774bce0ac1109bca78d6686f3d47",
        "435a9aaf9b2cc747a2dddff75c56943acefe6aceaf8f2eb6cb612559f40dca60",
        ("horizon", 12, False, [3, 3, 3, 6, 6, 6, 9, 9, 9, 12, 12, 12]),
    ),
    "max-ticks-mid-teacher": (
        "d4ca9ae3c86e7f6eab777df290d7bba07df4e74bf7480541b1c7fbbad6b0c080",
        "7507986f2f1a39c9797b99e5eb6a56fe7bdc578e2030bb4c3f10373055c3f7ea",
        ("ticks", 4, False, [3, 3, 3, 6]),
    ),
    "horizon-when-buffer-empties": (
        "8777f25960ae7fc58096cad7743709b0d33401c5806485deb2040e149c0f6266",
        "1a2b84d3de3fbc6c567dc35362749eaed938b73df204ed33247521bcd71ff168",
        ("horizon", 6, True, [3, 3, 3, 6, 6, 6]),
    ),
}


@pytest.mark.parametrize("case", list(TEACHER_EDGE_PINS))
def test_teacher_edge_sessions_are_pinned(case):
    """Digests recorded before the teacher pump moved inline into ``run_session``."""
    events_digest, ledger_digest, end = TEACHER_EDGE_PINS[case]
    transcript = _teacher_edge_session(case)
    assert _sha256(transcript.events_jsonl()) == events_digest
    assert _sha256(transcript.ledger_json()) == ledger_digest
    positions = [emission.position for emission in transcript.emissions]
    taken = sum(event.kind in ("read", "skip") for event in transcript.events)
    assert (transcript.end_reason, taken, transcript.converged, positions) == end


def test_event_and_snapshot_are_immutable_records_read_by_name():
    event = Event("teach", (7, (7, 8)))
    assert (event.kind, event.payload) == ("teach", (7, (7, 8)))
    snapshot = EmissionSnapshot(5, 9, 12, 4, 1)
    assert (
        snapshot.hypothesis,
        snapshot.position,
        snapshot.ticks,
        snapshot.distinct_data,
        snapshot.oracle_queries,
    ) == (5, 9, 12, 4, 1)
    for record, field in ((event, "kind"), (snapshot, "ticks")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert event == Event("teach", (7, (7, 8))) and snapshot == EmissionSnapshot(5, 9, 12, 4, 1)
    assert len({event, Event("teach", (7, (7, 8))), snapshot}) == 2

    # an event's step is its index: the JSONL numbers the events from 0
    learner, teacher_factory = make_msd_pair()
    family = make_msd(build_default_registry(), 0, poly_encode([0, 1]))
    transcript = run_session(
        learner, family.canonical_text(2), teacher=teacher_factory(), budget=Budget(horizon=12)
    )
    lines = [json.loads(line) for line in transcript.events_jsonl().split("\n")]
    assert [line["step"] for line in lines] == list(range(len(transcript.events)))
    assert [(line["kind"], line["payload"]) for line in lines] == [
        (kind, json.loads(json.dumps(list(payload)))) for kind, payload in transcript.events
    ]
    assert {"read", "emit", "teach"} <= {line["kind"] for line in lines}


# ---------------------------------------------------------------------------
# the event log is the record: the ledger folds back out of it


def test_ledger_folds_from_events_in_every_default_session(default_catalog, fold_events):
    assert [name for name, run in default_catalog.items() if run.exit_code or not run.sessions] == []
    sessions = [session for run in default_catalog.values() for session in run.sessions]
    teacherless = 0
    for without_teacher, transcript in sessions:
        ledger, snapshots = fold_events(transcript.events)
        assert ledger == transcript.ledger.as_dict()
        if without_teacher:
            teacherless += 1
            assert transcript.emissions == snapshots
    assert teacherless and teacherless < len(sessions)


def test_every_logged_record_is_its_named_tuple_with_its_arity(default_catalog):
    """``run_session`` builds records with ``tuple.__new__``, which checks no arity."""
    transcripts = [transcript for run in default_catalog.values() for _, transcript in run.sessions]
    transcripts += [_teacher_edge_session(case) for case in TEACHER_EDGE_PINS]
    transcripts.append(
        run_session(
            echo_counter_learner(),
            make_text("canonical", Interval(0, 3)),
            teacher=CheatingTeacher(),
            budget=Budget(horizon=10),
        )
    )

    def program():
        yield Work(2)
        yield Emit(1)

    text = make_text("canonical", FiniteSet({3}))
    transcripts.append(run_session(Learner("worker", program), text, budget=Budget()))
    kinds = set()
    for transcript in transcripts:
        for event in transcript.events:
            assert type(event) is Event and len(event) == 2
            assert event == Event(*event[:2])
            kinds.add(event.kind)
        for snapshot in transcript.emissions:
            assert type(snapshot) is EmissionSnapshot and len(snapshot) == 5
            assert snapshot == EmissionSnapshot(*snapshot[:5])
    assert kinds == {"read", "skip", "query", "emit", "teach", "work", "abort"}
