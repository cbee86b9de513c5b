"""Properties: ``run_session``, ``run_on_sequence``, ``compose_pair`` and the extension-gated
conversion do what the reference says.

Every teacher is a scripted one, and every learner a drawn script or, behind
a composed pair or the gated conversion, a drawn step table (see
``session_scripts``).  Budgets are drawn at and around the point where the
script ends, so each end reason and each budget boundary is reached.
Explicit examples pin what the kept mutants break (``tests/mutants.py``),
and one script checks that a repeated emit or a skip logs its last record
object again, and an equal but new ``Emit`` a new record.
"""

import itertools
import re
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from session_scripts import (
    ELEMENTS,
    HORIZON_OFFSETS,
    HYPOTHESES,
    STEP_DATA,
    TEACHER_PICKS,
    TICK_OFFSETS,
    ScriptedTeacher,
    composed_script,
    derived_learner,
    explicit_tables,
    oracles,
    outcome,
    reference_session,
    runs_of,
    scripted_learner,
    scripts,
    step_tables,
    ticks_and_taken,
)

from txtex_lab.agents import convert_psdT_to_pmc
from txtex_lab.session import (
    READ,
    ActionBudgetExceeded,
    Budget,
    Emit,
    Learner,
    Skip,
    compose_pair,
    emit,
    run_on_sequence,
    run_session,
)
from txtex_lab.sets import FiniteSet
from txtex_lab.text import make_text

DATA = st.lists(ELEMENTS, min_size=1, max_size=8)
WINDOWS = st.none() | st.integers(1, 4)


def text_and_raw(data, horizon):
    """A text that opens with ``data``, and its first ``horizon`` elements."""
    text = make_text("prefixed", FiniteSet(set(data)), prefix=runs_of(data))
    return text, list(itertools.islice(text.stream(), horizon))


def run_or_raise(want, run):
    """``run()``'s result, or None once it has raised the error the reference expects."""
    if want.raises is None:
        return run()
    with pytest.raises(want.raises, match=re.escape(want.message)):
        run()


@pytest.mark.parametrize("with_teacher", [False, True])
@settings(max_examples=100, deadline=None)
@given(
    script=scripts(),
    data=DATA,
    teacher_script=st.lists(TEACHER_PICKS, max_size=10),
    cheat_at=st.none() | st.integers(0, 3),
    tick_offset=TICK_OFFSETS,
    horizon_offset=HORIZON_OFFSETS,
    window=WINDOWS,
    members=oracles(),
)
# the tick budget runs out after the first emit
@example(
    script=[("emit", 1), ("emit", 2)], data=[1], teacher_script=[], cheat_at=None,
    tick_offset=-1, horizon_offset=40, window=None, members=None,
)
# the horizon stops the second read
@example(
    script=[("read", 0), ("read", 0), ("emit-last", 0)], data=[1, 2], teacher_script=[],
    cheat_at=None, tick_offset=10**6, horizon_offset=-1, window=None, members=None,
)
# work that spends no tick is refused, whatever the drawn examples reach
@example(
    script=[("read", 0), ("work", 0), ("emit", 1)], data=[1], teacher_script=[[0]],
    cheat_at=None, tick_offset=10**6, horizon_offset=40, window=None, members=None,
)
@example(
    script=[("work", -1), ("emit", 1)], data=[1], teacher_script=[], cheat_at=None,
    tick_offset=10**6, horizon_offset=40, window=None, members=None,
)
def test_run_session_logs_what_the_reference_derives(
    with_teacher, script, data, teacher_script, cheat_at, tick_offset, horizon_offset, window,
    members, fold_events,
):
    ticks, taken = ticks_and_taken(script)
    budget = Budget(
        max_ticks=max(0, ticks + tick_offset), horizon=max(0, taken + horizon_offset), window=window
    )
    text, raw = text_and_raw(data, budget.horizon)
    if cheat_at is not None and cheat_at < len(teacher_script):
        teacher_script = list(teacher_script)
        teacher_script[cheat_at] = [*teacher_script[cheat_at], None]

    def teacher():
        return ScriptedTeacher(teacher_script) if with_teacher else None

    want = reference_session(script, raw, teacher=teacher(), members=members, budget=budget)
    given_teacher = teacher()
    oracle = None if members is None else FiniteSet(members)
    got = run_or_raise(
        want,
        lambda: run_session(
            scripted_learner(script), text, teacher=given_teacher, oracle=oracle, budget=budget
        ),
    )
    if got is None:
        return
    assert got == want.transcript
    assert fold_events(got.events)[0] == got.ledger.as_dict()
    aborts = [event for event in got.events if event.kind == "abort"]
    cheated = given_teacher is not None and given_teacher.cheated
    assert len(aborts) == cheated
    if cheated:
        assert got.events[-1] == aborts[0] and got.end_reason == "contract-violation"


def test_a_repeated_emit_or_skip_logs_its_last_record_again():
    """The last ``Emit`` object again and a skip log the last such record; an equal but
    new ``Emit`` gets a new one, and each read logs its own element object."""
    big = 10**6  # above the ints CPython caches, so ``int(str(big))`` is another object
    again = int(str(big))
    data = [big, again, 5, 6, 6]
    script = [
        ("read", 0), ("emit", 7), ("emit", 7), ("read", 0), ("emit", 7),  # steps 0-4
        ("skip", 0), ("skip", 0), ("read", 0),  # steps 5-7
        ("emit", 300), ("emit", 300), ("emit", 1), ("emit", True),  # steps 8-11
    ]

    def program():  # the script, with the shared ``emit(7)`` and ``emit(1)``
        for op, value in script:
            if op != "emit":
                yield READ if op == "read" else Skip()
            else:
                yield emit(value) if type(value) is int and value < 256 else Emit(value)

    # one run per element object: equal neighbours would share a run, and so an object
    text = make_text("prefixed", FiniteSet(set(data)), prefix=[(x, 1) for x in data])
    budget = Budget(horizon=len(data))
    got = run_session(Learner("repeats", program), text, budget=budget)
    want = reference_session(script, data, budget=budget).transcript
    assert got == want and got.events_jsonl() == want.events_jsonl()
    assert '"payload":[true]' in got.events_jsonl()
    events = got.events
    assert events[2] is events[1] and events[4] is events[1]  # a read between keeps it
    assert events[3] == events[0] and events[3].payload[0] is again
    assert events[5] is events[6] == ("skip", ())
    assert events[8] == events[9] and events[8] is not events[9]  # two ``Emit(300)`` objects
    assert events[10] is not events[11]
    assert [type(event.payload[0]) for event in events[10:]] == [int, bool]


@settings(max_examples=120, deadline=None)
@given(
    script=scripts(),
    data=DATA,
    length_offset=st.sampled_from([-2, -1, 0, 1]),
    as_tuple=st.booleans(),
    budget_offset=st.none() | st.sampled_from([-(10**6), -2, -1, 0, 1]),
    members=oracles(),
)
@example(
    script=[("work", 0), ("emit", 1)], data=[1], length_offset=0, as_tuple=True,
    budget_offset=None, members=None,
)
# the budget runs out after the first emit
@example(
    script=[("emit", 1), ("emit", 2)], data=[1], length_offset=0, as_tuple=True,
    budget_offset=-1, members=None,
)
# the second read is past the end: no emit follows, and it counts as an action
@example(
    script=[("read", 0), ("read", 0), ("emit-last", 0)], data=[1, 2], length_offset=-1,
    as_tuple=True, budget_offset=None, members=None,
)
def test_run_on_sequence_is_the_session_stopped_past_the_end(
    script, data, length_offset, as_tuple, budget_offset, members
):
    """``max_actions`` is a tick budget, drawn at 0, around the script's ticks, or left at
    its default; an idling learner is seen to idle one tick after its last action."""
    ticks, taken = ticks_and_taken(script)
    sequence = text_and_raw(data, max(0, taken + length_offset))[1]
    limits = {}
    if budget_offset is not None:
        limits["max_actions"] = max(0, ticks + budget_offset)
    budget = Budget(max_ticks=limits.get("max_actions", 100_000), horizon=len(sequence))
    want = reference_session(script, sequence, members=members, budget=budget)
    oracle = None if members is None else FiniteSet(members)

    def run():
        given_sequence = tuple(sequence) if as_tuple else list(sequence)
        return run_on_sequence(scripted_learner(script), given_sequence, oracle=oracle, **limits)

    if want.transcript.end_reason == "ticks":
        with pytest.raises(ActionBudgetExceeded) as exc_info:
            run()
        got = exc_info.value.partial
    else:
        got = run_or_raise(want, run)
        if got is None:
            return
    assert got.actions == want.actions
    queries = [event.payload for event in want.transcript.events if event.kind == "query"]
    assert (got.emissions, got.queries) == (want.transcript.hypothesis_stream(), queries)


def without_repeats(stream):
    return [h for i, h in enumerate(stream) if i == 0 or stream[i - 1] != h]


@pytest.mark.parametrize("gated", [False, True], ids=["composed", "gated"])
@settings(max_examples=120, deadline=None)
@given(
    tables=step_tables(),
    first=HYPOTHESES,
    data=st.lists(st.sampled_from(STEP_DATA), min_size=1, max_size=8),
    teacher_script=st.lists(TEACHER_PICKS, max_size=10),
    taken=st.integers(0, 10),
    tick_offset=TICK_OFFSETS,
    horizon_offset=HORIZON_OFFSETS,
    window=WINDOWS,
    members=oracles(),
)
# the pair emits its first hypothesis, and the teacher passes on two items for one datum:
# the pair steps and emits each
@example(
    tables=explicit_tables(lambda state, datum: (0, datum)), first=0, data=[1],
    teacher_script=[[0, 0]], taken=2, tick_offset=10**6, horizon_offset=0, window=None,
    members=None,
)
def test_a_stepped_pair_is_its_script_and_matches_the_two_agent_session(
    gated, tables, first, data, teacher_script, taken, tick_offset, horizon_offset, window,
    members,
):
    """A step learner behind a scripted teacher, composed by ``compose_pair`` or gated by
    ``convert_psdT_to_pmc``, logs what its script does; the composed pair's hypotheses are
    the two-agent session's, and the gated ones are those without repeats."""
    learner = derived_learner(*tables, first)
    horizon = max(0, taken + horizon_offset)
    text, raw = text_and_raw(data, horizon)
    script = composed_script(learner, raw, ScriptedTeacher(teacher_script), members, gated)
    ticks = ticks_and_taken(script)[0]
    budget = Budget(max_ticks=max(0, ticks + tick_offset), horizon=horizon, window=window)
    want = reference_session(script, raw, members=members, budget=budget)
    oracle = None if members is None else FiniteSet(members)

    def teacher():
        return ScriptedTeacher(teacher_script)

    pair = convert_psdT_to_pmc(learner, teacher) if gated else compose_pair(learner, teacher)
    got = run_or_raise(want, lambda: run_session(pair, text, oracle=oracle, budget=budget))
    if got is not None:
        assert got == want.transcript
    if want.transcript.end_reason == "ticks":
        return
    two_agent = outcome(
        lambda: run_session(
            learner,
            text,
            teacher=teacher(),
            oracle=oracle,
            budget=replace(budget, max_ticks=10**9),
        )
    )
    if got is None:
        assert two_agent is want.raises
        return
    stream = two_agent.hypothesis_stream()
    assert got.hypothesis_stream() == (without_repeats(stream) if gated else stream)
    assert got.ledger.mind_changes == two_agent.ledger.mind_changes
    assert got.ledger.oracle_queries == two_agent.ledger.oracle_queries
