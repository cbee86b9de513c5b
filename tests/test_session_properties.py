"""Property: ``run_session`` logs what the loop it replaced logged, record for record.

The reference below is the earlier loop, kept whole: it builds each ``Event``
and ``EmissionSnapshot`` through the named tuple's own constructor and copies
every teacher output, empty or not.  Learners and teachers are scripted, and
the budgets are drawn at and around the point where the learner's script ends.
"""

from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab.session import (
    READ,
    Budget,
    ContractViolation,
    EmissionSnapshot,
    Emit,
    Event,
    Learner,
    Query,
    Read,
    ResourceLedger,
    SessionTranscript,
    Skip,
    Teacher,
    Work,
    run_session,
)
from txtex_lab.sets import FiniteSet, SetSpec
from txtex_lab.text import make_text

UNSEEN = 100  # above every drawn text element, so no teacher input ever holds it


def reference_run_session(
    learner: Learner,
    text,
    *,
    teacher: Teacher | None = None,
    oracle: SetSpec | None = None,
    budget: Budget,
) -> SessionTranscript:
    """Drive the action loop to completion and return the full transcript.

    With a teacher, the loop pumps raw data through it while its buffer is
    empty: each datum is marked seen and given to ``teacher.on_input``, and
    whatever the teacher passes on is checked against the data seen so far,
    logged as one ``teach`` event and buffered for the learner.  Queries go
    to the oracle set alone; the teacher never hears of them.  Convergence is
    judged on raw text positions: the elements a teacher took, or without a
    teacher the elements the learner took.
    """
    max_ticks = budget.max_ticks
    horizon = budget.horizon
    events: list[Event] = []
    emissions: list[EmissionSnapshot] = []
    append = events.append
    seen_data: set[int] = set()
    ticks = mind_changes = queries = skips = 0
    raw = 0  # raw text positions consumed
    convergence: EmissionSnapshot | None = None  # first emission of the latest value
    end_reason = "idle"
    source = text.stream()

    if teacher is not None:
        on_input = teacher.on_input
        buffer: deque[int] = deque()
        seen: set[int] = set()

    program = learner.program()
    send = program.send
    result: object = None
    try:
        while True:
            if ticks >= max_ticks:
                end_reason = "ticks"
                break
            try:
                action = send(result)
            except StopIteration:
                end_reason = "idle"
                break
            result = None
            kind = type(action)
            if kind is Read or kind is Skip:
                if teacher is None:
                    if raw >= horizon:
                        end_reason = "horizon"
                        break
                    element = next(source)
                    raw += 1
                else:
                    while not buffer and raw < horizon:
                        datum = next(source, None)
                        if datum is None:
                            break
                        raw += 1
                        seen.add(datum)
                        items = tuple(on_input(datum))
                        if not items:
                            continue
                        for item in items:
                            if item not in seen:
                                raise ContractViolation(f"teacher emitted unseen element {item}")
                        append(Event("teach", (datum, items)))
                        buffer.extend(items)
                    if not buffer:
                        end_reason = "horizon"
                        break
                    element = buffer.popleft()
                ticks += 1
                if kind is Read:
                    seen_data.add(element)
                    append(Event("read", (element,)))
                    result = element
                else:
                    skips += 1
                    append(Event("skip", ()))
            elif kind is Emit:
                hypothesis = action.hypothesis
                ticks += 1
                append(Event("emit", (hypothesis,)))
                snapshot = EmissionSnapshot(hypothesis, raw, ticks, len(seen_data), queries)
                emissions.append(snapshot)
                if convergence is None:
                    convergence = snapshot
                elif hypothesis != convergence.hypothesis:
                    mind_changes += 1
                    convergence = snapshot
            elif kind is Query:
                if oracle is None:
                    raise ValueError(f"learner {learner.name} queried without an oracle")
                answer = oracle.contains(action.x)
                ticks += 1
                queries += 1
                append(Event("query", (action.x, answer)))
                result = answer
            elif kind is Work:
                ticks += action.units
                append(Event("work", (action.units,)))
            else:
                raise TypeError(f"unknown action {action!r}")
    except ContractViolation as violation:
        append(Event("abort", (str(violation),)))
        end_reason = "contract-violation"

    converged = False
    if convergence is not None:
        if end_reason == "idle":
            converged = True
        elif end_reason == "horizon":
            converged = raw - convergence.position >= budget.effective_window()
    return SessionTranscript(
        events=events,
        ledger=ResourceLedger(ticks, len(seen_data), mind_changes, queries, skips),
        emissions=emissions,
        end_reason=end_reason,
        converged=converged,
        convergence=convergence,
    )


def scripted_learner(script):
    """Runs ``script`` once, then idles; ``("emit-read",)`` emits the last datum read."""

    def program():
        last = 0
        for step in script:
            op = step[0]
            if op == "read":
                last = yield READ
            elif op == "skip":
                yield Skip()
            elif op == "query":
                yield Query(step[1])
            elif op == "emit":
                yield Emit(step[1])
            elif op == "emit-read":
                yield Emit(last)
            else:
                yield Work(step[1])

    return Learner("scripted", program)


class ScriptedTeacher(Teacher):
    """On its i-th input passes on the seen data that ``script[i]`` picks, then nothing.

    A pick of ``None`` is an element the teacher never received.
    """

    name = "scripted"

    def __init__(self, script):
        self.script = script
        self.seen = []
        self.cheated = False

    def on_input(self, datum):
        self.seen.append(datum)
        if len(self.seen) > len(self.script):
            return []
        out = []
        for pick in self.script[len(self.seen) - 1]:
            if pick is None:
                self.cheated = True
                out.append(UNSEEN)
            else:
                out.append(self.seen[pick % len(self.seen)])
        return out


steps = st.one_of(
    st.tuples(st.just("read")),
    st.tuples(st.just("skip")),
    st.tuples(st.just("query"), st.integers(0, 12)),
    st.tuples(st.just("emit"), st.integers(0, 3)),
    st.tuples(st.just("emit-read")),
    st.tuples(st.just("work"), st.integers(0, 3)),
)
seen_picks = st.lists(st.integers(0, 7), max_size=3)  # an empty list passes nothing on


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(steps, max_size=14),
    data=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    teacher_script=st.none() | st.lists(seen_picks, max_size=10),
    cheat_at=st.none() | st.integers(0, 9),
    tick_offset=st.integers(-2, 2) | st.just(10**6),
    horizon_offset=st.integers(-2, 3) | st.just(40),
    window=st.none() | st.integers(1, 4),
    members=st.sets(st.integers(0, 12), max_size=6),
)
def test_run_session_logs_what_the_reference_loop_logged(
    script, data, teacher_script, cheat_at, tick_offset, horizon_offset, window, members,
    fold_events,
):
    ticks = sum(step[1] if step[0] == "work" else 1 for step in script)
    taken = sum(step[0] in ("read", "skip") for step in script)
    budget = Budget(
        max_ticks=max(0, ticks + tick_offset), horizon=max(0, taken + horizon_offset), window=window
    )
    text = make_text("prefixed", FiniteSet(set(data)), prefix=data)
    oracle = FiniteSet(members)
    if teacher_script is not None and cheat_at is not None and cheat_at < len(teacher_script):
        teacher_script = list(teacher_script)
        teacher_script[cheat_at] = [*teacher_script[cheat_at], None]

    def run(loop):
        teacher = None if teacher_script is None else ScriptedTeacher(teacher_script)
        learner = scripted_learner(script)
        return loop(learner, text, teacher=teacher, oracle=oracle, budget=budget), teacher

    got, teacher = run(run_session)
    want, _ = run(reference_run_session)

    assert got.events == want.events
    assert got.emissions == want.emissions
    assert got.ledger == want.ledger
    assert (got.end_reason, got.convergence, got.converged) == (
        want.end_reason,
        want.convergence,
        want.converged,
    )
    assert fold_events(got.events)[0] == got.ledger.as_dict()
    aborts = [event for event in got.events if event.kind == "abort"]
    cheated = teacher is not None and teacher.cheated
    assert len(aborts) == cheated
    if cheated:
        assert got.events[-1] == aborts[0] and got.end_reason == "contract-violation"
