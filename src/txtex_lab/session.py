"""The learning-session machine.

A session drives one deterministic learner over a text, optionally through a
teacher and with a membership oracle, while metering every cost: one tick per
action plus whatever internal work the learner declares, distinct data
consumed, mind changes, oracle queries and skips.  The full event log is
replayable bit for bit.

Learners are written as generators that yield actions and receive the
action's result back::

    def program():
        datum = yield Read()
        answer = yield Query(datum + 1)
        yield Emit(0 if answer else datum)

Teachers are stream transducers: per input datum they return the finite list
of elements they pass on, which must all have occurred in their input so far.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Sequence

from .sets import SetSpec


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class Read:
    """Consume and observe the next element of the learner's input stream."""


@dataclass(frozen=True)
class Skip:
    """Advance the input stream without observing the element (fixed cost 1)."""


@dataclass(frozen=True)
class Query:
    x: int


@dataclass(frozen=True)
class Emit:
    hypothesis: int


@dataclass(frozen=True)
class Work:
    """Declare ``units`` ticks of internal computation."""

    units: int


Action = Read | Skip | Query | Emit | Work
LearnerProgram = Generator[Action, object, None]


class Learner:
    """A deterministic learner; subclass or wrap a generator via GenLearner."""

    name = "learner"
    cost_note = "one tick per action"

    def program(self) -> LearnerProgram:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": "learner", "name": self.name, "costs": self.cost_note}

    def spec_json(self) -> str:
        return json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))


class GenLearner(Learner):
    def __init__(self, name: str, make_program: Callable[[], LearnerProgram], cost_note: str = ""):
        self.name = name
        self._make = make_program
        if cost_note:
            self.cost_note = cost_note

    def program(self) -> LearnerProgram:
        return self._make()


class Teacher:
    """Prefix-monotone stream transducer; emissions must come from its input."""

    name = "teacher"

    def on_input(self, datum: int) -> list[int]:
        raise NotImplementedError

    def on_query_response(self, x: int, answer: bool) -> list[int]:
        return []

    def spec(self) -> dict:
        return {"kind": "teacher", "name": self.name}

    def spec_json(self) -> str:
        return json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))


class MembershipOracle:
    """Answers membership in a fixed target; counts every query."""

    def __init__(self, target: SetSpec):
        self.target = target
        self.queries = 0

    def answer(self, x: int) -> bool:
        self.queries += 1
        return self.target.contains(x)


class FnOracle(MembershipOracle):
    """Oracle over an arbitrary membership predicate."""

    def __init__(self, fn: Callable[[int], bool]):
        self.fn = fn
        self.queries = 0

    def answer(self, x: int) -> bool:
        self.queries += 1
        return self.fn(x)


# ---------------------------------------------------------------------------
# ledger, events, transcript


@dataclass
class ResourceLedger:
    ticks: int = 0
    distinct_data: int = 0
    mind_changes: int = 0
    oracle_queries: int = 0
    skips: int = 0

    def as_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "distinct_data": self.distinct_data,
            "mind_changes": self.mind_changes,
            "oracle_queries": self.oracle_queries,
            "skips": self.skips,
        }


@dataclass(frozen=True, slots=True)
class Event:
    step: int
    kind: str  # read | skip | query | emit | teach | work | abort
    payload: tuple

    def as_dict(self) -> dict:
        return {"step": self.step, "kind": self.kind, "payload": list(self.payload)}


@dataclass(frozen=True)
class EmissionSnapshot:
    """Ledger state at the moment a hypothesis was emitted."""

    hypothesis: int
    position: int  # input elements consumed so far
    ticks: int
    distinct_data: int
    oracle_queries: int
    event_index: int


@dataclass
class Budget:
    max_ticks: int = 200_000
    horizon: int = 512
    window: int | None = None  # convergence window in raw text positions

    def effective_window(self) -> int:
        return self.window if self.window is not None else max(1, self.horizon // 4)


@dataclass
class SessionTranscript:
    events: list[Event]
    ledger: ResourceLedger
    emissions: list[EmissionSnapshot]
    consumed: int
    end_reason: str  # idle | horizon | ticks | contract-violation
    converged: bool
    final_hypothesis: int | None
    convergence: EmissionSnapshot | None

    def hypothesis_stream(self) -> list[int]:
        return [e.hypothesis for e in self.emissions]

    def events_jsonl(self) -> str:
        return "\n".join(
            json.dumps(e.as_dict(), sort_keys=True, separators=(",", ":")) for e in self.events
        )

    def ledger_json(self) -> str:
        return json.dumps(self.ledger.as_dict(), sort_keys=True, separators=(",", ":"))


class ContractViolation(Exception):
    """Teacher emitted an element it has not received."""


class _TeacherConduit:
    """Feeds raw text through a teacher into a buffer the learner reads from.

    Every batch of items the teacher passes on is logged as a ``teach`` event
    once it has passed the contract check.
    """

    def __init__(self, teacher: Teacher, source: Iterator[int], log: Callable[..., None]):
        self.teacher = teacher
        self.source = source
        self.log = log
        self.buffer: deque[int] = deque()
        self.seen: set[int] = set()
        self.raw_consumed = 0

    def _admit(self, datum: int | None, items: tuple[int, ...]) -> None:
        for item in items:
            if item not in self.seen:
                raise ContractViolation(f"teacher emitted unseen element {item}")
        self.buffer.extend(items)
        self.log("teach", datum, items)

    def feed_query_response(self, x: int, answer: bool) -> None:
        items = tuple(self.teacher.on_query_response(x, answer))
        if items:
            self._admit(None, items)

    def pull(self, raw_limit: int) -> int | None:
        """Next buffered element; pumps raw data through the teacher as needed.

        Returns None once the buffer is empty and the raw text or
        ``raw_limit`` is used up.
        """
        buffer = self.buffer
        while not buffer and self.raw_consumed < raw_limit:
            try:
                datum = next(self.source)
            except StopIteration:
                break
            self.raw_consumed += 1
            self.seen.add(datum)
            items = tuple(self.teacher.on_input(datum))
            if items:
                self._admit(datum, items)
        return buffer.popleft() if buffer else None


def run_session(
    learner: Learner,
    text,
    *,
    teacher: Teacher | None = None,
    oracle: MembershipOracle | None = None,
    budget: Budget | None = None,
) -> SessionTranscript:
    """Drive the action loop to completion and return the full transcript."""
    budget = budget or Budget()
    ledger = ResourceLedger()
    events: list[Event] = []
    emissions: list[EmissionSnapshot] = []
    seen_data: set[int] = set()
    consumed = 0
    end_reason = "idle"

    source = text.stream()

    def log(kind: str, *payload) -> None:
        events.append(Event(len(events), kind, payload))

    conduit = _TeacherConduit(teacher, source, log) if teacher is not None else None

    def position() -> int:
        """Raw text positions consumed; the axis for convergence stability."""
        return conduit.raw_consumed if conduit is not None else consumed

    def next_input() -> int | None:
        nonlocal consumed
        if conduit is not None:
            element = conduit.pull(budget.horizon)
            if element is None:
                return None
            consumed += 1
            return element
        if consumed >= budget.horizon:
            return None
        consumed += 1
        return next(source)

    program = learner.program()
    send = program.send
    append = events.append
    result: object = None
    try:
        while True:
            if ledger.ticks >= budget.max_ticks:
                end_reason = "ticks"
                break
            try:
                action = send(result)
            except StopIteration:
                end_reason = "idle"
                break
            result = None
            kind = type(action)
            if kind is Read:
                element = next_input()
                if element is None:
                    end_reason = "horizon"
                    break
                ledger.ticks += 1
                if element not in seen_data:
                    seen_data.add(element)
                    ledger.distinct_data += 1
                append(Event(len(events), "read", (element,)))
                result = element
            elif kind is Emit:
                ledger.ticks += 1
                if emissions and emissions[-1].hypothesis != action.hypothesis:
                    ledger.mind_changes += 1
                append(Event(len(events), "emit", (action.hypothesis,)))
                emissions.append(
                    EmissionSnapshot(
                        hypothesis=action.hypothesis,
                        position=position(),
                        ticks=ledger.ticks,
                        distinct_data=ledger.distinct_data,
                        oracle_queries=ledger.oracle_queries,
                        event_index=len(events) - 1,
                    )
                )
            elif kind is Query:
                if oracle is None:
                    raise ValueError(f"learner {learner.name} queried without an oracle")
                answer = oracle.answer(action.x)
                ledger.ticks += 1
                ledger.oracle_queries += 1
                log("query", action.x, answer)
                if conduit is not None:
                    conduit.feed_query_response(action.x, answer)
                result = answer
            elif kind is Work:
                ledger.ticks += action.units
                log("work", action.units)
            elif kind is Skip:
                element = next_input()
                if element is None:
                    end_reason = "horizon"
                    break
                ledger.ticks += 1
                ledger.skips += 1
                log("skip")
            else:
                raise TypeError(f"unknown action {action!r}")
    except ContractViolation as violation:
        log("abort", str(violation))
        end_reason = "contract-violation"

    final_hypothesis = emissions[-1].hypothesis if emissions else None
    convergence = _convergence_point(emissions)
    converged = False
    if emissions:
        if end_reason == "idle":
            converged = True
        elif end_reason == "horizon":
            converged = position() - convergence.position >= budget.effective_window()
    return SessionTranscript(
        events=events,
        ledger=ledger,
        emissions=emissions,
        consumed=consumed,
        end_reason=end_reason,
        converged=converged,
        final_hypothesis=final_hypothesis,
        convergence=convergence,
    )


def _convergence_point(emissions: list[EmissionSnapshot]) -> EmissionSnapshot | None:
    """First emission of the final stable hypothesis value."""
    if not emissions:
        return None
    idx = 0
    for i in range(1, len(emissions)):
        if emissions[i].hypothesis != emissions[i - 1].hypothesis:
            idx = i
    return emissions[idx]


# ---------------------------------------------------------------------------
# finite-prefix runs (used by searches and characteristic-sample checks)


class ActionBudgetExceeded(Exception):
    """A bounded simulation ran out of its action budget.

    Carries the partial run so callers can report what was observed.
    """

    def __init__(self, message: str, partial: "PrefixRun | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass
class PrefixRun:
    emissions: list[int]
    queries: list[tuple[int, bool]]
    actions: int
    exhausted_input: bool
    idled: bool

    @property
    def last_hypothesis(self) -> int | None:
        return self.emissions[-1] if self.emissions else None


def run_on_sequence(
    learner: Learner,
    sequence: Sequence[int],
    *,
    oracle: MembershipOracle | None = None,
    max_actions: int = 100_000,
) -> PrefixRun:
    """Run ``learner`` over a finite input, stopping when it wants more.

    The learner's output on the finite string is the last hypothesis emitted
    before it requests an element past the end of ``sequence``.
    """
    program = learner.program()
    send = program.send
    items = tuple(sequence)
    size = len(items)
    pos = 0
    emissions: list[int] = []
    queries: list[tuple[int, bool]] = []
    actions = 0
    result: object = None
    while True:
        if actions >= max_actions:
            raise ActionBudgetExceeded(
                f"{learner.name} exceeded {max_actions} actions",
                PrefixRun(emissions, queries, actions, exhausted_input=False, idled=False),
            )
        try:
            action = send(result)
        except StopIteration:
            return PrefixRun(emissions, queries, actions, exhausted_input=False, idled=True)
        actions += 1
        result = None
        kind = type(action)
        if kind is Read or kind is Skip:
            if pos == size:
                return PrefixRun(emissions, queries, actions, exhausted_input=True, idled=False)
            if kind is Read:
                result = items[pos]
            pos += 1
        elif kind is Emit:
            emissions.append(action.hypothesis)
        elif kind is Query:
            if oracle is None:
                raise ValueError(f"learner {learner.name} queried without an oracle")
            answer = oracle.answer(action.x)
            queries.append((action.x, answer))
            result = answer
        elif kind is not Work:
            raise TypeError(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# pair composition


class ComposedLearner(Learner):
    """One learner that simulates a (learner, teacher) pair internally.

    Reads raw data itself, feeds its private teacher copy, and runs the inner
    learner on the teacher's output; queries are forwarded both ways.  Its
    hypothesis stream equals the pair's.
    """

    def __init__(self, make_learner: Callable[[], Learner], make_teacher: Callable[[], Teacher]):
        self.make_learner = make_learner
        self.make_teacher = make_teacher
        self.name = f"composed({make_learner().name})"

    def program(self) -> LearnerProgram:
        inner = self.make_learner().program()
        teacher = self.make_teacher()
        buffer: deque[int] = deque()
        result: object = None
        while True:
            try:
                action = inner.send(result)
            except StopIteration:
                return
            result = None
            if isinstance(action, Read):
                while not buffer:
                    datum = yield Read()
                    buffer.extend(teacher.on_input(datum))
                result = buffer.popleft()
            elif isinstance(action, Skip):
                while not buffer:
                    datum = yield Read()
                    buffer.extend(teacher.on_input(datum))
                buffer.popleft()
                yield Work(1)
            elif isinstance(action, Query):
                answer = yield action
                buffer.extend(teacher.on_query_response(action.x, answer))
                result = answer
            else:
                yield action


def compose_pair(
    make_learner: Callable[[], Learner], make_teacher: Callable[[], Teacher]
) -> ComposedLearner:
    return ComposedLearner(make_learner, make_teacher)
