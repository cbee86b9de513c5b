"""The learning-session machine.

A session drives one deterministic learner over a text, optionally through a
teacher and with a membership oracle, while metering every cost: one tick per
action plus whatever internal work the learner declares, distinct data
consumed, mind changes, oracle queries and skips.  The oracle is the target
set itself: a query ``x`` is answered by ``oracle.contains(x)``.  The full
event log is replayable bit for bit.

Learners are written as generators that yield actions and receive the
action's result back::

    def program():
        datum = yield READ
        answer = yield query(datum + 1)
        yield emit(0 if answer else datum)

Actions are frozen values, so one instance may serve every step that yields
it.  A learner yields the constant ``READ`` (an equal ``Read()`` works too),
and builds its payload actions with ``emit(h)`` and ``query(x)``: each
returns an instance shared since import for an ``int`` payload below
``SHARED_PAYLOADS`` and a new one otherwise.  ``Emit(h)`` and ``Query(x)``
stay valid and equal; ``Work`` is frozen too, but not shared.

A learner that takes at most a read, a query and an emit per datum may be
built by ``Learner.from_step`` from a hashable start state, a step
``step(state, datum) -> (state, hypothesis or None or a Query)`` and an
optional first hypothesis.  A ``Query`` is answered by the next call,
``step(state, answer)``, which must return a hypothesis or None.
``run_session`` runs its derived program like any other; the learner keeps
its step, so a search may walk its states instead, resolving each datum and
its query with ``resolve_step``, or fold them over a finite input with
``step_through``, which gives that input's run output.

Teachers are stream transducers over the text: per input datum they return
the finite list of elements they pass on, which must all have occurred in
their input so far.  A teacher sees only the text, never the learner's
queries or their answers.  ``run_session`` pumps a teacher inline, feeding it
raw data while its buffer is empty; ``compose_pair`` makes one learner
program that steps a step learner behind its own teacher.  Events and
emission snapshots are named tuples; ``run_session`` builds each with
``tuple.__new__`` on its type, in C, which skips the arity check of the
named tuple's own constructor, so every site passes all fields; it logs a
repeated emit or any skip by its last record.  A teacher output is copied
into a tuple only when it is non-empty.  The ledger is built once, when the
session ends.  An event is ``(kind, payload)``: its step is its index in
the event list, which ``events_jsonl`` writes as each line's ``step``, so
the JSONL is the same.

``run_session`` is the one interpreter of learner programs: it alone gives
actions their meaning, meters and budgets them.  Pairs and conversions
step their learners: ``from_step`` and ``compose_pair`` share one step
program, and the conversions in ``agents`` step theirs.
``run_on_sequence`` runs a program over a finite input as a session
stopped past its end, with no loop of its own: ``compute_q``'s marker run, the trap search's one decoy run and
one chain replay in ``verify``.  The three searches, the
characteristic-sample checks, the trap search and chain forcing, otherwise
only step their learners.  A learner object only makes programs and a set
holds no state, so a search holds one learner and one oracle set per call.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Hashable, NamedTuple, Sequence

from .sets import FiniteSet, SetSpec
from .text import Text


# ---------------------------------------------------------------------------
# actions


# Every action is frozen, so a shared instance cannot change under another
# step.  Field-less actions are shared as ``READ``; ``emit`` and ``query``
# share one instance per natural payload below ``SHARED_PAYLOADS``, built
# here at import, so no learner step builds one and no table fills at run time.
@dataclass(frozen=True, init=False)
class Read:
    """Consume and observe the next element of the learner's input stream."""


READ = Read()


@dataclass(frozen=True, init=False)
class Skip:
    """Advance the input stream without observing the element (fixed cost 1)."""


@dataclass(frozen=True, slots=True)
class Query:
    x: int


@dataclass(frozen=True, slots=True)
class Emit:
    hypothesis: int


@dataclass(frozen=True, slots=True)
class Work:
    """Declare ``units`` ticks of internal computation; ``units`` must be a positive ``int``."""

    units: int


SHARED_PAYLOADS = 256
_EMITS = tuple(Emit(h) for h in range(SHARED_PAYLOADS))
_QUERIES = tuple(Query(x) for x in range(SHARED_PAYLOADS))


def emit(hypothesis: int) -> Emit:
    """``Emit(hypothesis)``: the shared instance for an ``int`` in ``[0, SHARED_PAYLOADS)``."""
    if type(hypothesis) is int and 0 <= hypothesis < SHARED_PAYLOADS:
        return _EMITS[hypothesis]
    return Emit(hypothesis)


def query(x: int) -> Query:
    """``Query(x)``: the shared instance for an ``int`` in ``[0, SHARED_PAYLOADS)``."""
    if type(x) is int and 0 <= x < SHARED_PAYLOADS:
        return _QUERIES[x]
    return Query(x)


Action = Read | Skip | Query | Emit | Work
LearnerProgram = Generator[Action, object, None]


class Learner:
    """A deterministic learner: a name, a cost note and a maker of fresh programs.

    ``program()`` starts a new generator on each call, so one learner serves
    any number of sessions and runs.  A learner made by ``from_step`` also
    keeps its ``start`` state, its ``first`` hypothesis and its ``step``,
    which may ask one query per datum, and derives its programs from them;
    any other has ``step`` None and calls its ``make_program``.
    """

    start: Hashable = None
    first: int | None = None
    step: Callable | None = None

    def __init__(
        self,
        name: str,
        make_program: Callable[[], LearnerProgram] | None,
        cost_note: str = "one tick per action",
    ):
        self.name = name
        self.make_program = make_program
        self.cost_note = cost_note

    def program(self) -> LearnerProgram:
        # a method, not a closure over the learner: a step learner is no reference cycle
        return self.make_program() if self.step is None else _step_program(self, None)

    @classmethod
    def from_step(
        cls, name: str, start: Hashable, step: Callable, cost_note: str, first: int | None = None
    ) -> Learner:
        """The learner that reads a datum, steps, and emits the step's hypothesis unless None.

        ``step(state, datum)`` returns ``(state, hypothesis or None or a
        Query)``.  The program yields a ``Query`` and steps on its answer,
        ``step(state, answer)``, which must return a hypothesis or None: a
        second ``Query`` raises ``TypeError``.  It emits ``first`` before its
        first read unless None, starts from ``start`` and declares no work.
        """
        learner = cls(name, None, cost_note)
        learner.start = start
        learner.first = first
        learner.step = step
        return learner

    def spec(self) -> dict:
        return {"kind": "learner", "name": self.name, "costs": self.cost_note}


def resolve_step(learner: Learner, state, datum, oracle: SetSpec | None):
    """A step learner's step on ``datum``, with its query answered by ``oracle``.

    Returns ``(state, hypothesis or None)``, as the derived program reaches
    them.  A query raises ``ValueError`` without an oracle, as in
    ``run_session``, and a second query ``TypeError``, as in the program.
    """
    step = learner.step
    state, out = step(state, datum)
    if type(out) is Query:
        if oracle is None:
            raise ValueError(f"learner {learner.name} queried without an oracle")
        state, out = step(state, oracle.contains(out.x))
        if type(out) is Query:
            raise TypeError(f"learner {learner.name} queried twice on one datum")
    return state, out


def step_through(learner: Learner, data: Sequence[int], oracle: SetSpec | None) -> int | None:
    """A step learner's last hypothesis over ``data``, or None: the output of its run on them."""
    state, last = learner.start, learner.first
    for datum in data:
        state, hypothesis = resolve_step(learner, state, datum, oracle)
        if hypothesis is not None:
            last = hypothesis
    return last


class Teacher:
    """Prefix-monotone stream transducer; emissions must come from its input."""

    name = "teacher"

    def on_input(self, datum: int) -> list[int]:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": "teacher", "name": self.name}


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


class Event(NamedTuple):
    """One logged action; its step is its index in the transcript's event list."""

    kind: str  # read | skip | query | emit | teach | work | abort
    payload: tuple


class EmissionSnapshot(NamedTuple):
    """Ledger state at the moment a hypothesis was emitted."""

    hypothesis: int
    position: int  # raw text positions consumed so far
    ticks: int
    distinct_data: int
    oracle_queries: int


@dataclass
class Budget:
    max_ticks: int = 200_000
    horizon: int = 512
    window: int | None = None  # convergence window in raw text positions

    def effective_window(self) -> int:
        return self.window if self.window is not None else max(1, self.horizon // 4)


@dataclass
class SessionTranscript:
    """A session's record; one event object may stand at several steps of ``events``."""

    events: list[Event]
    ledger: ResourceLedger
    emissions: list[EmissionSnapshot]
    end_reason: str  # idle | horizon | ticks | contract-violation
    converged: bool
    convergence: EmissionSnapshot | None

    @property
    def final_hypothesis(self) -> int | None:
        """The hypothesis the session ended on: that of its last change."""
        return None if self.convergence is None else self.convergence.hypothesis

    def hypothesis_stream(self) -> list[int]:
        return [e.hypothesis for e in self.emissions]

    def events_jsonl(self) -> str:
        return "\n".join(
            json.dumps(
                {"step": step, "kind": kind, "payload": list(payload)},
                sort_keys=True,
                separators=(",", ":"),
            )
            for step, (kind, payload) in enumerate(self.events)
        )

    def ledger_json(self) -> str:
        return json.dumps(self.ledger.as_dict(), sort_keys=True, separators=(",", ":"))


class ContractViolation(Exception):
    """Teacher emitted an element it has not received."""


def run_session(
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
    teacher the elements the learner took.  A ``Work`` whose units are not
    a positive ``int`` raises ``ValueError``, naming the learner, so every
    action spends at least one tick.  The last ``Emit`` object again, or
    any skip, logs the last such record again, so a transcript may hold one
    record object at several steps.
    """
    max_ticks = budget.max_ticks
    horizon = budget.horizon
    new = tuple.__new__  # builds a record in C, without the arity check
    events: list[Event] = []
    emissions: list[EmissionSnapshot] = []
    append = events.append
    seen_data: set[int] = set()
    ticks = mind_changes = queries = skips = 0
    raw = 0  # raw text positions consumed
    convergence: EmissionSnapshot | None = None  # first emission of the latest value
    end_reason = "idle"
    source = text.stream()
    last_emit = emit_event = None  # the last Emit action and its record
    skip_event = new(Event, ("skip", ()))

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
                        items = on_input(datum)
                        if not items:
                            continue
                        items = tuple(items)
                        for item in items:
                            if item not in seen:
                                raise ContractViolation(f"teacher emitted unseen element {item}")
                        append(new(Event, ("teach", (datum, items))))
                        buffer.extend(items)
                    if not buffer:
                        end_reason = "horizon"
                        break
                    element = buffer.popleft()
                ticks += 1
                if kind is Read:
                    seen_data.add(element)
                    append(new(Event, ("read", (element,))))
                    result = element
                else:
                    skips += 1
                    append(skip_event)
            elif kind is Emit:
                hypothesis = action.hypothesis
                ticks += 1
                if action is not last_emit:
                    last_emit = action
                    emit_event = new(Event, ("emit", (hypothesis,)))
                append(emit_event)
                snapshot = new(EmissionSnapshot, (hypothesis, raw, ticks, len(seen_data), queries))
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
                append(new(Event, ("query", (action.x, answer))))
                result = answer
            elif kind is Work:
                units = action.units
                if type(units) is not int or units < 1:
                    raise ValueError(f"learner {learner.name} declared work of {units!r} units")
                ticks += units
                append(new(Event, ("work", (units,))))
            else:
                raise TypeError(f"unknown action {action!r}")
    except ContractViolation as violation:
        append(new(Event, ("abort", (str(violation),))))
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


# ---------------------------------------------------------------------------
# finite-prefix runs (the query-ceiling measure, the trap decoy run, a replay)


class ActionBudgetExceeded(Exception):
    """A ``run_on_sequence`` run ran out of its tick budget, ``max_actions``.

    Carries the partial run so callers can report what was observed.
    """

    def __init__(self, message: str, partial: "PrefixRun"):
        super().__init__(message)
        self.partial = partial


@dataclass
class PrefixRun:
    emissions: list[int]
    queries: list[tuple[int, bool]]
    actions: int


def run_on_sequence(
    learner: Learner,
    sequence: Sequence[int],
    *,
    oracle: SetSpec | None = None,
    max_actions: int = 100_000,
) -> PrefixRun:
    """Run ``learner`` over a finite input, stopping when it wants more.

    A ``run_session`` over ``sequence`` with its length as the horizon and
    ``max_actions`` as the tick budget, so ``Work(u)`` costs u.  The learner's
    output on the finite string is the last hypothesis emitted before it
    requests an element past the end of ``sequence``; that request counts as
    one of the run's ``actions``.  A run whose ticks reach ``max_actions``
    before it idles or reads past the end raises
    :class:`ActionBudgetExceeded`, even if the next step would idle.  A tuple
    input is used as it is; anything else is copied into one.
    """
    items = tuple(sequence)
    text = Text("prefixed", FiniteSet(items), items)
    budget = Budget(max_ticks=max_actions, horizon=len(items))
    transcript = run_session(learner, text, oracle=oracle, budget=budget)
    run = PrefixRun(
        transcript.hypothesis_stream(),
        [event.payload for event in transcript.events if event.kind == "query"],
        len(transcript.events) + (transcript.end_reason == "horizon"),
    )
    if transcript.end_reason == "ticks":
        raise ActionBudgetExceeded(f"{learner.name} exceeded {max_actions} actions", run)
    return run


# ---------------------------------------------------------------------------
# step programs: a step learner alone, or behind its own teacher


def _step_program(learner: Learner, make_teacher: Callable[[], Teacher] | None) -> LearnerProgram:
    """The program of step learner ``learner``, alone or behind a fresh ``make_teacher()``.

    It emits ``first`` unless None.  Then per raw datum it steps over that
    datum, or over each item the teacher passes on: a ``Query`` is yielded
    and the learner steps on its answer, and an output that is not None is
    emitted.
    """
    step = learner.step
    on_input = None if make_teacher is None else make_teacher().on_input
    if learner.first is not None:
        yield emit(learner.first)
    state = learner.start
    while True:
        datum = yield READ
        for item in (datum,) if on_input is None else on_input(datum):
            state, out = step(state, item)
            if type(out) is Query:
                state, out = step(state, (yield out))
                if type(out) is Query:
                    raise TypeError(f"learner {learner.name} queried twice on one datum")
            if out is not None:
                yield emit(out)


def compose_pair(learner: Learner, make_teacher: Callable[[], Teacher]) -> Learner:
    """One learner stepping step learner ``learner`` behind a fresh teacher; its
    hypothesis stream is the pair's."""
    if learner.step is None:
        raise TypeError(f"learner {learner.name} has no step for a composed pair")
    return Learner(f"composed({learner.name})", lambda: _step_program(learner, make_teacher))
