"""Scripted learners and teachers, and the reference semantics every action loop is held to.

A learner here is a *script*, a list of ``(op, value)`` steps that
``scripted_learner`` acts out in order:

- ``read`` and ``skip`` take the next input element; a skipped element is
  not observed (the learner asserts it gets ``None`` back);
- ``query`` asks the oracle about the value;
- ``emit`` emits the value, and ``emit-last`` emits the last result the
  learner got back: the datum read, or a query's answer as 1 or 0;
- ``work`` declares the value as ticks of internal work; a value below 1
  is refused;
- ``unknown`` yields ``EmitLookalike()``, which no loop accepts.

Only ``query``, ``emit`` and ``work`` read the value.

``reference_session`` walks a script directly and derives what a session
over it logs, from the semantics that the ``session`` docstring and README
state: one tick per action plus declared work, the tick check before each
action, the horizon on raw text positions, the teacher pump with its one
``teach`` event per non-empty batch and its ``abort`` on an unseen item, and
convergence judged on raw positions.  It builds no learner program.

It also draws step learners as tables: ``step_tables`` gives a start state,
a step table over ``STEP_DATA`` whose outputs include queries, and the table
the step reads a query's answer from, and ``explicit_tables`` states such
tables for the explicit examples; ``derived_learner`` builds them with
``Learner.from_step``, with an optional first hypothesis, and
``data_counted`` lists the data such a learner is stepped on.  ``last_emission``
is a step learner's output on a word by a run, and ``fold_outputs`` folds
such outputs as the characteristic-sample walk must; ``shared_prefix``
measures what two words share, as the trap search's flat steps do.
``composed_script`` states as a script what a step learner composed with a
teacher by ``compose_pair``, or gated by ``agents.convert_psdT_to_pmc``,
does over the raw data, so the same reference covers both.

This is a helper module, not a test module: the session properties import
it, ``test_teacher_properties`` draws its learners from it, the step and
characteristic-sample properties draw their step learners from it, and the
chain-forcing property draws its scripted teachers from it.  ``runs_of``
groups a drawn word into a ``prefixed`` text's runs.
"""

from itertools import groupby, takewhile
from typing import NamedTuple

from hypothesis import strategies as st

from txtex_lab.session import (
    READ,
    EmissionSnapshot,
    Emit,
    Event,
    Learner,
    Query,
    ResourceLedger,
    SessionTranscript,
    Skip,
    Teacher,
    Work,
    query,
    run_on_sequence,
)

UNSEEN = 100  # above every drawn text element, so no teacher input ever holds it


class EmitLookalike:
    """Carries ``Emit``'s field, but ``run_session`` dispatches on the exact type."""

    hypothesis = 1


def scripted_learner(script, loops=False):
    """Runs ``script`` once, or forever when ``loops``."""

    def program():
        last = 0
        while True:
            for op, value in script:
                if op == "read":
                    last = yield READ
                elif op == "skip":
                    assert (yield Skip()) is None
                elif op == "query":
                    last = int((yield Query(value)))
                elif op == "emit":
                    yield Emit(value)
                elif op == "emit-last":
                    yield Emit(last)
                elif op == "work":
                    yield Work(value)
                else:
                    yield EmitLookalike()
            if not loops:
                return

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


class Walk(NamedTuple):
    transcript: SessionTranscript
    actions: int  # actions the learner yielded, the one that ended the session included
    raises: type | None  # the error the loop raises instead of returning
    message: str | None  # a part of that error's message


def reference_session(script, raw, *, teacher=None, members=None, budget):
    """What a session of ``scripted_learner(script)`` over the raw data ``raw`` logs.

    ``raw`` holds at least ``budget.horizon`` elements.  ``members`` is the
    oracle set (``None``: no oracle), and ``teacher`` a fresh teacher or
    ``None``.
    """
    events, emissions = [], []
    ticks = skips = queries = mind_changes = position = actions = 0
    read = set()
    convergence = None
    buffer, given = [], set()  # the teacher's undelivered items and the data it was given
    last = 0
    end, raises, message = "idle", None, None
    for step in [*script, None]:  # None: the learner idles
        if ticks >= budget.max_ticks:
            end = "ticks"
            break
        if step is None:
            break
        actions += 1
        op, value = step
        if op in ("read", "skip"):
            while teacher is not None and not buffer and position < budget.horizon:
                datum = raw[position]
                position += 1
                given.add(datum)
                batch = teacher.on_input(datum)
                unseen = [item for item in batch if item not in given]
                if unseen:
                    events.append(Event("abort", (f"teacher emitted unseen element {unseen[0]}",)))
                    end = "contract-violation"
                    break
                if batch:
                    events.append(Event("teach", (datum, tuple(batch))))
                    buffer += batch
            if end == "contract-violation":
                break
            if teacher is None and position < budget.horizon:
                element = raw[position]
                position += 1
            elif buffer:
                element = buffer.pop(0)
            else:
                end = "horizon"
                break
            ticks += 1
            if op == "read":
                last = element
                read.add(element)
                events.append(Event("read", (element,)))
            else:
                skips += 1
                events.append(Event("skip", ()))
        elif op in ("emit", "emit-last"):
            hypothesis = value if op == "emit" else last
            ticks += 1
            events.append(Event("emit", (hypothesis,)))
            snapshot = EmissionSnapshot(hypothesis, position, ticks, len(read), queries)
            if convergence is None or hypothesis != convergence.hypothesis:
                mind_changes += convergence is not None
                convergence = snapshot
            emissions.append(snapshot)
        elif op == "query":
            if members is None:
                raises, message = ValueError, "queried without an oracle"
                break
            answer = value in members
            last = int(answer)
            ticks += 1
            queries += 1
            events.append(Event("query", (value, answer)))
        elif op == "work":
            if value < 1:
                raises, message = ValueError, f"declared work of {value} units"
                break
            ticks += value
            events.append(Event("work", (value,)))
        elif op == "queried-twice":
            raises, message = TypeError, "queried twice on one datum"
            break
        else:
            raises, message = TypeError, "unknown action"
            break
    converged = convergence is not None and (
        end == "idle"
        or end == "horizon" and position - convergence.position >= budget.effective_window()
    )
    ledger = ResourceLedger(ticks, len(read), mind_changes, queries, skips)
    transcript = SessionTranscript(events, ledger, emissions, end, converged, convergence)
    return Walk(transcript, actions, raises, message)


def composed_script(learner, raw, teacher, members, gated=False):
    """The script that step learner ``learner`` behind ``teacher`` acts out over ``raw``.

    A teacher sees only the text, so the pair's actions are fixed by the
    step, the raw data and the oracle's ``members``.  Composed: an emit of
    ``first`` unless None, then per raw datum a read, and for each item the
    teacher passes on the step's query, if any, and an emit of its output
    unless None.  ``gated`` (the extension-gated conversion) holds the
    emits back and emits the latest output, if it changed, just before each
    read.  The script ends with the read past ``raw``, or at a query
    without an oracle, or with ``("queried-twice", 0)`` at a second query.
    """
    out, state, latest, emitted = [], learner.start, learner.first, None
    if not gated and latest is not None:
        out.append(("emit", latest))
    for datum in [*raw, None]:
        if gated and latest != emitted:
            out.append(("emit", latest))
            emitted = latest
        out.append(("read", 0))
        if datum is None:
            return out
        for item in teacher.on_input(datum):
            state, result = learner.step(state, item)
            if type(result) is Query:
                out.append(("query", result.x))
                if members is None:
                    return out
                state, result = learner.step(state, result.x in members)
                if type(result) is Query:
                    out.append(("queried-twice", 0))
                    return out
            if result is None:
                continue
            if gated:
                latest = result
            else:
                out.append(("emit", result))


def ticks_and_taken(script):
    """The ticks a whole script costs, and how many input elements it takes."""
    ticks = sum(
        value if op == "work" else 1
        for op, value in script
        if op not in ("unknown", "queried-twice")
    )
    return ticks, sum(op in ("read", "skip") for op, _ in script)


ELEMENTS = st.integers(0, 12)


def _positive_work(step):
    op, value = step
    return (op, value + 1) if op == "work" else step


# one draw per step; Hypothesis draws the ops listed first more often; work is 1–13 units
STEPS = st.tuples(
    st.sampled_from(["read", "query", "emit-last", "skip", "emit", "work"]), ELEMENTS
).map(_positive_work)
TEACHER_PICKS = st.lists(st.integers(0, 7), max_size=3)  # an empty list passes nothing on
# true about one draw in six; not an end of the range, which Hypothesis draws more often
RARELY = st.integers(1, 6).map(lambda i: i == 3)


@st.composite
def scripts(draw):
    """A script of up to 14 steps; now and then one of them is an unknown action,
    and now and then one declares no work or negative work."""
    script = draw(st.lists(STEPS, max_size=14))
    if draw(RARELY):
        script.insert(draw(st.integers(0, len(script))), ("unknown", 0))
    if draw(RARELY):
        script.insert(draw(st.integers(0, len(script))), ("work", draw(st.integers(-3, 0))))
    return script


@st.composite
def oracles(draw):
    """The oracle's members, or now and then ``None``: no oracle."""
    return None if draw(RARELY) else set(draw(st.lists(ELEMENTS, max_size=6)))


# offsets from what a script costs or takes: at and around its end, or far past it;
# the first listed is drawn most often
TICK_OFFSETS = st.sampled_from([10**6, -1, 0, -2, 1, 2])
HORIZON_OFFSETS = st.sampled_from([-1, 40, 0, -2, 1, 2, 3])


# step learners drawn as tables (see ``test_step_properties``)
STEP_DATA = range(7)
HYPOTHESES = st.none() | st.integers(0, 2)
QUERIES = st.builds(query, st.integers(0, 12))


@st.composite
def step_tables(draw, queries=True):
    """A start state, a full table over 1–4 states and ``STEP_DATA``, and its answer table.

    Without ``queries`` the table asks none, and its answer table is never read.
    """
    states = draw(st.integers(1, 4))
    state = st.integers(0, states - 1)
    entry = st.tuples(state, HYPOTHESES | QUERIES if queries else HYPOTHESES)
    table = {(s, datum): draw(entry) for s in range(states) for datum in STEP_DATA}
    second = QUERIES if draw(RARELY) else st.nothing()
    answer = st.tuples(state, HYPOTHESES | second)
    answers = {(s, a): draw(answer) for s in range(states) for a in (False, True)}
    return draw(state), table, answers


def explicit_tables(step, states=1):
    """The tables of ``step(state, datum)`` over ``states`` states and ``STEP_DATA``, from
    state 0; ``step`` asks no query, so the answer table is never read."""
    table = {(s, datum): step(s, datum) for s in range(states) for datum in STEP_DATA}
    return 0, table, {(s, answer): (s, None) for s in range(states) for answer in (False, True)}


def table_step(table, answers):
    """The step of drawn tables; a state ``(s,)`` awaits the answer to a query."""

    def step(state, datum):
        if type(state) is tuple:
            return answers[state[0], datum]
        after, out = table[state, datum]
        return ((after,) if type(out) is Query else after), out

    return step


def runs_of(word):
    """``word`` as runs ``(element, count)`` of equal neighbours: a ``make_text`` prefix."""
    return [(x, sum(1 for _ in group)) for x, group in groupby(word)]


def derived_learner(start, table, answers, first=None):
    return Learner.from_step("table", start, table_step(table, answers), "drawn", first)


def data_counted(learner, data):
    """``learner``, appending each datum it is stepped on to ``data``.

    A state ``(s,)`` awaits a query's answer (``table_step``), and an answer
    is not a datum, so a step learner whose states are not tuples counts
    right here.
    """

    def step(state, datum):
        if type(state) is not tuple:
            data.append(datum)
        return learner.step(state, datum)

    return Learner.from_step(learner.name, learner.start, step, learner.cost_note, learner.first)


def outcome(run):
    """``run()``'s value, or the type of the error it raises."""
    try:
        return run()
    except (TypeError, ValueError) as error:
        return type(error)


def last_emission(learner, word, oracle=None):
    """The last hypothesis a run of ``learner`` over ``word`` emits, or None."""
    return (run_on_sequence(learner, word, oracle=oracle).emissions or [None])[-1]


def shared_prefix(a, b) -> int:
    """The length of the longest common prefix of ``a`` and ``b``."""
    return sum(1 for _ in takewhile(lambda pair: pair[0] == pair[1], zip(a, b)))


def fold_outputs(words, output_of):
    """``evaluate._walk_covering_words``'s ``(words, locked, bad, output)``, by a loop over
    ``words``: the first word whose output is None or not the first word's, and the count
    before it."""
    count, locked = 0, None
    for word in words:
        output = output_of(word)
        if output is None or (locked is not None and output != locked):
            return count, locked, word, output
        count, locked = count + 1, output
    return count, locked, None, None
