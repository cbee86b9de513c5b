"""Properties: a step learner runs what its table says, and the trap walk decides every order.

A drawn step learner is a table ``(state, datum) -> (state, hypothesis or
None)`` over 1–4 states and the data 0–6.  ``Learner.from_step`` derives its
program; a hand-written generator of the same table must log the same
session, and both must match the script that the table unrolls to over the
text, under ``session_scripts``' reference.  The trap search's memoized walk
(``adversary._every_order_ends_on``) must give the verdict of running every
order of a drawn core through ``run_on_sequence``.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from session_scripts import HORIZON_OFFSETS, TICK_OFFSETS, reference_session, ticks_and_taken

from txtex_lab.adversary import _every_order_ends_on
from txtex_lab.session import READ, Budget, Learner, emit, run_on_sequence, run_session
from txtex_lab.sets import FiniteSet
from txtex_lab.text import make_text

DATA = range(7)
HYPOTHESES = st.none() | st.integers(0, 2)


@st.composite
def step_tables(draw):
    """A start state and a full table over 1–4 states and ``DATA``."""
    states = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(0, states - 1), HYPOTHESES)
    table = {(state, datum): draw(entry) for state in range(states) for datum in DATA}
    return draw(st.integers(0, states - 1)), table


def derived_learner(start, table):
    return Learner.from_step("table", start, lambda state, datum: table[state, datum], "drawn")


def handwritten_learner(start, table):
    def program():
        state = start
        while True:
            datum = yield READ
            state, hypothesis = table[state, datum]
            if hypothesis is not None:
                yield emit(hypothesis)

    return Learner("table", program)


def unrolled_script(start, table, raw):
    """The table's actions over ``raw``: a read, then an emit unless None, per datum."""
    script, state = [], start
    for datum in raw:
        state, hypothesis = table[state, datum]
        script.append(("read", 0))
        if hypothesis is not None:
            script.append(("emit", hypothesis))
    return script + [("read", 0)]  # the learner wants more


@settings(max_examples=80, deadline=None)
@given(
    learner_table=step_tables(),
    data=st.lists(st.sampled_from(DATA), min_size=1, max_size=8),
    tick_offset=TICK_OFFSETS,
    horizon_offset=HORIZON_OFFSETS,
    window=st.none() | st.integers(1, 4),
)
def test_a_derived_program_is_its_table_unrolled(
    learner_table, data, tick_offset, horizon_offset, window
):
    start, table = learner_table
    horizon = max(0, len(data) + horizon_offset)
    text = make_text("prefixed", FiniteSet(set(data)), prefix=data)
    raw = list(itertools.islice(text.stream(), horizon))
    script = unrolled_script(start, table, raw)
    budget = Budget(
        max_ticks=max(0, ticks_and_taken(script)[0] + tick_offset), horizon=horizon, window=window
    )
    want = reference_session(script, raw, budget=budget).transcript
    for learner in (derived_learner(start, table), handwritten_learner(start, table)):
        assert run_session(learner, text, budget=budget) == want
    run = run_on_sequence(derived_learner(start, table), raw)
    assert run.emissions == [value for op, value in script if op == "emit"]
    assert run.actions == len(script)


@settings(max_examples=120, deadline=None)
@given(
    learner_table=step_tables(),
    core=st.lists(st.sampled_from(DATA), min_size=1, max_size=6, unique=True),
    target=st.integers(0, 2),
)
def test_the_walk_decides_every_order(learner_table, core, target):
    learner = derived_learner(*learner_table)
    every_order = all(
        run_on_sequence(learner, order).last_hypothesis == target
        for order in itertools.permutations(core)
    )
    assert _every_order_ends_on(learner, tuple(core), target) is every_order
