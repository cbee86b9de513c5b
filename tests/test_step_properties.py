"""Properties: a step learner runs what its table says, and the walks decide what the runs decide.

A drawn step learner is a table ``(state, datum) -> (state, hypothesis or
None or a Query)`` over 1–4 states and the data 0–6, with an answer table
``(state, answer) -> (state, hypothesis or None)`` that its step reads after
a query; now and then the answer table asks a second query, which every path
must refuse with ``TypeError``.  It may have a first hypothesis, emitted
before its first read.  ``Learner.from_step`` derives its program; a
hand-written generator of the same tables must log the same session, and
both must match the script that the tables unroll to over the text and the
oracle, under ``session_scripts``' reference.  ``step_through`` must give
the run's last emission.  The trap search's memoized walk
(``adversary._every_order_ends_on``) must give the outcome of running every
order of a drawn core through ``run_on_sequence``, and the
characteristic-sample walk (``evaluate._walk_covering_words``) the fold of
the last emissions of a run over each word, up to the first word that ends
on None or on another hypothesis: the same value, or the same error, empty
input included.  Both walks memoize the learner's states, and free their
memos when they return; a step learner is freed with its last reference.
"""

import gc
import itertools
import weakref

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from session_scripts import (
    HORIZON_OFFSETS,
    HYPOTHESES,
    STEP_DATA,
    TICK_OFFSETS,
    derived_learner,
    explicit_tables,
    fold_outputs,
    last_emission,
    oracles,
    outcome,
    reference_session,
    step_tables,
    ticks_and_taken,
)

from txtex_lab import agents, families
from txtex_lab.adversary import _every_order_ends_on, search_trap_sets
from txtex_lab.codec import poly_encode
from txtex_lab.evaluate import _walk_covering_words, check_characteristic_sample
from txtex_lab.session import (
    READ,
    Budget,
    Learner,
    Query,
    emit,
    query,
    run_on_sequence,
    run_session,
    step_through,
)
from txtex_lab.sets import FiniteSet
from txtex_lab.text import make_text

def handwritten_learner(start, table, answers, first=None):
    def program():
        if first is not None:
            yield emit(first)
        state = start
        while True:
            datum = yield READ
            state, out = table[state, datum]
            if type(out) is Query:
                state, out = answers[state, (yield out)]
                if type(out) is Query:
                    raise TypeError("learner table queried twice on one datum")
            if out is not None:
                yield emit(out)

    return Learner("table", program)


def unrolled_script(start, table, answers, first, raw, members):
    """The tables' actions over ``raw`` with ``members`` answering: an emit of
    ``first`` unless None, then per datum a read, the query if any, then an
    emit unless None.

    The script stops at a query without an oracle, where the reference
    raises ``ValueError``, and ends on an unknown action at a second query,
    where it raises ``TypeError``.
    """
    script, state = ([] if first is None else [("emit", first)]), start
    for datum in raw:
        script.append(("read", 0))
        state, out = table[state, datum]
        if type(out) is Query:
            script.append(("query", out.x))
            if members is None:
                return script
            state, out = answers[state, out.x in members]
            if type(out) is Query:
                return script + [("unknown", 0)]
        if out is not None:
            script.append(("emit", out))
    return script + [("read", 0)]  # the learner wants more


@settings(max_examples=120, deadline=None)
@given(
    tables=step_tables(),
    first=HYPOTHESES,
    data=st.lists(st.sampled_from(STEP_DATA), min_size=1, max_size=8),
    members=oracles(),
    tick_offset=TICK_OFFSETS,
    horizon_offset=HORIZON_OFFSETS,
    window=st.none() | st.integers(1, 4),
)
# the first hypothesis comes before the first read, and a step that emits nothing keeps the last
@example(
    tables=explicit_tables(lambda read, datum: (1, None if read else datum), states=2), first=0,
    data=[1, 2], members=None, tick_offset=10**6, horizon_offset=0, window=None,
)
def test_a_derived_program_is_its_table_unrolled(
    tables, first, data, members, tick_offset, horizon_offset, window
):
    horizon = max(0, len(data) + horizon_offset)
    text = make_text("prefixed", FiniteSet(set(data)), prefix=data)
    raw = list(itertools.islice(text.stream(), horizon))
    script = unrolled_script(*tables, first, raw, members)
    budget = Budget(
        max_ticks=max(0, ticks_and_taken(script)[0] + tick_offset), horizon=horizon, window=window
    )
    want = reference_session(script, raw, members=members, budget=budget)
    oracle = None if members is None else FiniteSet(members)
    derived = derived_learner(*tables, first)
    for learner in (derived, handwritten_learner(*tables, first)):
        got = outcome(lambda: run_session(learner, text, oracle=oracle, budget=budget))
        assert got == (want.transcript if want.raises is None else want.raises)
    run = outcome(lambda: run_on_sequence(derived, raw, oracle=oracle))
    whole = reference_session(
        script, raw, members=members, budget=Budget(max_ticks=10**9, horizon=len(raw))
    )
    stepped = outcome(lambda: step_through(derived, raw, oracle))
    assert step_through(derived, [], oracle) == first
    if whole.raises is not None:
        assert run is stepped is whole.raises
        return
    emissions = [value for op, value in script if op == "emit"]
    assert run.emissions == emissions
    assert stepped == (emissions or [None])[-1]
    queries = [event.payload for event in whole.transcript.events if event.kind == "query"]
    assert run.queries == queries
    assert run.actions == len(script)


def two_then_one(state, datum):
    """Emits 1 if its first two data are 2 and 1, and holds it; else emits 0 per datum.

    The orders 1, 2 and 2, 1 of a core reach two states with two hypotheses,
    and only orders that open with 2, 1 end on 1.
    """
    if state == 0:
        return (1 if datum == 2 else 2), 0
    if state == 1:
        return (3, 1) if datum == 1 else (2, 0)
    return state, (0 if state == 2 else None)


@settings(max_examples=150, deadline=None)
@given(
    tables=step_tables(),
    first=HYPOTHESES,
    core=st.lists(st.sampled_from(STEP_DATA), max_size=6, unique=True),
    target=st.integers(0, 2),
    members=oracles(),
)
@example(
    tables=explicit_tables(two_then_one, states=4), first=None, core=[1, 2, 3], target=0,
    members=None,
)
def test_the_walk_decides_every_order(tables, first, core, target, members):
    learner = derived_learner(*tables, first)
    oracle = None if members is None else FiniteSet(members)

    def every_order():
        return all(
            run_on_sequence(learner, order, oracle=oracle).emissions[-1:] == [target]
            for order in itertools.permutations(core)
        )

    want = outcome(every_order)
    assert outcome(lambda: _every_order_ends_on(learner, tuple(core), target, oracle)) is want


@settings(max_examples=150, deadline=None)
@given(
    tables=step_tables(),
    first=HYPOTHESES,
    universe=st.lists(st.sampled_from(STEP_DATA), min_size=1, max_size=3, unique=True),
    max_len=st.integers(0, 3),
    members=oracles(),
)
# the one word of length 1 is walked, though no sample element is missing
@example(
    tables=explicit_tables(lambda state, datum: (0, 0)), first=None, universe=[1], max_len=1,
    members=None,
)
def test_the_covering_word_walk_folds_each_run_output(tables, first, universe, max_len, members):
    learner = derived_learner(*tables, first)
    oracle = None if members is None else FiniteSet(members)
    words = [w for n in range(1, max_len + 1) for w in itertools.product(universe, repeat=n)]
    want = outcome(lambda: fold_outputs(words, lambda word: last_emission(learner, word, oracle)))
    assert outcome(lambda: _walk_covering_words(learner, universe, [], max_len, oracle)) == want


def test_both_walks_memoize_states_so_an_unhashable_state_is_refused():
    learner = Learner.from_step("list-state", [], lambda read, datum: (read + [datum], 0), "drawn")
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        _every_order_ends_on(learner, (3, 4), 0, None)
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        _walk_covering_words(learner, [3, 4], [], 2, None)


def test_a_step_learner_is_freed_with_its_last_reference():
    """A step learner's program is a method, not a closure over the learner: no cycle."""
    gc.collect()
    gc.disable()
    try:
        learner = Learner.from_step("echo", 0, lambda state, datum: (state, datum), "drawn", 1)
        freed = weakref.ref(learner)
        assert run_on_sequence(learner, [2, 3]).emissions == [1, 2, 3]
        del learner
        assert freed() is None
    finally:
        gc.enable()


def test_the_walks_leave_no_cyclic_garbage():
    """Each walk is a closure that calls itself; it is freed on return, not by the cyclic gc.

    The learners, families and registry are built with the collector off and
    dropped before it runs: a step learner is no cycle either.
    """
    x_plus_2 = poly_encode([2, 1])
    gc.collect()
    gc.disable()
    try:
        verdicts = [
            check_characteristic_sample(
                agents.make_pcsG_oracle_learner,
                families.make_basic_family("pcs-G"),
                5,
                [5],
                x_plus_2,
                max_text_len=4,
                max_universe=20,
            ),
            check_characteristic_sample(
                agents.make_thm64_pcs_learner,
                families.make_thm64_g(),
                6,
                [6, 17],
                x_plus_2,
                max_text_len=3,
                max_universe=18,
                use_oracle=False,
            ),
        ]
        trap = search_trap_sets(agents.build_default_registry(), 1, poly_encode([3, 1]), 2, seed=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(verdict.details["exhaustive"] for verdict in verdicts) and all(verdicts)
    assert trap.resolved and not trap.stats["exhaustive_arrangements"]


def test_a_second_query_on_one_datum_is_refused_by_the_program_and_both_walks():
    learner = Learner.from_step("asks-twice", 0, lambda state, datum: (state, query(1)), "drawn")
    oracle = FiniteSet({1})
    with pytest.raises(TypeError, match="asks-twice queried twice on one datum"):
        run_on_sequence(learner, [3], oracle=oracle)
    with pytest.raises(TypeError, match="asks-twice queried twice on one datum"):
        _every_order_ends_on(learner, (3,), 0, oracle)
    with pytest.raises(TypeError, match="asks-twice queried twice on one datum"):
        check_characteristic_sample(
            lambda: learner,
            families.make_basic_family("pcs-G"),
            3,
            [3],
            poly_encode([2, 1]),
            max_text_len=2,
            max_universe=5,
        )
