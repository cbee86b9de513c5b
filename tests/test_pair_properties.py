"""Property: a composed pair behaves like the two-agent session it simulates."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab.session import (
    Budget,
    Emit,
    Learner,
    Query,
    Read,
    Teacher,
    compose_pair,
    run_session,
)
from txtex_lab.sets import FiniteSet, Interval, Join
from txtex_lab.text import make_text


class ScriptedTeacher(Teacher):
    """On its i-th input passes on the seen data picked by ``script[i % len(script)]``."""

    name = "scripted"

    def __init__(self, script):
        self.script = script
        self.seen = []

    def on_input(self, datum):
        self.seen.append(datum)
        picks = self.script[(len(self.seen) - 1) % len(self.script)]
        return [self.seen[j % len(self.seen)] for j in picks]


def probing_learner():
    """Reads forever, probing multiples of 3; emits a running sum mod 4."""

    def program():
        total = 0
        while True:
            datum = yield Read()
            if datum % 3 == 0 and (yield Query(datum)):
                total += 1
            total += datum
            yield Emit(total % 4)

    return Learner("probing-sum", program)


EVENS = Join(Interval(0), FiniteSet(()))  # 2a for every a, and no odd 2b+1


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.integers(0, 12), min_size=1, max_size=20),
    script=st.lists(st.lists(st.integers(0, 30), max_size=3), min_size=1, max_size=6),
    horizon=st.integers(1, 30),
)
def test_composed_pair_matches_two_agent_session(prefix, script, horizon):
    text = make_text("prefixed", FiniteSet(set(prefix)), prefix=prefix)
    budget = Budget(horizon=horizon)
    pair_run = run_session(
        probing_learner(),
        text,
        teacher=ScriptedTeacher(script),
        oracle=EVENS,
        budget=budget,
    )
    composed = compose_pair(probing_learner(), lambda: ScriptedTeacher(script))
    solo_run = run_session(composed, text, oracle=EVENS, budget=budget)
    assert pair_run.end_reason == solo_run.end_reason == "horizon"
    assert solo_run.hypothesis_stream() == pair_run.hypothesis_stream()
    assert solo_run.ledger.mind_changes == pair_run.ledger.mind_changes
    assert solo_run.ledger.oracle_queries == pair_run.ledger.oracle_queries
