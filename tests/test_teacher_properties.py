"""Properties: the teachers match the state machines they replaced, datum for datum.

The references below are the earlier teachers: a count-encoding teacher that
pumps its learner's program with explicit ``awaiting``/``pending``/``fuel``
state, restated for the step learners it now takes, and a descriptor teacher
that keeps ``halted`` and ``was_complete`` flags beside its recognizer, kept
whole.
"""

from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from session_scripts import (
    HYPOTHESES,
    RARELY,
    STEP_DATA,
    derived_learner,
    explicit_tables,
    outcome,
    step_tables,
)

from txtex_lab.adversary import marker_element
from txtex_lab.agents import CountEncodingTeacher, DescriptorTeacher
from txtex_lab.codec import encode_tuple, pair
from txtex_lab.descriptor import RecognizerState, build_descriptor, recognizer_step
from txtex_lab.session import Emit, Learner, Read, query


class ReferenceCountEncodingTeacher:
    """Pumps a step learner's derived program, one datum per read.

    The program reads, emits and queries; with no oracle a query is refused.
    """

    def __init__(self, learner):
        self.name = learner.name
        self.inner = learner.program()
        self.awaiting = False
        self.pending = None
        self.count = 0
        self.anchor = None
        self.min_seen = None
        self.last_hypothesis = None

    def _pump(self, datum):
        changes = []
        fuel = datum
        while True:  # a step program never ends
            if self.awaiting:
                if fuel is None:
                    break
                self.pending, fuel, self.awaiting = fuel, None, False
            action = self.inner.send(self.pending)
            self.pending = None
            if isinstance(action, Read):
                self.awaiting = True
            elif isinstance(action, Emit):
                if action.hypothesis != self.last_hypothesis:
                    self.last_hypothesis = action.hypothesis
                    changes.append(action.hypothesis)
            else:
                raise ValueError(f"learner {self.name} queried without an oracle")
        return changes

    def on_input(self, datum):
        self.min_seen = datum if self.min_seen is None else min(self.min_seen, datum)
        out = []
        for hypothesis in self._pump(datum):
            if self.anchor is None:
                self.anchor = self.min_seen
            target = self.count
            j = 0
            while True:
                code = pair(j, hypothesis)
                if code > self.count:
                    target = code
                    break
                j += 1
            out.extend([self.anchor] * (target - self.count))
            self.count = target
        return out


class ReferenceDescriptorTeacher:
    def __init__(self):
        self.state = RecognizerState()
        self.plan = None
        self.halted = False

    def on_input(self, datum):
        was_complete = self.state.complete
        self.state, result = recognizer_step(self.state, datum)
        if result.status == "corrupt":
            self.halted = True
            return []
        if self.halted:
            return []
        if not was_complete and result.status == "complete":
            described = result.value
            elements = sorted(self.state.seen)
            lead = elements[0]
            schedule = []
            if described >= 1:
                schedule.extend([lead] * described)
                schedule.extend(sorted(set(elements) - {lead}, reverse=True))
            self.plan = deque(schedule)
            return []
        if self.plan:
            return [self.plan.popleft()]
        return []


@settings(max_examples=300, deadline=None)
@given(
    tables=RARELY.flatmap(lambda queries: step_tables(queries=queries)),
    first=HYPOTHESES,
    data=st.lists(st.sampled_from(STEP_DATA), min_size=1, max_size=25),
)
# the first hypothesis comes on datum 1, after the least datum 0: the anchor is 0
@example(tables=explicit_tables(lambda state, datum: (0, datum or None)), first=None, data=[0, 1])
def test_count_encoding_teacher_matches_the_reference(tables, first, data):
    """Drawn step learners, querying now and then: the same items per datum, or both refuse."""
    learner = derived_learner(*tables, first)
    teacher, reference = CountEncodingTeacher(learner), ReferenceCountEncodingTeacher(learner)
    for datum in data:
        passed = outcome(lambda: teacher.on_input(datum))
        assert passed == outcome(lambda: reference.on_input(datum))
        if passed is ValueError:
            break


@pytest.mark.parametrize("queries_at", [0, 2])
def test_count_encoding_teacher_refuses_a_querying_step_learner_by_name(queries_at):
    def step(count, datum):
        return count + 1, query(datum) if count == queries_at else count

    learner = Learner.from_step("querying", 0, step, "one tick per action", first=1)
    teacher = CountEncodingTeacher(learner)
    for datum in range(queries_at):
        teacher.on_input(datum)
    with pytest.raises(ValueError, match="^learner querying queried without an oracle$"):
        teacher.on_input(3)


MARKERS = [marker_element(0)]
# descriptor-shaped elements of no descriptor below, and codes of no descriptor shape
STRAYS = [encode_tuple([x, 1, 1, 0]) for x in (101, 103)] + [pair(0, j) for j in range(4)]


@st.composite
def descriptor_streams(draw):
    """Elements of one descriptor, each eight times as likely as a stray, in any order."""
    described = draw(st.integers(0, 5))
    elements = sorted(build_descriptor(described, draw(st.sampled_from([0, 40])), MARKERS))
    return draw(st.lists(st.sampled_from(elements * 8 + STRAYS), max_size=30))


@settings(max_examples=300, deadline=None)
@given(descriptor_streams())
def test_descriptor_teacher_matches_the_flagged_teacher(stream):
    teacher, reference = DescriptorTeacher(), ReferenceDescriptorTeacher()
    for datum in stream:
        assert teacher.on_input(datum) == reference.on_input(datum)
