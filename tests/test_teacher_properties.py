"""Properties: the teachers match the state machines they replaced, datum for datum.

The references below are the earlier teachers, kept whole: a count-encoding
teacher that steps its learner with explicit ``awaiting``/``pending``/
``fuel`` state, and a descriptor teacher that keeps ``halted`` and
``was_complete`` flags beside its recognizer.
"""

from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from session_scripts import QUERY_FREE_STEPS, scripted_learner

from txtex_lab.adversary import marker_element
from txtex_lab.agents import CountEncodingTeacher, DescriptorTeacher
from txtex_lab.codec import encode_tuple, pair
from txtex_lab.descriptor import RecognizerState, build_descriptor, recognizer_step
from txtex_lab.session import READ, Emit, Learner, Query, Read, Skip, Work


class ReferenceCountEncodingTeacher:
    def __init__(self, learner):
        self.inner = learner.program()
        self.inner_done = False
        self.awaiting = None
        self.pending = None
        self.count = 0
        self.anchor = None
        self.min_seen = None
        self.last_hypothesis = None

    def _pump(self, datum):
        changes = []
        fuel = datum
        while not self.inner_done:
            if self.awaiting is not None:
                if fuel is None:
                    break
                self.pending = fuel if self.awaiting == "read" else None
                fuel = None
                self.awaiting = None
            try:
                action = self.inner.send(self.pending)
            except StopIteration:
                self.inner_done = True
                break
            self.pending = None
            if isinstance(action, Read):
                self.awaiting = "read"
            elif isinstance(action, Skip):
                self.awaiting = "skip"
            elif isinstance(action, Emit):
                if action.hypothesis != self.last_hypothesis:
                    self.last_hypothesis = action.hypothesis
                    changes.append(action.hypothesis)
            elif isinstance(action, Work):
                pass
            else:
                raise ValueError("count encoding needs a query-free learner")
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
    script=st.lists(QUERY_FREE_STEPS, max_size=10),
    loops=st.booleans(),
    data=st.lists(st.integers(0, 40), min_size=1, max_size=25),
)
def test_count_encoding_teacher_matches_the_state_machine(script, loops, data):
    # a looping script with no read or skip never waits for a datum
    loops = loops and any(op in ("read", "skip") for op, _ in script)
    learner = scripted_learner(script, loops)
    teacher, reference = CountEncodingTeacher(learner), ReferenceCountEncodingTeacher(learner)
    for datum in data:
        assert teacher.on_input(datum) == reference.on_input(datum)


@pytest.mark.parametrize("reads_first", [False, True])
def test_count_encoding_teacher_refuses_a_querying_learner(reads_first):
    def program():
        if reads_first:
            yield READ
        yield Emit(1)
        yield Query(0)

    teacher = CountEncodingTeacher(Learner("querying", program))
    with pytest.raises(ValueError, match="query-free"):
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
