"""Properties: the marker trap defeats every deterministic oracle learner, not only the
registry's, and a shared repeated prefix every deterministic text learner.

Each drawn learner reads a datum and then acts out a drawn plan: queries
computed from the data seen (a scan over every value, the count, the datum,
their products, the answers so far), ``Work``, emits of arbitrary values, of
the count, of the answers or of a targeted index, or no emit at all; now and
then it stops reading (idles).
``msd_defeat`` of the family built against it must show identical transcripts
through the marker prefix and a shared hypothesis wrong for some target.
Every query it asks on the prefix lies at or below the family's query
ceiling, and the targets answer it as the marker set does: that is what the
floor above the ceiling buys.

The second property draws two distinct finite sets with a common element
x, the ``psd-finite`` pairs, and a text learner acting out a drawn plan per
datum: skips, ``Work``, emits of arbitrary values, of the count, of the
datum, of the code of the data seen, or of either target's index.  On the
texts ``adversary.repeat_prefix_texts`` builds, both sessions must log the
same events through the shared prefix x^(p(a)+p(b)), and the hypothesis
held at its end must be wrong for at least one target.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from txtex_lab import adversary, families
from txtex_lab.codec import encode_tuple, poly_encode
from txtex_lab.evaluate import hypothesis_correct
from txtex_lab.session import READ, Budget, Learner, Skip, Work, emit, query, run_session

P_LINEAR = poly_encode([0, 1])  # marker prefixes of 1,127 to 1,321 elements for ids 0–4

OPS = st.sampled_from(
    [
        "query-scan",
        "query-count",
        "query-datum",
        "query-product",
        "query-answers",
        "work",
        "emit",
        "emit-count",
        "emit-answers",
        "emit-target",
    ]
)
PLANS = st.lists(st.tuples(OPS, st.integers(0, 40), st.integers(0, 600)), max_size=4)


def oracle_learner(plan, stop_after, targets):
    """Reads a datum, then acts out ``plan``; idles after ``stop_after`` data unless None."""

    def program():
        count = answers = scan = 0
        while stop_after is None or count < stop_after:
            datum = yield READ
            count += 1
            for op, a, b in plan:
                if op == "query-scan":  # a, a + 1, a + 2, ...: every value in turn
                    answers += (yield query(a + scan))
                    scan += 1
                elif op == "query-count":
                    answers += (yield query(a * count + b))
                elif op == "query-datum":
                    answers += (yield query(a * datum + b))
                elif op == "query-product":
                    answers += (yield query(a * count * datum + b))
                elif op == "query-answers":
                    answers += (yield query(a * answers + b))
                elif op == "work":
                    yield Work(1 + a % 4)
                elif op == "emit":
                    yield emit(b)
                elif op == "emit-count":
                    yield emit(count)
                elif op == "emit-answers":
                    yield emit(answers)
                else:
                    yield emit(targets[a % 2])

    return Learner("drawn-oracle", program)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 4),
    plan=PLANS,
    stop_after=st.none() | st.integers(0, 1400),
)
# asks 0, 1, 2, ... one per datum: it reaches every value up to the ceiling on the prefix
@example(m=0, plan=[("query-scan", 0, 0)], stop_after=None)
def test_the_marker_trap_defeats_every_oracle_learner(m, plan, stop_after):
    targets = (encode_tuple([m, P_LINEAR, 0]), encode_tuple([m, P_LINEAR, 1]))
    family = families.make_msd({m: oracle_learner(plan, stop_after, targets)}, m, P_LINEAR)
    assert family.targeted == targets
    report, transcripts = adversary.msd_defeat(family)
    assert report.transcripts_identical
    assert len(report.wrong_for) >= 1
    marker = adversary.marker_element(0)
    for transcript in transcripts:
        for kind, payload in adversary._event_prefix_within(transcript, family.ell):
            if kind == "query":
                x, answer = payload
                assert x <= family.query_ceiling
                assert answer == (x == marker)


FINITE = families.make_basic_family("finite-canonical")
P_INCREMENT = poly_encode([1, 1])  # x + 1, as in psd-finite: shared prefixes of at most 1,324
UNIVERSE = range(5)
TEXT_OPS = st.sampled_from(
    ["emit", "emit-count", "emit-datum", "emit-seen", "emit-target", "work", "skip"]
)
TEXT_PLANS = st.lists(st.tuples(TEXT_OPS, st.integers(0, 40)), max_size=4)


def text_learner(plan, stop_after, targets):
    """Reads a datum, then acts out ``plan``; idles after ``stop_after`` data unless None."""

    def program():
        count, seen = 0, set()
        while stop_after is None or count < stop_after:
            datum = yield READ
            count += 1
            seen.add(datum)
            for op, a in plan:
                if op == "emit":
                    yield emit(a)
                elif op == "emit-count":
                    yield emit(count)
                elif op == "emit-datum":
                    yield emit(datum)
                elif op == "emit-seen":
                    yield emit(FINITE.index_of_set(seen))
                elif op == "emit-target":
                    yield emit(targets[a % 2])
                elif op == "work":
                    yield Work(1 + a % 4)
                else:
                    yield Skip()

    return Learner("drawn-text", program)


@st.composite
def overlapping_pairs(draw):
    """Two distinct subsets of ``UNIVERSE`` and an element common to both."""
    x = draw(st.sampled_from(UNIVERSE))
    subsets = st.sets(st.sampled_from(UNIVERSE)).map(lambda s: frozenset(s | {x}))
    a = draw(subsets)
    b = draw(subsets.filter(lambda s: s != a))
    return a, b, x


@settings(max_examples=60, deadline=None)
@given(pair=overlapping_pairs(), plan=TEXT_PLANS, stop_after=st.none() | st.integers(0, 1500))
def test_a_shared_repeat_prefix_defeats_every_text_learner(pair, plan, stop_after):
    set_a, set_b, x = pair
    indices = (FINITE.index_of_set(set_a), FINITE.index_of_set(set_b))
    texts = adversary.repeat_prefix_texts(FINITE, *indices, x, P_INCREMENT)
    shared = len(texts[0].prefix)
    assert texts[0].prefix == texts[1].prefix == (x,) * (sum(indices) + 2)
    learner = text_learner(plan, stop_after, indices)
    budget = Budget(horizon=shared + 20, window=5)
    transcripts = [run_session(learner, text, budget=budget) for text in texts]
    prefix_events = [adversary._event_prefix_within(t, shared) for t in transcripts]
    assert prefix_events[0] == prefix_events[1]
    held = [payload[0] for kind, payload in prefix_events[0] if kind == "emit"]
    if held:
        assert not all(hypothesis_correct(FINITE, held[-1], index) for index in indices)
