"""Property: the marker trap defeats every deterministic oracle learner, not only the registry's.

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
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab import adversary, families
from txtex_lab.codec import encode_tuple, poly_encode
from txtex_lab.session import READ, Learner, Work, emit, query

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
                    yield Work(a % 4)
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
