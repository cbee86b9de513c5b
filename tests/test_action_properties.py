"""Properties: ``emit`` and ``query`` give values equal to a fresh action, shared only for small naturals."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from txtex_lab.session import SHARED_PAYLOADS, Emit, Query, Work, emit, query

payloads = st.one_of(
    st.integers(max_value=-1),
    st.integers(0, SHARED_PAYLOADS - 1),
    st.integers(SHARED_PAYLOADS, 10**6),
    st.integers(min_value=2**64),
    st.booleans(),
)
boundaries = (-1, 0, SHARED_PAYLOADS - 1, SHARED_PAYLOADS, True, False)


def examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


@given(payloads)
@examples(boundaries)
def test_shared_actions_equal_fresh_ones_and_keep_the_payload_type(value):
    shared = type(value) is int and 0 <= value < SHARED_PAYLOADS
    for make, cls, field in ((emit, Emit, "hypothesis"), (query, Query, "x")):
        action = make(value)
        assert type(action) is cls and action == cls(value)
        assert type(getattr(action, field)) is type(value)
        assert (make(value) is action) == shared


@given(payloads)
@examples(boundaries)
def test_actions_are_frozen(value):
    for action, field in ((emit(value), "hypothesis"), (query(value), "x"), (Work(value), "units")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(action, field, 0)
        assert getattr(action, field) == value
