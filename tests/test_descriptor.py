import itertools
import math
import random

import pytest

from txtex_lab.codec import encode_tuple, signed_int_inv
from txtex_lab.descriptor import (
    Descriptor,
    StepResult,
    SubsetBudgetError,
    build_descriptor,
    described_number,
    new_recognizer,
    recognizer_step,
    validate_descriptor,
)


def elem(x, c, column=0):
    return encode_tuple([x, c, 1, column])


MARKER = elem(0, 1)


def multi_markers(count, column=0):
    return {elem(2 * j, 1, column) for j in range(count)}


def test_validate_examples():
    assert validate_descriptor({elem(2, 2), elem(4, 1)}, 0) is True
    assert validate_descriptor({elem(0, 1)}, 0) is False
    assert validate_descriptor(set(), 0) is False


def test_validate_rejects_wrong_column_and_dup_x():
    assert validate_descriptor({elem(2, 2, column=1), elem(4, 1, column=1)}, 0) is False
    # same x twice with cancelling completions
    assert validate_descriptor({elem(2, 2), elem(2, 1)}, 0) is False


def test_validate_rejects_zero_sum_proper_subset():
    # two independently cancelling pairs: {+1,-1} twice
    s = {elem(2, 2), elem(4, 1), elem(6, 2), elem(8, 1)}
    assert validate_descriptor(s, 0) is False


def test_validate_rejects_negative_description():
    # completions cancel but x signed values sum to -1 (x=1 -> -1, x=0 -> 0)
    assert validate_descriptor({elem(1, 2), elem(0, 1)}, 0) is False


def test_validate_subset_budget():
    big = {elem(2 * j, 2 if j == 0 else 1) for j in range(21)}
    with pytest.raises(SubsetBudgetError):
        validate_descriptor(big, 0)


def test_described_number_examples():
    assert described_number({elem(2, 2), elem(4, 1)}, 0) == 3
    assert described_number({elem(0, 1), elem(2, 2)}, 0) == 1
    assert described_number({elem(6, 0)}, 0) == 3


def test_described_number_rejects_invalid():
    with pytest.raises(ValueError):
        described_number({elem(0, 1)}, 0)


def test_build_descriptor_examples():
    d = build_descriptor(3, 0, 10, {MARKER})
    assert MARKER in d.elements
    extras = sorted(d.elements - {MARKER})
    assert len(extras) == 2
    assert all(code > 10 for code in extras)
    assert validate_descriptor(d.elements, 0)
    assert described_number(d.elements, 0) == 3

    d0 = build_descriptor(0, 0, 0, {MARKER})
    assert described_number(d0.elements, 0) == 0

    d7 = build_descriptor(7, 1, 100, set())
    assert len(d7.elements) == 2
    assert all(code > 100 for code in d7.elements)
    assert validate_descriptor(d7.elements, 1)
    assert described_number(d7.elements, 1) == 7


def test_build_descriptor_extra_completion_codes():
    # extras carry completion signed values +(m+1) and -1
    from txtex_lab.descriptor import element_parts

    d = build_descriptor(3, 0, 10, {MARKER})
    extra_cs = sorted(element_parts(e, 0)[1] for e in d.elements - {MARKER})
    assert extra_cs == [signed_int_inv(-1), signed_int_inv(2)] == [1, 4]


def test_build_descriptor_deterministic():
    a = build_descriptor(42, 0, 17, multi_markers(4))
    b = build_descriptor(42, 0, 17, multi_markers(4))
    assert a == b


def test_build_descriptor_rejects_bad_markers():
    with pytest.raises(ValueError):
        build_descriptor(3, 0, 0, {elem(0, 2)})  # completion +1, not -1
    with pytest.raises(ValueError):
        build_descriptor(3, 0, 0, {elem(0, 1, column=1)})  # wrong column


def test_recognizer_example_sequence():
    state = new_recognizer(0)
    state, r1 = recognizer_step(state, elem(2, 2))
    assert r1.status == "partial"
    state, r2 = recognizer_step(state, elem(4, 1))
    assert r2.status == "complete"
    assert r2.value == 3


def test_recognizer_ignores_non_elements_and_duplicates():
    state = new_recognizer(0)
    # 16 decodes at arity 4 to (4, 1, 0, 0): third coordinate is 0, not 1
    state, r = recognizer_step(state, 16)
    assert r.status == "ignored"
    state, _ = recognizer_step(state, elem(2, 2))
    state, r = recognizer_step(state, elem(2, 2))
    assert r.status == "ignored"


def test_recognizer_corrupt_after_complete():
    d = build_descriptor(1, 0, 5, {MARKER})
    state = new_recognizer(0)
    for code in d.sorted_elements():
        state, res = recognizer_step(state, code)
    assert res.status == "complete" and res.value == 1
    state, res = recognizer_step(state, elem(100, 2))
    assert res.status == "corrupt"


def _completed(descriptor):
    state = new_recognizer(descriptor.column)
    for code in descriptor.sorted_elements():
        state, res = recognizer_step(state, code)
    assert res.status == "complete" and state.complete
    return state


def test_recognizer_duplicate_after_complete_is_ignored():
    d = build_descriptor(2, 0, 5, {MARKER})
    done = _completed(d)
    for code in d.sorted_elements():
        state, res = recognizer_step(done, code)
        assert res == StepResult("ignored")
        assert state == done and not state.corrupt


def test_recognizer_corrupt_is_sticky():
    d = build_descriptor(2, 0, 5, {MARKER})
    state, res = recognizer_step(_completed(d), elem(100, 2))
    assert res == StepResult("corrupt") and state.corrupt
    # duplicates, off-column codes, non-elements and fresh elements alike
    for code in [*d.sorted_elements(), elem(100, 2), elem(3, 2, column=1), 16, elem(102, 1)]:
        nxt, res = recognizer_step(state, code)
        assert res == StepResult("corrupt")
        assert nxt == state


def test_recognizer_off_column_ignored_before_and_after_complete():
    d = build_descriptor(2, 0, 5, {MARKER})
    off_column = [elem(3, 2, column=1), elem(100, 2, column=1), 16]
    fresh = new_recognizer(0)
    for state in (fresh, _completed(d)):
        for code in off_column:
            nxt, res = recognizer_step(state, code)
            assert res == StepResult("ignored")
            assert nxt == state


def test_recognizer_results_equal_fresh_results():
    d = build_descriptor(2, 0, 5, {MARKER})
    first, *middle, final = d.sorted_elements()
    state, res = recognizer_step(new_recognizer(0), first)
    assert res == StepResult("partial") and res.value is None
    assert recognizer_step(state, 16)[1] == StepResult("ignored")
    assert recognizer_step(state, first)[1] == StepResult("ignored")
    for code in middle:
        state, res = recognizer_step(state, code)
        assert res == StepResult("partial")
    state, res = recognizer_step(state, final)
    assert res == StepResult("complete", 2)
    assert recognizer_step(state, elem(100, 2))[1] == StepResult("corrupt")


def test_recognizer_all_orders_fire_on_last_element():
    d = build_descriptor(1, 0, 5, {MARKER})
    elements = d.sorted_elements()
    assert len(elements) == 3
    for perm in itertools.permutations(elements):
        state = new_recognizer(0)
        for pos, code in enumerate(perm):
            state, res = recognizer_step(state, code)
            if pos < len(perm) - 1:
                assert res.status == "partial"
            else:
                assert res.status == "complete" and res.value == 1


def _check_recognizer_fires_last(descriptor: Descriptor, rng: random.Random):
    """Every ordering completes exactly at its last element, with the described value.

    Up to 8 elements all k! orderings are replayed, depth first over the
    permutation tree: ``recognizer_step`` is pure and its states are frozen,
    so each prefix state is computed once and shared by the orderings that
    extend it.  Above 8 elements, 100 sampled orderings are replayed.
    """
    elements = descriptor.sorted_elements()
    k = len(elements)

    def step(state, code, last):
        state, res = recognizer_step(state, code)
        assert (res.status == "complete") == last
        if last:
            assert res.value == descriptor.described
        return state

    if k > 8:
        for _ in range(100):
            state = new_recognizer(descriptor.column)
            for pos, code in enumerate(rng.sample(elements, k)):
                state = step(state, code, pos == k - 1)
        return

    leaves = 0

    def walk(state, remaining):
        nonlocal leaves
        last = len(remaining) == 1
        for i, code in enumerate(remaining):
            nxt = step(state, code, last)
            if last:
                leaves += 1
            else:
                walk(nxt, remaining[:i] + remaining[i + 1 :])

    walk(new_recognizer(descriptor.column), tuple(elements))
    assert leaves == math.factorial(k)


def test_built_descriptors_properties_sweep():
    rng = random.Random(20240817)
    for n in range(0, 201, 7):
        for floor in (0, 10_000):
            for markers in ({MARKER}, multi_markers(5)):
                d = build_descriptor(n, 0, floor, markers)
                assert validate_descriptor(d.elements, 0)
                assert described_number(d.elements, 0) == n
                assert markers <= d.elements
                assert len(d.elements) == len(markers) + 2
                _check_recognizer_fires_last(d, rng)


def test_large_marker_set_sampled_permutations():
    rng = random.Random(7)
    d = build_descriptor(55, 0, 123, multi_markers(10))
    assert len(d.elements) == 12
    _check_recognizer_fires_last(d, rng)
