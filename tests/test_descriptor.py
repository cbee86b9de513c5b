import random
from dataclasses import replace

import pytest

from txtex_lab.codec import decode_tuple, encode_tuple, signed_int_inv
from txtex_lab.descriptor import (
    RecognizerState,
    StepResult,
    SubsetBudgetError,
    build_descriptor,
    described_number,
    element_parts,
    recognizer_step,
    validate_descriptor,
)
from txtex_lab.verify import _recognizer_lattice_ok


def elem(x, c, column=0):
    return encode_tuple([x, c, 1, column])


MARKER = elem(0, 1)


def multi_markers(count):
    return {elem(2 * j, 1) for j in range(count)}


def test_element_parts_matches_the_arity_4_decode():
    """Two unpairs decide the element shape exactly as the arity-4 decode did.

    Codes are drawn as naturals up to 2**64 and as ``encode_tuple([x, c, tag,
    col])`` with tag and col in 0..3, so near-miss shapes occur; a negative
    code raises the same ``ValueError``.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import given
    from hypothesis import strategies as st

    def reference(code):
        x, c, tag, col = decode_tuple(code, 4)
        if tag != 1 or col != 0:
            return None
        return x, c

    natural = st.integers(min_value=0, max_value=2**64)
    small = st.integers(min_value=0, max_value=3)
    shaped = st.builds(lambda *parts: encode_tuple(parts), natural, natural, small, small)

    @given(st.one_of(natural, shaped))
    def same_parts(code):
        assert element_parts(code) == reference(code)

    @given(st.integers(max_value=-1))
    def same_error(code):
        with pytest.raises(ValueError) as new:
            element_parts(code)
        with pytest.raises(ValueError) as old:
            reference(code)
        assert str(new.value) == str(old.value)

    same_parts()
    same_error()


def test_validate_examples():
    assert validate_descriptor({elem(2, 2), elem(4, 1)}) is True
    assert validate_descriptor({elem(0, 1)}) is False
    assert validate_descriptor(set()) is False


def test_validate_rejects_wrong_column_and_dup_x():
    assert validate_descriptor({elem(2, 2, column=1), elem(4, 1, column=1)}) is False
    # same x twice with cancelling completions
    assert validate_descriptor({elem(2, 2), elem(2, 1)}) is False


def test_validate_rejects_zero_sum_proper_subset():
    # two independently cancelling pairs: {+1,-1} twice
    s = {elem(2, 2), elem(4, 1), elem(6, 2), elem(8, 1)}
    assert validate_descriptor(s) is False


def test_validate_rejects_negative_description():
    # completions cancel but x signed values sum to -1 (x=1 -> -1, x=0 -> 0)
    assert validate_descriptor({elem(1, 2), elem(0, 1)}) is False


def test_validate_subset_budget():
    big = {elem(2 * j, 2 if j == 0 else 1) for j in range(21)}
    with pytest.raises(SubsetBudgetError):
        validate_descriptor(big)


def test_described_number_examples():
    assert described_number({elem(2, 2), elem(4, 1)}) == 3
    assert described_number({elem(0, 1), elem(2, 2)}) == 1
    assert described_number({elem(6, 0)}) == 3


def test_described_number_rejects_invalid():
    with pytest.raises(ValueError):
        described_number({elem(0, 1)})


def test_build_descriptor_examples():
    d = build_descriptor(3, 10, {MARKER})
    assert MARKER in d
    extras = sorted(d - {MARKER})
    assert len(extras) == 2
    assert all(code > 10 for code in extras)
    assert validate_descriptor(d)
    assert described_number(d) == 3

    d0 = build_descriptor(0, 0, {MARKER})
    assert described_number(d0) == 0


def test_build_descriptor_extra_completion_codes():
    # extras carry completion signed values +(m+1) and -1
    d = build_descriptor(3, 10, {MARKER})
    extra_cs = sorted(element_parts(e)[1] for e in d - {MARKER})
    assert extra_cs == [signed_int_inv(-1), signed_int_inv(2)] == [1, 4]


def test_build_descriptor_deterministic():
    a = build_descriptor(42, 17, multi_markers(4))
    b = build_descriptor(42, 17, multi_markers(4))
    assert a == b


def test_build_descriptor_rejects_bad_markers():
    with pytest.raises(ValueError):
        build_descriptor(3, 0, {elem(0, 2)})  # completion +1, not -1
    with pytest.raises(ValueError):
        build_descriptor(3, 0, {elem(0, 1, column=1)})  # wrong column


def test_recognizer_example_sequence():
    state = RecognizerState()
    state, r1 = recognizer_step(state, elem(2, 2))
    assert r1.status == "partial"
    state, r2 = recognizer_step(state, elem(4, 1))
    assert r2.status == "complete"
    assert r2.value == 3


def test_recognizer_ignores_non_elements_and_duplicates():
    state = RecognizerState()
    # 16 decodes at arity 4 to (4, 1, 0, 0): third coordinate is 0, not 1
    state, r = recognizer_step(state, 16)
    assert r.status == "ignored"
    state, _ = recognizer_step(state, elem(2, 2))
    state, r = recognizer_step(state, elem(2, 2))
    assert r.status == "ignored"


def test_recognizer_corrupt_after_complete():
    d = build_descriptor(1, 5, {MARKER})
    state = RecognizerState()
    for code in sorted(d):
        state, res = recognizer_step(state, code)
    assert res.status == "complete" and res.value == 1
    state, res = recognizer_step(state, elem(100, 2))
    assert res.status == "corrupt"


def _completed(descriptor):
    state = RecognizerState()
    for code in sorted(descriptor):
        state, res = recognizer_step(state, code)
    assert res.status == "complete" and state.complete
    return state


def test_recognizer_duplicate_after_complete_is_ignored():
    d = build_descriptor(2, 5, {MARKER})
    done = _completed(d)
    for code in sorted(d):
        state, res = recognizer_step(done, code)
        assert res == StepResult("ignored")
        assert state == done and not state.corrupt


def test_recognizer_corrupt_is_sticky():
    d = build_descriptor(2, 5, {MARKER})
    state, res = recognizer_step(_completed(d), elem(100, 2))
    assert res == StepResult("corrupt") and state.corrupt
    # duplicates, off-column codes, non-elements and fresh elements alike
    for code in [*sorted(d), elem(100, 2), elem(3, 2, column=1), 16, elem(102, 1)]:
        nxt, res = recognizer_step(state, code)
        assert res == StepResult("corrupt")
        assert nxt == state


def test_recognizer_off_column_ignored_before_and_after_complete():
    d = build_descriptor(2, 5, {MARKER})
    off_column = [elem(3, 2, column=1), elem(100, 2, column=1), 16]
    fresh = RecognizerState()
    for state in (fresh, _completed(d)):
        for code in off_column:
            nxt, res = recognizer_step(state, code)
            assert res == StepResult("ignored")
            assert nxt == state


def test_recognizer_results_equal_fresh_results():
    d = build_descriptor(2, 5, {MARKER})
    first, *middle, final = sorted(d)
    state, res = recognizer_step(RecognizerState(), first)
    assert res == StepResult("partial") and res.value is None
    assert recognizer_step(state, 16)[1] == StepResult("ignored")
    assert recognizer_step(state, first)[1] == StepResult("ignored")
    for code in middle:
        state, res = recognizer_step(state, code)
        assert res == StepResult("partial")
    state, res = recognizer_step(state, final)
    assert res == StepResult("complete", 2)
    assert recognizer_step(state, elem(100, 2))[1] == StepResult("corrupt")


def _step_keeping_input(state, code):
    """``recognizer_step``, checked to leave the state it is given as it was."""
    before, seen = replace(state), state.seen
    result = recognizer_step(state, code)
    assert state == before and state.seen is seen
    return result


def test_recognizer_step_never_changes_its_input_state():
    """Every edge of a 7-element lattice walk, and the ignored, duplicate and corrupt paths.

    States are slotted, not frozen, so this test keeps the guarantee that
    freezing gave: a step returns a new state and leaves its input alone.
    """
    elements = sorted(build_descriptor(7, 100, multi_markers(5)))
    assert len(elements) == 7
    full = (1 << len(elements)) - 1
    states = [RecognizerState()]
    edges = 0
    for mask in range(1, full + 1):
        for i, code in enumerate(elements):
            if mask >> i & 1:
                parent = states[mask ^ (1 << i)]
                nxt, _ = _step_keeping_input(parent, code)
                assert nxt is not parent
                edges += 1
        states.append(nxt)
    assert edges == 7 * 2**6
    done = states[full]
    assert done.complete and not done.corrupt
    for state in (states[1], done):
        for code in (16, elem(3, 2, column=1), elements[0]):  # non-element, off-column, duplicate
            assert _step_keeping_input(state, code)[1] == StepResult("ignored")
    corrupt, res = _step_keeping_input(done, elem(100, 2))
    assert res == StepResult("corrupt") and corrupt.corrupt
    assert _step_keeping_input(corrupt, elem(102, 1))[1] == StepResult("corrupt")


def test_recognizer_all_orders_fire_on_last_element(recognizer_fires_last):
    d = build_descriptor(1, 5, {MARKER})
    assert len(d) == 3
    recognizer_fires_last(d, 1, random.Random(0))


def test_built_descriptors_properties_sweep():
    """Built descriptors validate, describe n and fire last in every order, over drawn inputs.

    The 50 draws range over n, the floor and marker sets of up to 5 elements
    (so up to 7 descriptor elements); each draw's arrival orders are checked
    by ``verify``'s subset-lattice walk.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50)
    @given(
        n=st.integers(min_value=0, max_value=10**6),
        floor=st.integers(min_value=0, max_value=10**6),
        marker_xs=st.sets(st.integers(min_value=0, max_value=10**4), max_size=5),
    )
    def built_descriptor_holds(n, floor, marker_xs):
        markers = {elem(x, 1) for x in marker_xs}
        d = build_descriptor(n, floor, markers)
        assert validate_descriptor(d)
        assert described_number(d) == n
        assert markers <= d
        assert len(d) == len(markers) + 2
        assert all(code > floor for code in d - markers)
        assert _recognizer_lattice_ok(sorted(d), n)

    built_descriptor_holds()


def test_large_marker_set_sampled_permutations(recognizer_fires_last):
    rng = random.Random(7)
    d = build_descriptor(55, 123, multi_markers(10))
    assert len(d) == 12
    recognizer_fires_last(d, 55, rng)
