import itertools
import sys
import time

import pytest

from txtex_lab import adversary
from txtex_lab.sets import ColumnStack, FiniteSet, Interval, Join, is_subset, set_equal
from txtex_lab.text import make_text


def test_set_equal_examples():
    assert set_equal(Interval(0, 4), Interval(0, 4))
    assert not set_equal(Interval(0, 4), Interval(0, 5))
    # the same stack of one column, capped or not; every empty interval is one set
    assert set_equal(ColumnStack(6, 0, True), ColumnStack(6, 1, False))
    assert set_equal(Interval(5, 4), Interval(9, 2))
    assert set_equal(Interval(-4, 2), FiniteSet({0, 1, 2}))
    # [3, infinity) halves into evens from 2 on and odds from 1 on
    assert set_equal(Interval(3), Join(Interval(2), Interval(1)))
    assert not set_equal(Interval(3), Join(Interval(2), Interval(2)))
    # the odds are infinite on one side and finite on the other
    join = Join(FiniteSet({1}), Interval(0, None))
    assert not set_equal(join, FiniteSet({2, 1, 3, 5, 7, 9}))
    assert not set_equal(Interval(0), FiniteSet(range(50)))


HUGE = 2**200
TRAP = adversary.trap_interval(100)  # [2^201 + 1, 2^202]


@pytest.mark.parametrize(
    "a,b,equal",
    [
        (Interval(1, HUGE), Interval(1, HUGE), True),
        (Interval(1, HUGE), Interval(1, HUGE + 1), False),
        (Join(FiniteSet({3}), Interval(0, HUGE)), Join(FiniteSet({3}), Interval(0, HUGE)), True),
        (Join(FiniteSet({3}), Interval(0, HUGE)), Join(FiniteSet({3}), Interval(1, HUGE)), False),
        (TRAP, FiniteSet({TRAP.lo, TRAP.lo + 1, TRAP.lo + 2}), False),
        (TRAP, FiniteSet({2, 3}), False),
    ],
)
def test_set_equal_never_walks_a_huge_interval(a, b, equal):
    """Fields decide, or a walk that stops at the first difference; a pointwise one would not end."""
    start = time.perf_counter()
    assert set_equal(a, b) == equal
    assert set_equal(b, a) == equal
    assert time.perf_counter() - start < 0.1


def test_interval_shapes():
    inf = Interval(3, None)
    assert inf.hi is None
    assert inf.contains(3) and not inf.contains(2)
    assert list(itertools.islice(inf.iter_increasing(), 4)) == [3, 4, 5, 6]
    assert Interval(5, 4).is_empty()


def test_join_membership_and_enumeration():
    join = Join(FiniteSet({3}), Interval(0, None))
    assert join.contains(6)
    assert join.contains(1) and join.contains(17)
    assert not join.contains(4)
    head = list(itertools.islice(join.iter_increasing(), 6))
    assert head == [1, 3, 5, 6, 7, 9]


def test_subset_check():
    assert is_subset(Interval(2, 4), Interval(0, 10))
    assert not is_subset(Interval(0, 10), Interval(2, 4))
    assert is_subset(Interval(-5, 1), FiniteSet({0, 1}))
    assert is_subset(FiniteSet({3, 7}), Interval(3))


def test_canonical_text_pads_with_minimum():
    text = make_text("canonical", Interval(0, 3))
    assert list(itertools.islice(text.stream(), 7)) == [0, 1, 2, 3, 0, 0, 0]


def test_prefixed_text_and_content_guard():
    text = make_text("prefixed", Interval(0, 2), prefix=[(2, 2), (1, 1), (0, 0)])
    assert list(itertools.islice(text.stream(), 6)) == [2, 2, 1, 0, 1, 2]
    with pytest.raises(ValueError):
        make_text("prefixed", Interval(0, 2), prefix=[(5, 1)])
    # ``itertools.repeat`` counts up to ``sys.maxsize``; a longer run streams all the same
    text = make_text("prefixed", Interval(0, 2), prefix=[(1, sys.maxsize + 1), (2, 1)])
    assert list(itertools.islice(text.stream(), 5)) == [1] * 5


class CountingInterval(Interval):
    """An interval that logs each membership question it is asked."""

    def contains(self, x):
        self.asked.append(x)
        return super().contains(x)


def test_prefix_guard_asks_each_runs_element_once():
    target = CountingInterval(0, 9)
    object.__setattr__(target, "asked", [])
    prefix = ((4, 10**12), (1, 1), (4, 3), (9, 1), (0, 2))
    text = make_text("prefixed", target, prefix=prefix)
    assert target.asked == [4, 1, 4, 9, 0]  # run order, once per run, whatever its count
    assert text.prefix is prefix  # a tuple prefix is kept, not copied
    with pytest.raises(ValueError, match="^prefix element 7 is outside the target$"):
        make_text("prefixed", Interval(0, 2), prefix=[(1, 2), (7, 1), (2, 1), (9, 1)])


def test_empty_target_rejected():
    with pytest.raises(ValueError):
        make_text("canonical", FiniteSet(set()))


def test_seeded_text_is_permutation_and_deterministic():
    target = Interval(0, 30)
    text = make_text("seeded", target, seed=11)
    first = list(itertools.islice(text.stream(), 31))
    again = list(itertools.islice(text.stream(), 31))
    assert first == again
    assert sorted(first) == list(range(31))
    assert first != list(range(31))  # seed 11 actually shuffles

    infinite = make_text("seeded", Interval(0, None), seed=5)
    window = list(itertools.islice(infinite.stream(), 64))
    # every element below 48 appears within three blocks of 16
    assert set(range(48)) <= set(window)


def test_text_covers_every_element_within_horizon():
    for seed in range(5):
        text = make_text("seeded", Interval(0, 20), seed=seed)
        assert set(itertools.islice(text.stream(), 21)) == set(range(21))
