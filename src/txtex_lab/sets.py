"""Decidable set shapes used as learning targets.

Every shape answers membership and yields its elements in increasing order.
Infinite shapes (open intervals, joins with the naturals) iterate forever;
callers bound consumption.  A family that is enumerated stage by stage hands
out one of these shapes per stage (``HaltingFamily.member_at_stage``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

from .codec import pair, unpair


class SetSpec:
    """Base class; subclasses are immutable values."""

    def contains(self, x: int) -> bool:
        raise NotImplementedError

    def iter_increasing(self) -> Iterator[int]:
        raise NotImplementedError

    def is_empty(self) -> bool:
        for _ in self.iter_increasing():
            return False
        return True

    def min_element(self) -> int:
        for x in self.iter_increasing():
            return x
        raise ValueError("empty set has no minimum")

    def elements_up_to(self, bound: int) -> list[int]:
        out = []
        for x in self.iter_increasing():
            if x > bound:
                break
            out.append(x)
        return out


@dataclass(frozen=True)
class FiniteSet(SetSpec):
    elements: frozenset[int]

    def __init__(self, elements):
        object.__setattr__(self, "elements", frozenset(elements))

    def contains(self, x: int) -> bool:
        return x in self.elements

    def iter_increasing(self) -> Iterator[int]:
        return iter(sorted(self.elements))


@dataclass(frozen=True)
class Interval(SetSpec):
    """[lo, hi], or [lo, infinity) when hi is None."""

    lo: int
    hi: int | None = None

    def contains(self, x: int) -> bool:
        if x < self.lo:
            return False
        return self.hi is None or x <= self.hi

    def iter_increasing(self) -> Iterator[int]:
        if self.hi is None:
            return itertools.count(self.lo)
        return iter(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class Join(SetSpec):
    """Recursion-theoretic join: evens from the left part, odds from the right."""

    left: SetSpec
    right: SetSpec

    def contains(self, x: int) -> bool:
        if x % 2 == 0:
            return self.left.contains(x // 2)
        return self.right.contains((x - 1) // 2)

    def iter_increasing(self) -> Iterator[int]:
        evens = (2 * a for a in self.left.iter_increasing())
        odds = (2 * b + 1 for b in self.right.iter_increasing())
        return heapq.merge(evens, odds)


@dataclass(frozen=True)
class ColumnStack(SetSpec):
    """Columns c < width of heights base + c, after [0, base] on column width if capped.

    Column c holds pair(u, c) for u up to its height.  Membership costs one
    unpair.
    """

    base: int
    width: int
    capped: bool

    def contains(self, x: int) -> bool:
        u, c = unpair(x)
        if c < self.width:
            return u <= self.base + c
        return self.capped and c == self.width and u <= self.base

    def iter_increasing(self) -> Iterator[int]:
        heights = [self.base + c for c in range(self.width)]
        if self.capped:
            heights.append(self.base)
        # pair(u, c) is increasing in u, and distinct columns share no element
        columns = [map(pair, range(h + 1), itertools.repeat(c)) for c, h in enumerate(heights)]
        return heapq.merge(*columns)


def set_equal(a: SetSpec, b: SetSpec) -> bool:
    """Whether two shapes hold the same naturals, decided from the shapes alone.

    Joins compare part by part with the other side's halves, two intervals by
    their clamped fields, and any other pair, being finite, element by element.
    """
    return _equal(a, b)  # one call per comparison; joins recurse in _equal


def _equal(a: SetSpec, b: SetSpec) -> bool:
    if isinstance(a, Join) or isinstance(b, Join):
        return all(map(_equal, _halves(a), _halves(b)))
    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        return a.elements == b.elements
    if isinstance(b, Interval):
        a, b = b, a
    if isinstance(a, Interval):
        a = _normal(a)
        if isinstance(b, Interval):
            return a == _normal(b)
        if a.hi is None:
            return False  # b is finite
    return all(x == y for x, y in itertools.zip_longest(a.iter_increasing(), b.iter_increasing()))


def _normal(s: Interval) -> Interval:
    lo = max(s.lo, 0)
    return Interval(0, -1) if s.hi is not None and s.hi < lo else Interval(lo, s.hi)


def _halves(s: SetSpec) -> tuple[SetSpec, SetSpec]:
    """The even elements of s halved, and the odd ones halved."""
    if isinstance(s, Join):
        return s.left, s.right
    if isinstance(s, Interval):
        lo, hi = max(s.lo, 0), s.hi
        if hi is None:
            return Interval((lo + 1) // 2), Interval(lo // 2)
        return Interval((lo + 1) // 2, hi // 2), Interval(lo // 2, (hi - 1) // 2)
    elements = list(s.iter_increasing())
    return tuple(FiniteSet(x // 2 for x in elements if x % 2 == r) for r in (0, 1))


def is_subset(a: SetSpec, b: SetSpec) -> bool:
    """Whether the finite shape a is contained in b, on the naturals."""
    return all(b.contains(x) for x in a.iter_increasing() if x >= 0)
