"""Properties: the set shapes and the shape-decided equality answer as the pointwise forms do."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab.codec import pair, unpair
from txtex_lab.families import CsdFamily
from txtex_lab.sets import ColumnStack, FiniteSet, Interval, Join, is_subset, set_equal

# Shapes hold naturals: finite sets draw no negative element, while intervals
# may start below 0 and may be empty.
naturals = st.integers(min_value=0, max_value=12)
ends = st.integers(min_value=-3, max_value=12)
leaves = st.one_of(
    st.builds(FiniteSet, st.frozensets(naturals, max_size=6)),
    st.builds(Interval, ends, ends),
    st.builds(Interval, ends),
    st.builds(ColumnStack, st.integers(0, 3), st.integers(0, 3), st.booleans()),
)
one_deep = st.one_of(leaves, st.builds(Join, leaves, leaves))
shapes = st.one_of(leaves, st.builds(Join, one_deep, one_deep))


def horizon(shape) -> int:
    """A point past every finite element and interval endpoint, doubled per join level."""
    if isinstance(shape, Join):
        return 2 * max(horizon(shape.left), horizon(shape.right)) + 2
    if isinstance(shape, Interval):
        return max(shape.lo, shape.hi or 0, 0) + 1
    return max(shape.iter_increasing(), default=0) + 1


def is_finite(shape) -> bool:
    if isinstance(shape, Join):
        return is_finite(shape.left) and is_finite(shape.right)
    return not (isinstance(shape, Interval) and shape.hi is None)


def rewrite(shape, draw):
    """Another shape meant to hold the same naturals, often of another kind.

    The property compares each pair pointwise, so a rewrite that missed would
    only add an unequal pair.
    """
    if isinstance(shape, Join):
        return Join(rewrite(shape.left, draw), rewrite(shape.right, draw))
    if isinstance(shape, ColumnStack) and shape.width <= 1 and shape.capped != (shape.width == 1):
        # a stack of one column of height base, capped or not
        return ColumnStack(shape.base, 1 - shape.width, not shape.capped)
    if isinstance(shape, Interval) and shape.hi is None:
        lo = max(shape.lo, 0)
        if draw(st.booleans()):
            return Interval(draw(st.integers(-3, 0)) if lo == 0 else lo)
        return Join(Interval(-(-lo // 2)), Interval(lo // 2))
    if isinstance(shape, Interval) and shape.hi < max(shape.lo, 0):
        hi = draw(ends)
        return Interval(hi + draw(st.integers(1, 5)), hi)
    members = [x for x in range(horizon(shape)) if shape.contains(x)]
    if members and draw(st.booleans()) and members == list(range(members[0], members[-1] + 1)):
        return Interval(members[0] if members[0] else draw(st.integers(-3, 0)), members[-1])
    return FiniteSet(members)


@st.composite
def shape_pairs(draw):
    """Two shapes, the second drawn afresh or rewritten from the first."""
    a = draw(shapes)
    b = rewrite(a, draw) if draw(st.booleans()) else draw(shapes)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(shape_pairs())
@settings(max_examples=500, deadline=None)
def test_set_equal_and_is_subset_are_pointwise(case):
    """Past the horizon every shape keeps its membership within each residue class of its joins."""
    a, b = case
    points = range(max(horizon(a), horizon(b)) + 1)
    assert set_equal(a, b) == all(a.contains(x) == b.contains(x) for x in points)
    if is_finite(a):
        assert is_subset(a, b) == all(b.contains(x) for x in points if a.contains(x))


class _DrawnAnchor(CsdFamily):
    """A chain family whose anchor and stack width are drawn, not computed."""

    def __init__(self, anchor: int, width: int):
        super().__init__(1)
        self._anchors = [anchor]
        self.width = width

    def top(self, i: int) -> int:
        return self.width


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10),
    st.lists(st.integers(min_value=0, max_value=pair(45, 12)), max_size=40),
)
def test_chain_and_top_sets_list_exactly_their_members(anchor, width, j, xs):
    """Iteration lists in order what one unpair admits, and each column stops at its height."""
    family = _DrawnAnchor(anchor, width)
    staircase = {c: anchor + c for c in range(width)}
    cases = [
        (family.chain_set(0, j), {c: anchor + c for c in range(j + 1)}),
        (family.top_set(0), {**staircase, width: anchor}),
    ]
    # each column's edge, just inside and just outside the staircase and its cap
    edges = [
        pair(u, c) for c in range(max(width, j) + 3) for u in (anchor, anchor + c, anchor + c + 1)
    ]
    for shape, heights in cases:
        listed = list(shape.iter_increasing())
        limit = listed[-1] + 1 if listed else 0
        assert listed == [x for x in range(limit) if shape.contains(x)]
        assert len(listed) == sum(h + 1 for h in heights.values())
        for x in [*xs, *edges]:
            u, c = unpair(x)
            assert shape.contains(x) == (c in heights and u <= heights[c]), x
