"""Properties: the shortcut set shapes answer exactly as the pointwise forms do."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from txtex_lab.codec import pair, unpair
from txtex_lab.families import CsdFamily
from txtex_lab.sets import FiniteSet, set_equal

elements = st.frozensets(st.integers(min_value=-3, max_value=40), max_size=12)


@st.composite
def finite_pairs_and_bounds(draw):
    """Two finite sets and a bound below, between, on or above their elements."""
    a, b = draw(elements), draw(elements)
    near = sorted({y for x in a | b for y in (x - 1, x, x + 1)})
    bound = draw(st.sampled_from(near) if near else st.integers(-2, 3))
    return FiniteSet(a), FiniteSet(b), bound


@given(finite_pairs_and_bounds())
def test_finite_set_equality_is_pointwise(case):
    a, b, bound = case
    pointwise = all(a.contains(x) == b.contains(x) for x in range(bound + 1))
    assert set_equal(a, b, bound) == pointwise


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
