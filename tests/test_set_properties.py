"""Properties: the shortcut set shapes answer exactly as the pointwise forms do."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from txtex_lab.codec import pair
from txtex_lab.families import CsdFamily
from txtex_lab.sets import ColumnBlock, FiniteSet, Union, set_equal

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
def test_chain_and_top_sets_are_unions_of_their_column_blocks(anchor, width, j, xs):
    """One unpair decides what testing each column block decides."""
    family = _DrawnAnchor(anchor, width)
    cases = [
        (family.chain_set(0, j), [ColumnBlock(0, anchor + c, c) for c in range(j + 1)]),
        (
            family.top_set(0),
            [ColumnBlock(0, anchor, width)]
            + [ColumnBlock(0, anchor + c, c) for c in range(width)],
        ),
    ]
    # each column's edge, just inside and just outside the staircase and its cap
    edges = [
        pair(u, c) for c in range(max(width, j) + 3) for u in (anchor, anchor + c, anchor + c + 1)
    ]
    for shape, blocks in cases:
        union = Union(blocks)
        assert shape.parts == union.parts
        assert list(shape.iter_increasing()) == list(union.iter_increasing())
        for x in [*xs, *edges]:
            assert shape.contains(x) == union.contains(x), x
