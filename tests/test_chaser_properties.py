"""Property: the chain chaser endorses the first member holding every datum seen."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab.adversary import make_chain_chaser
from txtex_lab.session import run_on_sequence
from txtex_lab.sets import FiniteSet


class ListFamily:
    """Member i is the finite set ``sets[i]``."""

    def __init__(self, sets):
        self.sets = sets

    def member(self, index):
        return FiniteSet(self.sets[index])


def first_member_holding_all_seen(family, chain, data):
    """The chaser's emissions by definition: 0, then per datum the first chain
    index whose member contains all data so far, if any member does."""
    emissions = [0]
    for end in range(1, len(data) + 1):
        seen = data[:end]
        for index in chain:
            if all(family.member(index).contains(x) for x in seen):
                emissions.append(index)
                break
    return emissions


@settings(max_examples=300, deadline=None)
@given(
    sets=st.lists(st.frozensets(st.integers(0, 7), max_size=8), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=8),
    data=st.lists(st.integers(0, 9), max_size=12),
)
def test_chaser_emits_first_member_holding_all_data_seen(sets, picks, data):
    # chains are arbitrary index lists: non-chains, repeats and data in no member
    family = ListFamily(sets)
    chain = [pick % len(sets) for pick in picks]
    run = run_on_sequence(make_chain_chaser(family, chain), data)
    assert run.emissions == first_member_holding_all_seen(family, chain, data)
