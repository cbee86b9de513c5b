"""Properties on drawn chains: the chain chaser endorses the first member holding
every datum seen, and chain forcing, which steps its learner from the prefix's
state, finds what a search that runs every candidate from scratch finds."""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from session_scripts import TEACHER_PICKS, ScriptedTeacher
from test_adversary import _chain_force_judging_every_output, chain_force_outcome

from txtex_lab import agents
from txtex_lab.adversary import chain_force, make_chain_chaser
from txtex_lab.session import compose_pair, run_on_sequence
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


SETS = st.lists(st.frozensets(st.integers(0, 7), max_size=8), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    sets=SETS,
    picks=st.lists(st.integers(0, 5), max_size=8),
    data=st.lists(st.integers(0, 9), max_size=12),
)
def test_chaser_emits_first_member_holding_all_data_seen(sets, picks, data):
    # chains are arbitrary index lists: non-chains, repeats and data in no member
    family = ListFamily(sets)
    chain = [pick % len(sets) for pick in picks]
    run = run_on_sequence(make_chain_chaser(family, chain), data)
    assert run.emissions == first_member_holding_all_seen(family, chain, data)


@settings(max_examples=200, deadline=None)
@given(
    sets=SETS,
    picks=st.lists(st.integers(0, 5), max_size=5),
    agent=st.sampled_from(["chaser", "lead-count", "repeat-counter"]),
    teacher_script=st.lists(TEACHER_PICKS, max_size=8),
    max_ext_len=st.integers(1, 2),
    max_candidates=st.integers(0, 120),
)
def test_stepped_chain_forcing_finds_what_runs_from_scratch_find(
    sets, picks, agent, teacher_script, max_ext_len, max_candidates
):
    """The chaser alone, or a count learner behind a scripted or a bracket teacher.

    Each teacher keeps state across its inputs, so a fresh one must be fed the
    prefix before the extension.
    """
    family = ListFamily(sets)
    chain = [pick % len(sets) for pick in picks]
    if agent == "chaser":
        learner, teacher_factory = make_chain_chaser(family, chain), None
    elif agent == "lead-count":
        learner = agents.make_msd_pair()[0]
        teacher_factory = functools.partial(ScriptedTeacher, teacher_script)
    else:
        learner, teacher_factory = agents.make_pow2_teacher_pair()
    result = chain_force(
        learner,
        teacher_factory,
        chain,
        family,
        max_ext_len=max_ext_len,
        max_candidates=max_candidates,
    )
    runner = learner if teacher_factory is None else compose_pair(learner, teacher_factory)
    want = _chain_force_judging_every_output(runner, chain, family, max_ext_len, max_candidates)
    assert chain_force_outcome(result) == want
