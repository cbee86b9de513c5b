"""The characteristic-sample check's sequence sources and its walk against their plain forms.

Exhaustive mode walks only the covering words; it must give exactly the
covering words of the full product, in product order.  Sampled mode draws
with ``getrandbits``; it must give exactly the stream that ``randint``,
``choice`` and ``shuffle`` give for the same seed.  For a step learner,
exhaustive mode walks the learner's states over the covering words; it must
give the verdict, or the error, of running the same learner without its
step over each covering word.
"""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from session_scripts import derived_learner, outcome, step_tables

from txtex_lab.codec import poly_encode
from txtex_lab.evaluate import _covering_words, _sampled_sequences, check_characteristic_sample
from txtex_lab.session import Learner
from txtex_lab.sets import FiniteSet


def filtered_product(universe, sample_set, max_len):
    words = itertools.chain.from_iterable(
        itertools.product(universe, repeat=length) for length in range(1, max_len + 1)
    )
    return [word for word in words if sample_set.issubset(word)]


@settings(max_examples=300, deadline=None)
@given(
    universe=st.lists(st.integers(0, 6), unique=True, max_size=5),
    sample=st.frozensets(st.integers(0, 8), max_size=3),
    max_len=st.integers(0, 4),
)
def test_covering_words_are_the_covering_product_words_in_order(universe, sample, max_len):
    # the universe is drawn in any order, so a walker that yields in sorted or set order fails
    assert list(_covering_words(universe, set(sample), max_len)) == filtered_product(
        universe, sample, max_len
    )


def test_covering_words_examples():
    assert list(_covering_words([], set(), 3)) == []
    assert list(_covering_words([5], {5}, 3)) == [(5,), (5, 5), (5, 5, 5)]
    assert list(_covering_words([2, 1], {1}, 2)) == [(1,), (2, 1), (1, 2), (1, 1)]
    # an element outside the universe is never covered
    assert list(_covering_words([1, 2], {1, 9}, 3)) == []


class DrawnFamily:
    """Index ``target_index`` codes the drawn target; any other index n codes {100 + n}."""

    def __init__(self, target_index, target):
        self.target_index = target_index
        self.target = target

    def member(self, index):
        return self.target if index == self.target_index else FiniteSet({100 + index})

    def min_index(self, index):
        return index


@settings(max_examples=300, deadline=None)
@given(
    tables=step_tables(),
    target=st.frozensets(st.integers(0, 6), min_size=1),
    target_index=st.integers(0, 2),
    max_universe=st.integers(0, 7),
    data=st.data(),
    max_len=st.integers(0, 3),
    use_oracle=st.booleans(),
)
def test_the_walk_gives_the_verdict_of_a_run_per_covering_word(
    tables, target, target_index, max_universe, data, max_len, use_oracle
):
    sample = data.draw(st.lists(st.sampled_from(sorted(target)), max_size=3))
    stepped = derived_learner(*tables)
    program_only = Learner(stepped.name, stepped.program, stepped.cost_note)

    def check(learner):
        return check_characteristic_sample(
            lambda: learner,
            DrawnFamily(target_index, FiniteSet(target)),
            target_index,
            sample,
            poly_encode([4]),
            max_text_len=max_len,
            max_universe=max_universe,
            use_oracle=use_oracle,
        )

    want = outcome(lambda: check(program_only))
    assert outcome(lambda: check(stepped)) == want


def reference_sampled_sequences(universe, sample, max_len, seed, count):
    """The sampler as written with ``randint``/``choice``/``shuffle``."""
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(1, max_len)
        seq = [rng.choice(universe) for _ in range(length)]
        if rng.random() < 0.5 and sample:
            # splice the sample in so the covering condition is exercised
            positions = list(range(len(seq)))
            rng.shuffle(positions)
            for x, pos in zip(sample, itertools.cycle(positions)):
                seq[pos % len(seq)] = x
        yield tuple(seq)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 1024, 1026])
@pytest.mark.parametrize("seed", [0, 7, 11, 123])
def test_sampled_sequences_keep_the_randint_choice_shuffle_stream(seed, size):
    # sizes at the bit_length edges, where a rejection draw is most and least likely
    universe = list(range(3, 3 + 2 * size, 2))
    for max_len in range(1, 5):
        for sample_size in range(4):
            sample = [universe[0], 10**6, 7, 3][:sample_size]
            args = universe, sample, max_len, seed, 300
            assert list(_sampled_sequences(*args)) == list(reference_sampled_sequences(*args))


@pytest.mark.parametrize("max_len", [0, -1])
def test_sampled_sequences_reject_an_empty_length_range(max_len):
    with pytest.raises(ValueError):
        next(reference_sampled_sequences([1, 2], [1], max_len, 0, 5))
    with pytest.raises(ValueError):
        next(_sampled_sequences([1, 2], [1], max_len, 0, 5))


def test_sampled_sequences_reject_an_empty_universe():
    # getrandbits(0) is always 0, so a rejection draw below 0 would never end
    with pytest.raises(IndexError):
        next(reference_sampled_sequences([], [1], 3, 0, 5))
    with pytest.raises(IndexError):
        next(_sampled_sequences([], [1], 3, 0, 5))
