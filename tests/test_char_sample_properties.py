"""The characteristic-sample check's sequence sources and its walk against their plain forms.

Exhaustive mode walks only the covering words; it must fold them as a run
over each covering word of the full product, in product order, would.
Sampled mode draws with ``getrandbits``; it must give exactly the covering
draws of the stream that ``randint``, ``choice`` and ``shuffle`` give for the
same seed.  In either mode the check steps a step learner; it must give the
verdict, or the error, of running the learner's derived program over each
covering sequence, repeats included, through ``run_on_sequence``, and a pass
must report as ``steps`` the data a counting learner was stepped on.
"""

import itertools
import random
from functools import partial
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from session_scripts import (
    data_counted,
    derived_learner,
    fold_outputs,
    last_emission,
    outcome,
    step_tables,
)

from txtex_lab import evaluate
from txtex_lab.codec import poly_encode
from txtex_lab.evaluate import (
    Verdict,
    _sampled_sequences,
    _walk_covering_words,
    check_characteristic_sample,
    hypothesis_correct,
)
from txtex_lab.session import Learner, run_on_sequence
from txtex_lab.sets import FiniteSet

# emits 0 before its first read and nothing after, so every word ends on 0
SILENT = Learner.from_step("silent", None, lambda state, datum: (state, None), "drawn", 0)
# emits its first datum alone, so a word's output is its first letter
FIRST_LETTER = Learner.from_step(
    "first-letter", True, lambda fresh, datum: (False, datum if fresh else None), "drawn"
)
# emits 5 on its first datum, or 6 if it is 3, and nothing after: words that open with 2
# and with 3 step into one state with different hypotheses
MERGING = Learner.from_step(
    "merging", 0, lambda state, datum: (1, None if state else 5 + (datum == 3)), "drawn"
)


def filtered_product(universe, sample_set, max_len):
    words = itertools.chain.from_iterable(
        itertools.product(universe, repeat=length) for length in range(1, max_len + 1)
    )
    return [word for word in words if sample_set.issubset(word)]


@st.composite
def mostly_agreeing_learners(draw):
    """A step learner over 1–4 states and the data 0–6 whose steps mostly emit 1.

    Its output depends on the word, through the states it merges and the
    hypotheses it keeps when a step emits nothing, so a walk that takes the
    words out of order, or counts a node for the wrong words, reads another
    output; as most words end on 1, the fold reaches far into the product.
    """
    states = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(0, states - 1), st.sampled_from([1] * 8 + [None, None, 2]))
    table = {(s, datum): draw(entry) for s in range(states) for datum in range(7)}
    first = draw(st.sampled_from([None, 1, 2]))
    return Learner.from_step("agreeing", 0, lambda state, datum: table[state, datum], "drawn", first)


@settings(max_examples=300, deadline=None)
@given(
    learner=mostly_agreeing_learners(),
    universe=st.lists(st.integers(0, 6), unique=True, max_size=5),
    sample=st.frozensets(st.integers(0, 8), max_size=3),
    max_len=st.integers(0, 4),
)
@example(learner=SILENT, universe=[], sample=frozenset(), max_len=3)
@example(learner=SILENT, universe=[5], sample=frozenset({5}), max_len=3)
@example(learner=SILENT, universe=[2, 1], sample=frozenset({1}), max_len=2)
@example(learner=SILENT, universe=[1, 2], sample=frozenset({1, 9}), max_len=3)  # 9 is never covered
@example(learner=FIRST_LETTER, universe=[2, 1], sample=frozenset({1, 2}), max_len=2)
@example(learner=MERGING, universe=[1, 2, 3], sample=frozenset({1}), max_len=2)
def test_the_walk_folds_the_covering_product_words_in_order(learner, universe, sample, max_len):
    # the universe is drawn in any order, so a walk that takes sorted or sample order fails
    want = fold_outputs(filtered_product(universe, sample, max_len), partial(last_emission, learner))
    data = []
    got = _walk_covering_words(data_counted(learner, data), universe, sorted(sample), max_len, None)
    assert got == (*want, len(data))


class DrawnFamily:
    """Index ``target_index`` codes the drawn target; any other index n codes {100 + n}."""

    def __init__(self, target_index, target):
        self.target_index = target_index
        self.target = target

    def member(self, index):
        return self.target if index == self.target_index else FiniteSet({100 + index})

    def min_index(self, index):
        return index


def verdict_of_runs(learner, family, target_index, sample, max_len, max_universe, oracle, seed):
    """The check's verdict from one ``run_on_sequence`` per covering sequence over the universe.

    The drawn samples lie in the target and fit the size bound, so only the
    universe can end the check before the runs.  Sampled mode draws from
    ``reference_sampled_sequences``, not the sampler under test, and runs
    every covering draw, a repeat again.  A pass reports as ``steps`` the
    data of the distinct sequences, which sampled mode steps once each; the
    walk steps each prefix of a covering word at most once, per length, and
    fewer where its memo decides, so in exhaustive mode that count of
    prefixes bounds the check's ``steps``.
    """
    universe = family.member(target_index).elements_up_to(max_universe)
    if not universe:
        return Verdict(False, "empty-universe", {})
    count = evaluate._arrangement_count(len(universe), max_len)
    exhaustive = count <= evaluate.EXHAUSTIVE_ARRANGEMENT_LIMIT
    sample = sorted(set(sample))
    if exhaustive:
        sequences = filtered_product(universe, set(sample), max_len)
    else:
        drawn = reference_sampled_sequences(
            universe, sample, max_len, seed, evaluate.SAMPLED_ARRANGEMENTS
        )
        sequences = (seq for seq in drawn if set(sample) <= set(seq) <= set(universe))
    locked, checked, distinct = None, 0, set()
    for seq in sequences:
        checked += 1
        distinct.add(tuple(seq))
        output = (run_on_sequence(learner, seq, oracle=oracle).emissions or [None])[-1]
        if output is None:
            return Verdict(False, "no-output", {"prefix": list(seq)})
        if locked is None:
            locked = output
        elif output != locked:
            details = {"prefix": list(seq), "output": output, "expected": locked}
            return Verdict(False, "output-not-fixed", details)
    if locked is None:
        return Verdict(False, "no-covering-prefix", {"exhaustive": exhaustive})
    if not hypothesis_correct(family, locked, target_index):
        return Verdict(False, "locked-output-incorrect", {"output": locked})
    details = {
        "locked_output": locked,
        "covering_prefixes_checked": checked,
        "exhaustive": exhaustive,
        "sample_size": len(sample),
        "steps": len({(len(seq), seq[:i]) for seq in distinct for i in range(1, len(seq) + 1)})
        if exhaustive
        else sum(map(len, distinct)),
    }
    return Verdict(True, "ok", details)


@settings(max_examples=300, deadline=None)
@given(
    tables=step_tables(),
    target=st.frozensets(st.integers(0, 6), min_size=1),
    target_index=st.integers(0, 2),
    max_universe=st.integers(0, 7),
    data=st.data(),
    max_len=st.integers(0, 3),
    use_oracle=st.booleans(),
    sampled=st.booleans(),
    seed=st.integers(0, 3),
)
def test_the_check_gives_the_verdict_of_a_run_per_covering_sequence(
    tables, target, target_index, max_universe, data, max_len, use_oracle, sampled, seed
):
    sample = data.draw(st.lists(st.sampled_from(sorted(target)), max_size=3))
    learner = derived_learner(*tables)
    family = DrawnFamily(target_index, FiniteSet(target))
    oracle = family.target if use_oracle else None
    # with no exhaustive arrangements, every max_len of at least 1 is sampled
    limit = 0 if sampled else evaluate.EXHAUSTIVE_ARRANGEMENT_LIMIT
    data = []
    with mock.patch.multiple(evaluate, EXHAUSTIVE_ARRANGEMENT_LIMIT=limit, SAMPLED_ARRANGEMENTS=40):
        want = outcome(
            lambda: verdict_of_runs(
                learner, family, target_index, sample, max_len, max_universe, oracle, seed
            )
        )
        got = outcome(
            lambda: check_characteristic_sample(
                lambda: data_counted(learner, data),
                family,
                target_index,
                sample,
                poly_encode([4]),
                max_text_len=max_len,
                max_universe=max_universe,
                use_oracle=use_oracle,
                seed=seed,
            )
        )
    if isinstance(want, Verdict) and want.passed:
        if want.details["exhaustive"]:
            assert len(data) <= want.details["steps"]
            want.details["steps"] = len(data)
        assert len(data) == want.details["steps"]
    assert got == want


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


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 66, 130, 1024, 1026])
@pytest.mark.parametrize("seed", [0, 7, 11, 123])
def test_sampled_sequences_keep_the_randint_choice_shuffle_stream(seed, size):
    # sizes at the bit_length edges, where a rejection draw is most and least likely;
    # 66 and 130 are the offset-power universes for n = 6 and 7
    universe = list(range(3, 3 + 2 * size, 2))
    # the last sample, [a, b, c, b], wraps: spliced over a length-3 draw it leaves only b
    # and c, where a splice without itertools.cycle would leave a, b and c
    samples = [[universe[0], 10**6, 7][:k] for k in range(4)] + [[universe[0], 10**6, 7, 10**6]]
    for max_len in range(1, 5):
        for sample in samples:
            args = universe, sample, max_len, seed, 300
            covering = [seq for seq in reference_sampled_sequences(*args) if set(sample) <= set(seq)]
            assert list(_sampled_sequences(*args)) == covering


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
