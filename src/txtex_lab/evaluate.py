"""Verdicts: did a transcript meet its resource criterion, and sample checks.

The three per-session criteria measure, at the convergence point, computation
ticks (PRT), distinct data consumed (PSD) or total mind changes (PMC) against
a polynomial in the target's minimal index; oracle use is bounded by the same
polynomial in every case, counting positive and negative answers alike.
A characteristic-sample check takes a step learner and steps it over the
covering sequences; it starts no learner program.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .codec import poly_eval
from .session import Learner, SessionTranscript, resolve_step, step_through
from .sets import SetSpec, set_equal

CRITERIA = ("PRT", "PSD", "PMC")

EXHAUSTIVE_ARRANGEMENT_LIMIT = 100_000
SAMPLED_ARRANGEMENTS = 10_000
# Longest text a characteristic-sample check takes.  The walk nests one
# call per letter, so a one-letter universe, which stays exhaustive up to
# 100,000 letters, would pass the interpreter's recursion limit near 1,000.
CHECK_MAX_TEXT_LEN = 100


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str = "ok"
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


def hypothesis_correct(family, hypothesis: int, target_index: int, target=None) -> bool:
    """Whether the emitted index codes the same set as the target index.

    ``target`` is ``family.member(target_index)``, for a caller that tests
    many hypotheses against one target and holds it already.
    """
    try:
        hypothesis_set = family.member(hypothesis)
    except Exception:
        return False
    return set_equal(hypothesis_set, family.member(target_index) if target is None else target)


def evaluate_run(
    transcript: SessionTranscript,
    family,
    target_index: int,
    poly: int,
    criterion: str,
) -> Verdict:
    """Judge one converged transcript against a criterion and polynomial."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion}")
    if not transcript.converged:
        return Verdict(False, "non-converged", {"end_reason": transcript.end_reason})
    hypothesis = transcript.final_hypothesis
    try:
        hypothesis_set = family.member(hypothesis)
    except Exception:
        return Verdict(False, "bad-hypothesis", {"hypothesis": hypothesis})
    if not set_equal(hypothesis_set, family.member(target_index)):
        return Verdict(False, "wrong-hypothesis", {"hypothesis": hypothesis})

    minimal = family.min_index(target_index)
    bound = poly_eval(poly, minimal)
    at = transcript.convergence
    details = {
        "min_index": minimal,
        "bound": bound,
        "ticks_at_convergence": at.ticks,
        "distinct_at_convergence": at.distinct_data,
        "queries_at_convergence": at.oracle_queries,
        "mind_changes": transcript.ledger.mind_changes,
    }
    if at.oracle_queries > bound:
        return Verdict(False, "query-bound-exceeded", details)
    if criterion == "PRT":
        if at.ticks >= bound:
            return Verdict(False, "tick-bound-exceeded", details)
    elif criterion == "PSD":
        if at.distinct_data >= bound:
            return Verdict(False, "dataset-bound-exceeded", details)
    elif criterion == "PMC":
        if transcript.ledger.mind_changes > bound:
            return Verdict(False, "mind-change-bound-exceeded", details)
    return Verdict(True, "ok", details)


def _arrangement_count(alphabet_size: int, max_len: int) -> int:
    total = 0
    for length in range(1, max_len + 1):
        total += alphabet_size**length
        if total > EXHAUSTIVE_ARRANGEMENT_LIMIT:
            return total
    return total


def _sampled_sequences(
    universe: list[int], sample: list[int], max_len: int, seed: int, count: int
):
    """The draws that cover the sample set, in draw order, of ``count`` seeded draws.

    Each index is one rejection draw ``r = getrandbits(k)``, repeated while
    ``r >= n`` with ``k = n.bit_length()``, which is how ``random.Random``
    draws below n.  So the draws are the ones that ``randint(1, max_len)``, a
    ``choice(universe)`` per position and a ``shuffle`` of the positions
    before the splice would give, at one call per draw.  Every draw makes
    its calls, but only a covering one is built as a tuple.
    """
    if max_len < 1:
        raise ValueError(f"empty range for the length: 1..{max_len}")
    if not universe:
        raise IndexError("Cannot choose from an empty sequence")
    rng = random.Random(seed)
    bits, coin = rng.getrandbits, rng.random
    n, n_bits, len_bits = len(universe), len(universe).bit_length(), max_len.bit_length()
    needed = set(sample)
    for _ in range(count):
        length = bits(len_bits)
        while length >= max_len:
            length = bits(len_bits)
        length += 1
        seq = []
        for _ in range(length):
            r = bits(n_bits)
            while r >= n:
                r = bits(n_bits)
            seq.append(universe[r])
        if coin() < 0.5 and sample:
            # splice the sample in, at shuffled positions, so the covering condition is exercised
            positions = list(range(length))
            for i in range(length - 1, 0, -1):
                k = (i + 1).bit_length()
                j = bits(k)
                while j > i:
                    j = bits(k)
                positions[i], positions[j] = positions[j], positions[i]
            for x, pos in zip(sample, itertools.cycle(positions)):
                seq[pos] = x
        # a draw shorter than the sample's distinct elements cannot hold them all
        if length >= len(needed) and needed.issubset(seq):
            yield tuple(seq)


def _walk_covering_words(
    learner: Learner,
    universe: Sequence[int],
    sample: Sequence[int],
    max_len: int,
    oracle: SetSpec | None,
    max_steps=math.inf,
) -> tuple[int, int | None, tuple[int, ...] | None, int | None]:
    """``(words, locked, bad, output)`` over the words of length 1..max_len over
    ``universe`` that hold all of ``sample``, in ``itertools.product`` order:
    the first word whose output is None or not the first word's, ``locked``,
    with its output (both None if none), and the count of words before it.

    The walk steps the learner once per prefix, over any letter while fewer
    sample elements are missing than slots remain, else over the missing ones
    in universe order.  What a step learner does next depends only on its
    state and the data still to come, so a node whose words all ended on
    ``locked`` is counted again, not walked: its key (slots left, state, last
    hypothesis, missing elements) decides them, so an unhashable state raises
    ``TypeError``.  With universe = sample = a core and ``max_len`` its size,
    the words are the core's orders, and this is the subset recursion of Held
    and Karp: when every order of a subset reaches one state and hypothesis,
    it decides all n! orders in n·2^(n−1) steps, and it checks
    order-independence rather than assuming it.  Past ``max_steps`` steps the
    walk stops before the next one, with that unstepped prefix as ``bad`` and
    output None, so a bounded walk never reads as a pass.
    """
    bits = {x: 1 << i for i, x in enumerate(sample)}
    needed = [(x, bits[x]) for x in universe if x in bits]
    counted: dict[tuple, int] = {}
    locked = bad = output = None
    steps = itertools.count(1)

    def below(prefix, slots, state, last, missing) -> int:
        nonlocal locked, bad, output
        node = (slots, state, last, missing)
        if node in counted:
            return counted[node]
        words = 0
        letters = universe if missing.bit_count() < slots else [x for x, b in needed if missing & b]
        for x in letters:
            if next(steps) > max_steps:
                bad = prefix + (x,)
                return words
            after, hypothesis = resolve_step(learner, state, x, oracle)
            out = last if hypothesis is None else hypothesis
            if slots > 1:
                words += below(prefix + (x,), slots - 1, after, out, missing & ~bits.get(x, 0))
                if bad is not None:
                    return words
            elif out is None or locked not in (None, out):
                bad, output = prefix + (x,), out
                return words
            else:
                locked = out
                words += 1
        counted[node] = words
        return words

    words, full = 0, (1 << len(bits)) - 1
    try:
        for length in range(max(1, len(bits)), max_len + 1):
            words += below((), length, learner.start, learner.first, full)
            if bad is not None:
                break
    finally:
        del below  # it refers to itself: free its memo now, not at the next cyclic gc
    return words, locked, bad, output


def check_characteristic_sample(
    make_learner: Callable[[], Learner],
    family,
    target_index: int,
    sample: Sequence[int],
    poly: int,
    *,
    max_text_len: int,
    max_universe: int,
    use_oracle: bool = True,
    seed: int = 0,
) -> Verdict:
    """Verify a candidate characteristic sample over bounded texts.

    Enumerates every sequence of length <= max_text_len over target elements
    <= max_universe (exhaustively when that space is small, seeded-sampled
    otherwise); on every sequence whose content covers ``sample`` the learner
    must output one fixed correct index of the target.  A ``max_text_len``
    above ``CHECK_MAX_TEXT_LEN`` raises ``ValueError``.

    ``make_learner`` is called once per check, and must give a learner made by
    ``Learner.from_step`` (``TypeError`` otherwise): the check steps it and
    starts no program.  The target answers its queries when ``use_oracle`` is
    set.  A sample element above ``max_universe`` is in no sequence over the
    universe, so no sequence covers the sample.
    Exhaustive mode walks the covering words in ``itertools.product`` order
    and memoizes the learner's states (``_walk_covering_words``); sampled mode
    takes the covering draws of the seeded ``getrandbits`` stream that
    ``randint``, ``choice`` and ``shuffle`` give (``_sampled_sequences``), and
    steps the learner (``step_through``) through each distinct one once: a
    repeat is counted in ``covering_prefixes_checked`` but not stepped again.
    Both stop at the first bad output; the verdict is that of a run on each.
    """
    if max_text_len > CHECK_MAX_TEXT_LEN:
        raise ValueError(f"max_text_len {max_text_len} is above {CHECK_MAX_TEXT_LEN}")
    learner = make_learner()
    if learner.step is None:
        raise TypeError(f"learner {learner.name} has no step for a characteristic-sample check")
    target = family.member(target_index)
    sample = sorted(set(sample))
    for x in sample:
        if not target.contains(x):
            return Verdict(False, "sample-outside-target", {"element": x})
    minimal = family.min_index(target_index)
    size_bound = poly_eval(poly, minimal)
    if len(sample) >= size_bound:
        return Verdict(False, "sample-too-large", {"size": len(sample), "bound": size_bound})

    universe = target.elements_up_to(max_universe)
    if not universe:
        return Verdict(False, "empty-universe", {})
    count = _arrangement_count(len(universe), max_text_len)
    exhaustive = count <= EXHAUSTIVE_ARRANGEMENT_LIMIT
    if sample and sample[-1] > max_universe:
        return Verdict(False, "no-covering-prefix", {"exhaustive": exhaustive})
    oracle = target if use_oracle else None
    if exhaustive:
        words, locked, bad, output = _walk_covering_words(
            learner, universe, sample, max_text_len, oracle
        )
    else:
        # a repeat of a passed sequence passes: the output is the sequence's, the oracle fixed
        words, locked, bad, passed = 0, None, None, set()
        for seq in _sampled_sequences(universe, sample, max_text_len, seed, SAMPLED_ARRANGEMENTS):
            if seq not in passed:
                output = step_through(learner, seq, oracle)
                if output is None or locked not in (None, output):
                    bad = seq
                    break
                locked = output
                passed.add(seq)
            words += 1
    if bad is not None and output is None:
        return Verdict(False, "no-output", {"prefix": list(bad)})
    if bad is not None:
        details = {"prefix": list(bad), "output": output, "expected": locked}
        return Verdict(False, "output-not-fixed", details)
    if locked is None:
        return Verdict(False, "no-covering-prefix", {"exhaustive": exhaustive})
    if not hypothesis_correct(family, locked, target_index):
        return Verdict(False, "locked-output-incorrect", {"output": locked})
    return Verdict(
        True,
        "ok",
        {
            "locked_output": locked,
            "covering_prefixes_checked": words,
            "exhaustive": exhaustive,
            "sample_size": len(sample),
        },
    )
