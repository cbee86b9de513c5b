"""Deterministic enumerations (texts) of nonempty target sets.

A text lists every target element at least once, repetitions allowed.  Each
generator kind is fully determined by its parameters, so replaying a session
reproduces the same stream.  Finite targets are padded with their minimum
element once exhausted, so every stream is infinite.  A ``prefixed`` text
holds its prefix as runs ``(element, count)``: ``count`` copies of
``element``, so a long repeated prefix takes one pair.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat, starmap
from typing import Iterator, Sequence

from .sets import SetSpec

SHUFFLE_BLOCK = 16


@dataclass(frozen=True)
class Text:
    kind: str
    target: SetSpec
    prefix: tuple[tuple[int, int], ...] = ()  # runs (element, count)
    seed: int = 0

    def stream(self) -> Iterator[int]:
        """A fresh, infinite iterator over the text; identical on every call."""
        if self.kind == "canonical":
            return _pad_tail(self.target)
        if self.kind == "seeded":
            return _seeded_stream(self.target, self.seed)
        if self.kind == "prefixed":
            return chain(chain.from_iterable(starmap(_run, self.prefix)), _pad_tail(self.target))
        raise ValueError(f"unknown text kind: {self.kind}")


def _run(element: int, count: int) -> Iterator[int]:
    """``count`` copies of ``element``.  ``repeat`` counts up to ``sys.maxsize``; a longer
    run repeats without end, since no session reads that many elements."""
    return repeat(element, count) if count <= sys.maxsize else repeat(element)


def _pad_tail(target: SetSpec) -> Iterator[int]:
    """Increasing enumeration; finite targets then repeat their minimum forever."""
    first = target.min_element()
    yield from target.iter_increasing()
    while True:
        yield first


def _seeded_stream(target: SetSpec, seed: int) -> Iterator[int]:
    """A seeded permutation schedule: block-shuffled increasing enumeration.

    Every element still appears (each block is a shuffle of a slice of the
    increasing enumeration), so the result is a valid text for infinite and
    finite targets alike.
    """
    rng = random.Random(seed)
    source = target.iter_increasing()
    while True:
        block = list(islice(source, SHUFFLE_BLOCK))
        if not block:
            break
        rng.shuffle(block)
        yield from block
    pad = target.min_element()
    while True:
        yield pad


def make_text(
    kind: str,
    target: SetSpec,
    *,
    prefix: Sequence[tuple[int, int]] = (),
    seed: int = 0,
) -> Text:
    """Build a text of ``target``; rejects empty targets and foreign prefixes.

    ``prefix`` is runs ``(element, count)``.  Each run's element is tested
    once; a tuple prefix is kept, not copied.
    """
    if target.is_empty():
        raise ValueError("cannot build a text of the empty set")
    if kind == "prefixed":
        for x, _ in prefix:
            if not target.contains(x):
                raise ValueError(f"prefix element {x} is outside the target")
    if kind not in ("canonical", "seeded", "prefixed"):
        raise ValueError(f"unknown text kind: {kind}")
    return Text(kind=kind, target=target, prefix=tuple(prefix), seed=seed)
