"""Self-delimiting number descriptions built from 4-tuple-coded elements.

A descriptor is a finite set of codes, each decoding at arity 4 to
``(x, c, 1, 0)``: every descriptor lives on column 0, and codes on any other
column are not descriptor elements.  The signed values of the completion
indices ``c`` sum to zero over the whole set and over no nonempty proper
subset, so a stream containing the descriptor can be cut off at exactly the
element that completes it.  The described number is the signed-value sum of
the ``x`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .codec import decode_tuple, encode_tuple, signed_int, signed_int_inv, unpair

SUBSET_CHECK_LIMIT = 20


class SubsetBudgetError(Exception):
    """Raised when the exponential proper-subset check would be too large."""


def element_parts(code: int) -> tuple[int, int] | None:
    """Return (x, c) if ``code`` is shaped like a descriptor element.

    An element ``encode_tuple([x, c, 1, 0])`` is ``pair(x, pair(c, 1))``, since
    ``pair(1, 0) == 1``, so two unpairs decide the shape.
    """
    x, rest = unpair(code)
    c, tail = unpair(rest)
    if tail != 1:
        return None
    return x, c


def _subset_sums_hit_zero(values: list[int]) -> bool:
    """Whether any nonempty proper subset of ``values`` sums to zero."""
    total = (1 << len(values)) - 1
    sums = [0] * (total + 1)
    for mask in range(1, total + 1):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
        if sums[mask] == 0 and mask != total:
            return True
    return False


def validate_descriptor(elements: Iterable[int]) -> bool:
    """Check all descriptor conditions for ``elements``.

    Runs the exhaustive proper-subset check, so it is intended for sets of at
    most 20 elements; larger sets raise :class:`SubsetBudgetError`.
    """
    elems = sorted(set(elements))
    if len(elems) > SUBSET_CHECK_LIMIT:
        raise SubsetBudgetError(
            f"subset check over {len(elems)} elements exceeds {SUBSET_CHECK_LIMIT}"
        )
    if not elems:
        return False
    xs = []
    c_signed = []
    for code in elems:
        parts = element_parts(code)
        if parts is None:
            return False
        xs.append(parts[0])
        c_signed.append(signed_int(parts[1]))
    if len(set(xs)) != len(xs):
        return False
    if sum(c_signed) != 0:
        return False
    if len(elems) > 1 and _subset_sums_hit_zero(c_signed):
        return False
    return sum(signed_int(x) for x in xs) >= 0


def described_number(elements: Iterable[int]) -> int:
    """The number described by a valid descriptor; raises on invalid input."""
    elems = set(elements)
    if not validate_descriptor(elems):
        raise ValueError("not a valid descriptor")
    return sum(signed_int(decode_tuple(code, 4)[0]) for code in elems)


def build_descriptor(n: int, floor: int, markers: Iterable[int]) -> frozenset[int]:
    """Deterministically build a descriptor for ``n`` containing exactly ``markers``.

    Markers must already be (x, 1, 1, 0)-shaped codes with pairwise
    distinct x coordinates (completion signed value -1 each).  Two extra
    elements are added, carrying completion signed values +(len(markers)+1)
    and -1; their codes always exceed ``floor``.  No nonempty proper subset of
    the completion values can cancel: every subset missing the positive
    element is strictly negative, and the positive element needs all the
    others to cancel.  A descriptor is its set of element codes, so that set is
    returned; ``n`` is its described number.
    """
    if n < 0:
        raise ValueError("described number must be a natural")
    marker_list = sorted(set(markers))
    marker_xs = []
    for code in marker_list:
        parts = element_parts(code)
        if parts is None or parts[1] != 1:
            raise ValueError(f"marker {code} is not a unit-completion descriptor element")
        marker_xs.append(parts[0])
    if len(set(marker_xs)) != len(marker_xs):
        raise ValueError("marker x coordinates collide")
    m = len(marker_list)
    marker_sum = sum(signed_int(x) for x in marker_xs)

    s = floor + n + abs(marker_sum) + 1
    taken = set(marker_xs)
    while True:
        x1 = 2 * s
        x2 = signed_int_inv(n - marker_sum - s)
        if x1 != x2 and x1 not in taken and x2 not in taken:
            break
        s += 1

    extras = [
        encode_tuple([x1, signed_int_inv(m + 1), 1, 0]),
        encode_tuple([x2, 1, 1, 0]),
    ]
    elements = frozenset(marker_list + extras)
    assert all(code > floor for code in extras)
    assert validate_descriptor(elements)
    return elements


@dataclass(slots=True)
class RecognizerState:
    """Accumulated view of one descriptor arriving element by element.

    Slotted rather than frozen, so a step builds it without five
    ``object.__setattr__`` calls; nothing mutates a state, since
    :func:`recognizer_step` always returns a new one.
    """

    seen: frozenset[int] = frozenset()
    completion_sum: int = 0
    x_sum: int = 0
    complete: bool = False
    corrupt: bool = False


@dataclass(frozen=True)
class StepResult:
    status: str  # "ignored" | "partial" | "complete" | "corrupt"
    value: int | None = None


# Shared results for the statuses that carry no value; StepResult is frozen.
_IGNORED = StepResult("ignored")
_PARTIAL = StepResult("partial")
_CORRUPT = StepResult("corrupt")


def recognizer_step(state: RecognizerState, code: int) -> tuple[RecognizerState, StepResult]:
    """Feed one stream element; fire ``complete(n)`` exactly when the set closes.

    Elements that do not decode to the descriptor element shape, and
    duplicates, are ignored.  Duplicates are rejected before the code is
    decoded: ``seen`` only ever holds element-shaped codes, so the order of the
    two tests does not change the result, and a completed recognizer fed its
    own elements again does no decoding at all.  Any further descriptor-shaped
    element after completion marks the stream corrupt, and corrupt is sticky.
    """
    if state.corrupt:
        return state, _CORRUPT
    if code in state.seen:
        return state, _IGNORED
    parts = element_parts(code)
    if parts is None:
        return state, _IGNORED
    if state.complete:
        return replace(state, corrupt=True), _CORRUPT
    x, c = parts
    completion_sum = state.completion_sum + signed_int(c)
    nxt = RecognizerState(
        seen=state.seen | {code},
        completion_sum=completion_sum,
        x_sum=state.x_sum + signed_int(x),
        complete=completion_sum == 0,
    )
    if nxt.complete:
        return nxt, StepResult("complete", nxt.x_sum)
    return nxt, _PARTIAL
