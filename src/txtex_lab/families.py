"""Indexed families of target sets with analytic minimal indices.

Each constructor returns an immutable IndexedFamily: exact membership as a
``sets`` shape, a minimal index for every index, and canonical texts.  Two
indices code the same set when ``sets.set_equal`` holds of their members,
which it decides from the shapes alone.  The diagonalizing families (marked
self-description, trap sets) take the attacked learner by id from a registry
dict and run their searches at construction time; the marked
self-description family keeps its learner as ``learner``, so the defeat in
``adversary.msd_defeat`` runs against the learner its trap was built for.
"""

from __future__ import annotations

from . import adversary
from .codec import (
    canonical_decode,
    canonical_encode,
    decode_tuple,
    encode_tuple,
    pair,
    poly_decode,
    poly_eval,
    unpair,
)
from .descriptor import build_descriptor
from .session import Learner
from .sets import ColumnStack, FiniteSet, Interval, Join, SetSpec
from .text import Text, make_text


class UnknownIndexError(ValueError):
    """The family defines no member at this index."""


class UnresolvedIndexError(RuntimeError):
    """The member at this index needs a search that ran out of budget."""


class EmptyTargetError(ValueError):
    """The member at this index is empty; no text of it exists."""


class IndexedFamily:
    def member(self, n: int) -> SetSpec:
        raise NotImplementedError

    def min_index(self, n: int) -> int:
        raise NotImplementedError

    def canonical_text(self, n: int) -> Text:
        return make_text("canonical", self.member(n))


# ---------------------------------------------------------------------------
# basic families


class UpIntervals(IndexedFamily):
    def member(self, n):
        return Interval(n, None)

    def min_index(self, n):
        return n


class PairIntervals(IndexedFamily):
    def member(self, n):
        lo, hi = unpair(n)
        return Interval(lo, hi)

    def min_index(self, n):
        lo, hi = unpair(n)
        if lo <= hi:
            return n
        return pair(1, 0)  # least code of the empty interval


class TupleContents(IndexedFamily):
    """Contents of decoded pairs."""

    def member(self, n):
        return FiniteSet(decode_tuple(n, 2))

    def min_index(self, n):
        content = set(decode_tuple(n, 2))
        return next(c for c in range(n + 1) if set(decode_tuple(c, 2)) == content)


class FiniteCanonical(IndexedFamily):
    """All finite sets, with minimal index <size, bitmask code>.

    Codes whose size tag disagrees with their bitmask are filled with the
    infinite tail [code, infinity): any finite filler would steal some finite
    set's minimal index, while the tails are pairwise distinct and never
    collide with a finite member.
    """

    def member(self, n):
        size, mask = unpair(n)
        content = canonical_decode(mask)
        if len(content) == size:
            return FiniteSet(content)
        return Interval(n, None)

    def min_index(self, n):
        # a finite set has one <size, mask> code, and each tail occurs at exactly one code
        return n


    def index_of_set(self, content) -> int:
        content = frozenset(content)
        return pair(len(content), canonical_encode(content))


class Pow2(IndexedFamily):
    def member(self, n):
        return Interval(0, 2**n)

    def min_index(self, n):
        return n


class JoinSingletons(IndexedFamily):
    def member(self, n):
        return Join(FiniteSet({n}), Interval(0, None))

    def min_index(self, n):
        return n


class PcsG(IndexedFamily):
    """The naturals at index 0, initial segments [0, n] above."""

    def member(self, n):
        if n == 0:
            return Interval(0, None)
        return Interval(0, n)

    def min_index(self, n):
        return n


# kind -> class, in the order `txtex-lab list families` prints them
BASIC_FAMILIES = {
    "up-intervals": UpIntervals,
    "pair-intervals": PairIntervals,
    "tuple-contents": TupleContents,
    "finite-canonical": FiniteCanonical,
    "pow2": Pow2,
    "join-singletons": JoinSingletons,
    "pcs-G": PcsG,
}


def make_basic_family(kind: str) -> IndexedFamily:
    if kind not in BASIC_FAMILIES:
        raise ValueError(f"unknown basic family kind {kind!r}")
    return BASIC_FAMILIES[kind]()


# ---------------------------------------------------------------------------
# marked self-describing families


def require_increasing_poly(poly: list[int]) -> None:
    """The marker trap is stretched by p, so p must grow: some coefficient at degree >= 1."""
    if not any(poly[1:]):
        raise ValueError(f"poly must be increasing (some coefficient at degree >= 1), got {poly}")


# Greatest partial code of p* that is paired further: each code stays small, so ell
# stays printable (Python refuses to print an int of more than 4,300 digits).
MARKER_MAX_CODE = 100_000_000


def marker_prefix_length(poly: list[int], m_id: int, stretch: int) -> int:
    """ell of the marker family on ``poly`` trapping learner ``m_id``.

    ell = p*(stretch * t), t = <m, p*, 1>.  p* is paired up one coefficient
    at a time, and a partial code above ``MARKER_MAX_CODE`` raises
    ``ValueError``.  A pair is at least each of its arguments and an
    increasing p has p(x) >= x, so ell >= t >= p*.
    """
    code = poly[-1]
    for x in [*reversed(poly[:-1]), len(poly) - 1]:  # p* = pair(degree, encode_tuple(poly))
        if code > MARKER_MAX_CODE:
            raise ValueError(f"poly {poly} gives a marker family code above {MARKER_MAX_CODE}")
        code = pair(x, code)
    return poly_eval(code, stretch * encode_tuple([m_id, code, 1]))


class MsdFamily(IndexedFamily):
    """Every member is a descriptor whose described number is its own index.

    Every member holds the marker ``marker_element(0)``.  The two targeted
    indices <m, p*, 0> and <m, p*, 1> put their other elements above the
    attacked learner's query ceiling on the marker stream of length
    ``marker_prefix_length``; all other indices use floor 0.  ``stretch`` is
    3 inside the merged family, which holds member t at index 2t+1 <= 3t, and
    1 elsewhere.
    """

    def __init__(self, registry: dict, m_id: int, p_code: int, stretch: int):
        poly = list(poly_decode(p_code))
        require_increasing_poly(poly)
        self.learner = registry[m_id]  # unregistered ids fail here
        self.targeted = (encode_tuple([m_id, p_code, 0]), encode_tuple([m_id, p_code, 1]))
        self.ell = marker_prefix_length(poly, m_id, stretch)
        self.query_ceiling = adversary.compute_q(self.learner, self.ell)
        self.markers = frozenset({adversary.marker_element(0)})
        self.floor = max(self.query_ceiling, max(self.markers))

    def member(self, n):
        floor = self.floor if n in self.targeted else 0
        return FiniteSet(build_descriptor(n, floor, self.markers))

    def min_index(self, n):
        return n  # described numbers differ, so members are pairwise distinct


def make_msd(registry: dict[int, Learner], m_id: int, p_code: int):
    return MsdFamily(registry, m_id, p_code, 1)


# ---------------------------------------------------------------------------
# column self-describing families


class CsdFamily(IndexedFamily):
    """The chain family: an anchor sequence and the column structure over it.

    anchor(i) is defined by a(i) = mult*(i+1) + sum_{j<i} poly_j(mult * a(j)),
    with poly_j the polynomial coded by j.  Member sets are column stacks:
    the chain-top set at anchor index i stacks columns 0..top(i) and the
    chain members below it stop at lower columns.
    """

    def __init__(self, multiplier: int):
        self.multiplier = multiplier
        self._anchors = [multiplier]  # a(0) = mult * 1

    def anchor(self, i: int) -> int:
        while len(self._anchors) <= i:
            n = len(self._anchors)
            total = self.multiplier * (n + 1)
            total += sum(
                poly_eval(j, self.multiplier * self._anchors[j]) for j in range(n)
            )
            self._anchors.append(total)
        return self._anchors[i]

    def top(self, i: int) -> int:
        """Width of the column stack at anchor i: poly_i(anchor(i))."""
        return poly_eval(i, self.anchor(i))

    def locate_index(self, n: int) -> tuple[str, int, int, bool]:
        """Map index n to ('top', i, 0, canonical) or ('chain', i, j, canonical).

        With multiplier 1 the anchors and chain slots partition the naturals
        exactly; larger multipliers leave surplus slots, which duplicate the
        nearest chain-top set below them (canonical=False) so the family stays
        total without disturbing any genuine member's minimal index.
        """
        if n == 0:
            return "top", 0, 0, True
        if n < self.anchor(0):
            return "top", 0, 0, False
        i = 0
        while self.anchor(i + 1) <= n:
            i += 1
        a = self.anchor(i)
        if n == a:
            return "top", i, 0, True
        j = n - a - 1
        if j >= self.top(i):
            return "top", i, 0, False
        return "chain", i, j, True

    def top_set(self, i: int) -> SetSpec:
        """Columns 0..top(i)-1 of heights anchor(i) + c, capped by [0, anchor(i)]."""
        return ColumnStack(self.anchor(i), self.top(i), capped=True)

    def chain_set(self, i: int, j: int) -> SetSpec:
        """Columns 0..j of heights anchor(i) + c."""
        return ColumnStack(self.anchor(i), j + 1, capped=False)

    def member(self, n):
        kind, i, j, _ = self.locate_index(n)
        return self.top_set(i) if kind == "top" else self.chain_set(i, j)

    def min_index(self, n):
        kind, i, j, canonical = self.locate_index(n)
        if kind == "top":
            return self.index_of_top(i)
        return n if canonical else self.index_of_chain(i, j)

    def index_of_top(self, i: int) -> int:
        return 0 if i == 0 else self.anchor(i)

    def index_of_chain(self, i: int, j: int) -> int:
        return self.anchor(i) + 1 + j

    def identify(self, top_column: int, greatest: int) -> int | None:
        """The index of the member whose top column and widest base match, or None.

        Chain member (i, j) shows column j and base anchor(i) + j, chain top i
        shows top(i) and anchor(i).  As a(i+1) > a(i) + top(i), no two match.
        """
        i = 0
        while self.anchor(i) < greatest - top_column:
            i += 1
        if self.anchor(i) == greatest - top_column and top_column < self.top(i):
            return self.index_of_chain(i, top_column)
        while self.anchor(i) < greatest:
            i += 1
        if self.anchor(i) == greatest and self.top(i) == top_column:
            return self.index_of_top(i)
        return None

    def chain_indices(self, i: int) -> list[int]:
        """Indices of the strict chain below anchor i, top set last."""
        out = [self.index_of_chain(i, j) for j in range(self.top(i))]
        out.append(self.index_of_top(i))
        return out


def make_csd() -> CsdFamily:
    return CsdFamily(1)


# ---------------------------------------------------------------------------
# merged family: chain sets on even indices, descriptor sets on odd


# Index 2t+1 <= 3t of the merged family holds descriptor member t, so its trap
# is stretched by 3.
MERGED_STRETCH = 3


class MergedFamily(IndexedFamily):
    """Interleaves tripled-constant chain sets with marker-trapped descriptors.

    Index 2i holds member i of the multiplier-3 chain family, index 2i+1 member i
    of a descriptor family whose trap is stretched to these indices.  Every
    even-index member contains 0 (column 0 always holds pair(0,0)); no
    odd-index member does (descriptor elements decode with unit tag).
    """

    def __init__(self, registry: dict[int, Learner], m_id: int, p_code: int):
        self.descriptors = MsdFamily(registry, m_id, p_code, MERGED_STRETCH)
        self.chains = CsdFamily(3)

    def member(self, n):
        if n % 2 == 1:
            return self.descriptors.member(n // 2)
        return self.chains.member(n // 2)

    def min_index(self, n):
        if n % 2 == 0:
            return 2 * self.chains.min_index(n // 2)
        return n


def make_merged(registry: dict[int, Learner], m_id: int, p_code: int) -> MergedFamily:
    return MergedFamily(registry, m_id, p_code)


# ---------------------------------------------------------------------------
# trap family for the characteristic-sample separation


# The trap at every k but the attacked pair's: resolved, with no core and no decoys.
_NO_TRAP = adversary.TrapSets(frozenset(), frozenset(), resolved=True)


class PcsFFamily(IndexedFamily):
    """Even indices: dyadic intervals; odd indices: trap-set members.

    Odd index 2k+1 holds the decoy set plus the interval's left endpoint when
    k is k* = <m, p>, the attacked (learner, polynomial) pair; otherwise just
    the left endpoint.  k*'s trap is searched at construction when k* <= ``max_k``;
    the search steps the learner, so it must then be a step learner.
    """

    def __init__(
        self,
        registry: dict[int, Learner],
        m_id: int,
        p_code: int,
        *,
        max_k: int,
    ):
        registry[m_id]  # unregistered ids fail here
        self.p_code = p_code
        self.max_k = max_k
        self.k_star = pair(m_id, p_code)
        self.trap: adversary.TrapSets | None = None
        if self.k_star <= max_k:
            self.trap = adversary.search_trap_sets(registry, m_id, p_code, self.k_star)

    def member(self, n):
        k = n // 2
        interval = adversary.trap_interval(k)
        if n % 2 == 0:
            return interval
        if k != self.k_star:
            return FiniteSet({interval.lo})
        trap = self.trap_sets(k)
        if not trap.resolved:
            raise UnresolvedIndexError(f"trap search for k={k} exhausted its budget")
        return FiniteSet(set(trap.decoys) | {interval.lo})

    def min_index(self, n):
        return n

    def trap_sets(self, k: int) -> adversary.TrapSets:
        if not 0 <= k <= self.max_k:
            raise UnresolvedIndexError(f"trap sets for k={k} were never searched")
        return self.trap if k == self.k_star else _NO_TRAP


def make_pcs_f(
    registry: dict[int, Learner],
    m_id: int,
    p_code: int,
    *,
    max_k: int,
) -> PcsFFamily:
    return PcsFFamily(registry, m_id, p_code, max_k=max_k)


# ---------------------------------------------------------------------------
# the size-2 characteristic sample family


def decompose_offset_power(n: int) -> tuple[int, int]:
    """Unique (i, k) with n = i + 2**k and 1 <= i <= 2**k; needs n >= 2."""
    if n < 2:
        raise UnknownIndexError(f"{n} has no offset-power decomposition")
    k = 0
    while 2 ** (k + 1) < n:
        k += 1
    i = n - 2**k
    assert 1 <= i <= 2**k
    return i, k


class Thm64Family(IndexedFamily):
    """Even indices join {n} with [0, 2^n]; odd indices join the decomposition."""

    def member(self, n):
        if n % 2 == 0:
            half = n // 2
            return Join(FiniteSet({half}), Interval(0, 2**half))
        i, k = decompose_offset_power(n // 2)  # raises for indices 1 and 3
        return Join(FiniteSet({k}), Interval(0, i))

    def min_index(self, n):
        if n % 2 == 0:
            return n
        i, k = decompose_offset_power(n // 2)
        if i == 2**k:
            return 2 * k
        return n


def make_thm64_g() -> Thm64Family:
    return Thm64Family()


# ---------------------------------------------------------------------------
# halting-style pair family


class HaltingFamily(IndexedFamily):
    """Pairs {2i} / {2i, 2i+1} under a parameter set W, with tower aliases.

    Index 2i+1 holds {2i}, plus 2i+1 when i is in W; towers 2^(2^i) always
    hold the pair.  Other even indices are empty and refused as targets.
    ``member`` is the limit of the enumeration ``member_at_stage``, in which
    each i of W enters at stage i + 1.
    """

    def __init__(self, parameter_set):
        self.parameter_set = frozenset(parameter_set)

    @staticmethod
    def tower_exponent(n: int) -> int | None:
        """i when n == 2^(2^i), else None."""
        if n < 2 or n & (n - 1):
            return None
        e = n.bit_length() - 1
        if e & (e - 1):
            return None
        return e.bit_length() - 1

    def member_at_stage(self, n: int, stage: int) -> FiniteSet:
        if n % 2 == 1:
            i = n // 2
            content = {2 * i}
            if i in self.parameter_set and i < stage:
                content.add(2 * i + 1)
            return FiniteSet(content)
        i = self.tower_exponent(n)
        if i is None:
            raise EmptyTargetError(f"index {n} codes the empty set")
        return FiniteSet({2 * i, 2 * i + 1})

    def member(self, n):
        # slot i = n // 2 is settled from stage i + 1 on
        return self.member_at_stage(n, n // 2 + 1)

    def min_index(self, n):
        content = self.member(n).elements
        i = min(content) // 2
        if len(content) == 1 or i in self.parameter_set:
            return 2 * i + 1
        return 2 ** (2**i)


def make_halting_family(parameter_set) -> HaltingFamily:
    return HaltingFamily(parameter_set)
