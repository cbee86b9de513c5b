import pytest

from txtex_lab import adversary, families
from txtex_lab.agents import build_default_registry
from txtex_lab.codec import encode_tuple, pair, poly_encode, unpair
from txtex_lab.descriptor import described_number, validate_descriptor
from txtex_lab.sets import FiniteSet, Interval, is_subset, set_equal


@pytest.fixture(scope="module")
def registry():
    return build_default_registry()


P_LIN = poly_encode([0, 1])  # p(x) = x


def test_pair_intervals_member():
    family = families.make_basic_family("pair-intervals")
    assert list(family.member(encode_tuple([2, 5])).iter_increasing()) == [2, 3, 4, 5]
    assert family.min_index(encode_tuple([2, 5])) == encode_tuple([2, 5])
    # empty intervals all share the least empty code
    assert family.min_index(encode_tuple([3, 1])) == pair(1, 0)


def test_up_intervals_and_pow2():
    up = families.make_basic_family("up-intervals")
    assert up.member(4).contains(4) and not up.member(4).contains(3)
    pow2 = families.make_basic_family("pow2")
    assert list(pow2.member(2).iter_increasing()) == [0, 1, 2, 3, 4]


def test_finite_canonical_member_and_min_index():
    family = families.make_basic_family("finite-canonical")
    index = encode_tuple([2, 5])  # size 2, mask {0,2}
    assert family.member(index).elements == {0, 2}
    assert family.min_index(index) == index
    assert family.index_of_set({0, 2}) == index
    # mismatched size tag: infinite tail, does not equal any finite member
    bad = encode_tuple([1, 5])
    assert family.member(bad) == Interval(bad, None)


def test_tuple_contents_min_index_search():
    family = families.make_basic_family("tuple-contents")
    # indices coding the same 2-element content collapse to the least one
    n = encode_tuple([2, 1])
    dup = encode_tuple([1, 2])
    low, high = sorted((n, dup))
    assert family.min_index(high) == low
    assert family.member(high) == FiniteSet({1, 2})


def test_join_singletons_member():
    family = families.make_basic_family("join-singletons")
    member = family.member(3)
    assert member.contains(6)
    assert all(member.contains(2 * b + 1) for b in range(10))
    assert not member.contains(4)
    # every member holds every odd number
    for n in range(0, 21, 4):
        assert all(family.member(n).contains(2 * b + 1) for b in range(21))


def test_pcs_g_members():
    family = families.make_basic_family("pcs-G")
    assert family.member(0) == Interval(0, None)
    assert list(family.member(5).iter_increasing()) == [0, 1, 2, 3, 4, 5]
    assert family.min_index(0) == 0 and family.min_index(5) == 5


def test_msd_family_members_describe_index(registry):
    family = families.make_msd(registry, 0, P_LIN)
    for n in range(0, 60, 7):
        elements = family.member(n).elements
        assert validate_descriptor(elements)
        assert described_number(elements) == n
        assert family.min_index(n) == n


def test_msd_marker_trap_property(registry):
    family = families.make_msd(registry, 0, P_LIN)
    for index in family.targeted:
        member = family.member(index)
        below = {x for x in member.elements if x <= family.floor}
        assert below == set(family.markers)


def test_msd_rejects_bad_inputs(registry):
    with pytest.raises(LookupError):
        families.make_msd(registry, 99, P_LIN)
    with pytest.raises(ValueError, match="poly must be increasing"):
        families.make_msd(registry, 0, poly_encode([5]))  # constant, not increasing
    with pytest.raises(ValueError, match="^poly \\[99999, 1\\] gives a marker family code above"):
        families.make_msd(registry, 3, poly_encode([99999, 1]))


def test_csd_anchor_table_small_values():
    family = families.make_csd()
    # p0 = p1 = 0, p2 = 1, p3 = 0, p4 = 1, p5 = 2 under the codec scheme
    assert [family.anchor(i) for i in range(7)] == [1, 2, 3, 5, 6, 8, 11]
    assert family.top(2) == 1 and family.top(5) == 2


def test_csd_member_formula_and_index_patch():
    family = families.make_csd()
    # index 0 and the first anchor both code the width-0 stack [0,1]x{0}
    assert set_equal(family.member(0), family.member(1))
    assert family.min_index(1) == 0
    assert list(family.member(1).iter_increasing()) == [pair(0, 0), pair(1, 0)]


def test_csd_chain_strictly_increasing():
    family = families.make_csd()
    indices = family.chain_indices(5)
    assert indices == [9, 10, 8]
    for lower, upper in zip(indices, indices[1:]):
        assert is_subset(family.member(lower), family.member(upper))
        assert not set_equal(family.member(lower), family.member(upper))


def _scan_locations(rows, top_column, greatest):
    """Every location whose top column and widest base match, over (anchor, top) rows."""
    candidates = []
    for idx, (a, top) in enumerate(rows):
        if a == greatest and top == top_column:
            candidates.append(("top", idx, 0))
        j = greatest - a
        if 0 <= j < top and j == top_column:
            candidates.append(("chain", idx, j))
    return candidates


def _location_index(family, kind, i, j):
    return family.index_of_top(i) if kind == "top" else family.index_of_chain(i, j)


@pytest.mark.parametrize("multiplier", [1, 3])
def test_csd_identify_is_the_one_scanned_location(multiplier):
    family = families.CsdFamily(multiplier)
    rows = []
    while not rows or rows[-1][0] < 2000:
        rows.append((family.anchor(len(rows)), family.top(len(rows))))
    kinds = []
    for greatest in range(2000):
        for top_column in range(20):
            candidates = _scan_locations(rows, top_column, greatest)
            assert len(candidates) <= 1, (top_column, greatest)
            expected = [_location_index(family, *location) for location in candidates]
            assert family.identify(top_column, greatest) == (expected or [None])[0]
            kinds += [kind for kind, _, _ in candidates]
    # the sweep meets chain members and tops, several of each
    assert kinds.count("top") > 10 and kinds.count("chain") > 10


def test_merged_family_parity_discriminator(registry):
    family = families.make_merged(registry, 0, P_LIN)
    for i in range(11):
        assert family.member(2 * i).contains(0)
        assert not family.member(2 * i + 1).contains(0)
    assert family.min_index(2 * 1) == 2 * family.chains.min_index(1)


def test_pcs_f_members(registry):
    family = families.make_pcs_f(registry, 1, poly_encode([0]), max_k=2)
    assert list(family.member(0).iter_increasing()) == [3, 4]
    # k=1 decodes to (learner 1, poly 0): trap resolved with singleton core
    trap = family.trap_sets(1)
    assert trap.resolved and trap.trap_core == {9}
    assert family.member(3) == FiniteSet({9})
    assert len(family.member(3).elements) <= 2 * 0 + 2


def test_pcs_f_unmatched_odd_indices_are_singletons(registry):
    family = families.make_pcs_f(registry, 1, poly_encode([0]), max_k=2)
    assert family.member(5) == FiniteSet({adversary.trap_interval(2).lo})


def test_pcs_f_unresolved_when_budget_exhausted(registry, monkeypatch):
    monkeypatch.setattr(adversary, "TRAP_MAX_CANDIDATES", 0)
    family = families.make_pcs_f(registry, 1, poly_encode([0]), max_k=1)
    assert not family.trap_sets(1).resolved
    with pytest.raises(families.UnresolvedIndexError):
        family.member(3)


class PerKTrapFamily:
    """The trap family as it was: one trap per k <= max_k, a placeholder where unpair(k) misses."""

    def __init__(self, registry, m_id, p_code, *, max_k):
        registry[m_id]
        self.m_id, self.p_code = m_id, p_code
        self.traps = {}
        for k in range(max_k + 1):
            if unpair(k) == (m_id, p_code):
                self.traps[k] = adversary.search_trap_sets(registry, m_id, p_code, k)
            else:
                self.traps[k] = adversary.TrapSets(
                    frozenset(), frozenset(), resolved=True, stats={"matched": False, "k": k}
                )

    def member(self, n):
        k = n // 2
        lo = adversary.trap_interval(k).lo
        if n % 2 == 0:
            return adversary.trap_interval(k)
        if k not in self.traps:
            if unpair(k) == (self.m_id, self.p_code):
                raise families.UnresolvedIndexError(f"trap sets for k={k} were never searched")
            return FiniteSet({lo})
        trap = self.traps[k]
        if not trap.resolved:
            raise families.UnresolvedIndexError(f"trap search for k={k} exhausted its budget")
        return FiniteSet(set(trap.decoys) | {lo})

    def trap_sets(self, k):
        if k not in self.traps:
            raise families.UnresolvedIndexError(f"trap sets for k={k} were never searched")
        return self.traps[k]


def _outcome(call):
    """What a call gives: its value (a trap without its stats), or its exception's type and text."""
    try:
        value = call()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    if isinstance(value, adversary.TrapSets):
        return value.trap_core, value.decoys, value.resolved
    return value


def test_pcs_f_one_trap_matches_the_per_k_loop(registry, monkeypatch):
    """Only k* = <m, p> is searched, and the family answers as the per-k loop did.

    The search is stubbed: resolved when m + p is even, so both a resolved and
    an unresolved trap sit at k* <= max_k for some (m, p).
    """
    calls = []

    def search(registry, m_id, p_code, k):
        calls.append((m_id, p_code, k))
        lo = adversary.trap_interval(k).lo
        core = frozenset({lo})
        return adversary.TrapSets(core, core | {lo + 1 + p_code}, (m_id + p_code) % 2 == 0)

    monkeypatch.setattr(adversary, "search_trap_sets", search)
    searched = set()
    for m_id in range(5):
        for p_code in range(4):
            for max_k in range(5):
                calls.clear()
                reference = PerKTrapFamily(registry, m_id, p_code, max_k=max_k)
                expected_calls = list(calls)
                calls.clear()
                family = families.make_pcs_f(registry, m_id, p_code, max_k=max_k)
                assert calls == expected_calls
                searched.update(calls)
                for n in range(2 * max_k + 4):
                    assert _outcome(lambda: family.member(n)) == _outcome(
                        lambda: reference.member(n)
                    ), (m_id, p_code, max_k, n)
                for k in range(max_k + 2):
                    assert _outcome(lambda: family.trap_sets(k)) == _outcome(
                        lambda: reference.trap_sets(k)
                    ), (m_id, p_code, max_k, k)
                others = [family.trap_sets(k) for k in range(max_k + 1) if k != family.k_star]
                assert all(trap is others[0] for trap in others)  # one shared trap
    # k* <= 4 for (0, 0), (1, 0), (0, 1), (2, 0) and (1, 1); two of them unresolved
    assert {(m, p) for m, p, _ in searched} == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)}


def test_thm64_members_and_collisions():
    family = families.make_thm64_g()
    member6 = family.member(6)
    assert member6.contains(6)
    assert {x for x in member6.elements_up_to(17) if x % 2 == 1} == set(range(1, 18, 2))
    # decomposition of 6 is i=2, k=2
    assert families.decompose_offset_power(6) == (2, 2)
    # collision: i_n = 2^{k_n} makes the odd index duplicate an even one
    n = 4  # 4 = 2 + 2 -> i=2, k=1, i == 2^k
    assert family.min_index(2 * n + 1) == 2 * 1
    assert set_equal(family.member(2 * n + 1), family.member(2))


def test_thm64_rejects_undecomposable_indices():
    family = families.make_thm64_g()
    with pytest.raises(families.UnknownIndexError):
        family.member(1)
    with pytest.raises(families.UnknownIndexError):
        family.member(3)


def test_halting_family_members():
    empty = families.make_halting_family(set())
    assert empty.member(3) == FiniteSet({2})
    with_one = families.make_halting_family({1})
    assert with_one.member(3) == FiniteSet({2, 3})
    assert with_one.member(16) == FiniteSet({4, 5})
    with pytest.raises(families.EmptyTargetError):
        with_one.member(6)


def test_halting_min_index():
    family = families.make_halting_family({1})
    assert family.min_index(3) == 3  # {2,3} first appears at 3 when 1 is in the set
    absent = families.make_halting_family(set())
    assert absent.min_index(16) == 16  # pair only at the tower when 2 is absent


def test_halting_staged_monotone():
    family = families.make_halting_family({0, 3, 4})
    for n in (1, 3, 7, 9, 16):
        snaps = [family.member_at_stage(n, s).elements for s in range(10)]
        for earlier, later in zip(snaps, snaps[1:]):
            assert earlier <= later
        assert snaps[-1] == family.member(n).elements
    # i enters W at stage i + 1
    assert [len(family.member_at_stage(7, s).elements) for s in range(6)] == [1] * 4 + [2] * 2


