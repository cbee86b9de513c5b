"""Lower-bound constructions: query-ceiling measurement, trap sets, forcing.

Everything here is explicitly budgeted and reports whether a search was
exhaustive or sampled; verdicts are reproducible from the same seed and
budgets.  The attacked learner is a plain ``session.Learner``: ``compute_q``
takes it directly, ``msd_defeat`` reads it from the family built to defeat
it, ``search_trap_sets`` looks it up by id in a registry dict and steps it,
and ``chain_force`` steps it, so those two need a step learner.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .codec import encode_tuple, poly_eval
from .evaluate import _walk_covering_words, hypothesis_correct
from .session import (
    Budget,
    Learner,
    Query,
    answer_query,
    resolve_step,
    run_on_sequence,
    run_session,
    step_through,
)
from .sets import FiniteSet, Interval, set_equal
from .text import Text, make_text


# Tick budget of one ``compute_q`` marker run; read at call time.
COMPUTE_Q_MAX_ACTIONS = 200_000
# Every element a chain-forcing extension may use lies below this bound.
CHAIN_FORCE_UNIVERSE = 4096
# Raw positions a defeat session reads past the marker prefix.
DEFEAT_HORIZON_SLACK = 64
# Budgets of ``search_trap_sets``, read at call time: the most candidate cores
# tried, the most orders of a core walked exhaustively (8! = 40,320 fits, 9!
# does not), and the seeded orders stepped through per core past that.
TRAP_MAX_CANDIDATES = 2_000
TRAP_ARRANGEMENT_LIMIT = 100_000
TRAP_SAMPLE_SIZE = 10_000


def marker_element(j: int) -> int:
    """The j-th marker code: encode_tuple([2j, 1, 1, 0]), a descriptor element."""
    return encode_tuple([2 * j, 1, 1, 0])


def marker_stream(ell: int) -> tuple[tuple[int, int]]:
    """Marker-only prefix: one run of the base marker ``marker_element(0)``, ``ell`` long."""
    return ((marker_element(0), ell),)


def compute_q(learner: Learner, ell: int) -> int:
    """Greatest value the learner queries on any prefix of the marker stream.

    The learner runs against the marker-set oracle; since it is deterministic,
    one run over the full stream visits the states of every prefix.  Returns 0
    when it never queries.  A learner whose run reaches the tick budget,
    ``COMPUTE_Q_MAX_ACTIONS``, is ineligible (``ActionBudgetExceeded``
    propagates); each read costs a tick, so no run reads past that many
    markers, and the stream stops there.
    """
    oracle = FiniteSet({marker_element(0)})
    stream = itertools.repeat(marker_element(0), min(ell, COMPUTE_Q_MAX_ACTIONS))
    run = run_on_sequence(learner, stream, oracle=oracle, max_actions=COMPUTE_Q_MAX_ACTIONS)
    return max((x for x, _ in run.queries), default=0)


# ---------------------------------------------------------------------------
# repeated-prefix texts


def repeat_prefix_texts(
    family, index_a: int, index_b: int, x: int, p_code: int
) -> tuple[Text, Text]:
    """Texts of two overlapping members sharing the prefix x^(p(a)+p(b)).

    Any deterministic learner emits the same hypothesis at the end of the
    shared prefix on both texts, so that hypothesis is wrong for at least one
    of the two targets.
    """
    set_a = family.member(index_a)
    set_b = family.member(index_b)
    if not (set_a.contains(x) and set_b.contains(x)):
        raise ValueError(f"{x} is not common to both targets")
    if set_equal(set_a, set_b):
        raise ValueError("targets must be distinct sets")
    a = family.min_index(index_a)
    b = family.min_index(index_b)
    prefix = ((x, poly_eval(p_code, a) + poly_eval(p_code, b)),)
    return (
        make_text("prefixed", set_a, prefix=prefix),
        make_text("prefixed", set_b, prefix=prefix),
    )


# ---------------------------------------------------------------------------
# mind-change forcing along a chain


@dataclass
class ChainForceResult:
    status: str  # forced | failure-witness | inconclusive
    prefix: list[int]
    forced_mind_changes: int = 0
    witness_index: int | None = None
    details: dict = field(default_factory=dict)


def _emission_changes(emissions: list[int]) -> int:
    return sum(1 for a, b in zip(emissions, emissions[1:]) if a != b)


def chain_force(
    learner: Learner,
    teacher_factory,
    chain: list[int],
    family,
    *,
    max_ext_len: int = 3,
    max_candidates: int = 20_000,
) -> ChainForceResult:
    """Grow one prefix on which a data-driven learner endorses each chain member.

    ``chain`` lists family indices of strictly increasing sets.  For each
    member in turn, extensions over that member's elements are searched in
    deterministic order until the learner's output codes the member; if the
    search space is exhausted the member is returned as a failure witness,
    and if the candidate budget runs out first the verdict is inconclusive.
    Extensions draw on the member's elements below ``CHAIN_FORCE_UNIVERSE``.

    The learner must be made by ``Learner.from_step`` (``TypeError``
    otherwise).  It is stepped, never run: each extension is stepped from its
    state and emissions after the prefix, and with ``teacher_factory`` over
    what a fresh teacher, fed the prefix first, passes on from the extension.
    """
    if learner.step is None:
        raise TypeError(f"learner {learner.name} has no step for a chain search")
    sigma: list[int] = []
    state = learner.start
    emissions = [] if learner.first is None else [learner.first]
    checked = 0
    for position, index in enumerate(chain):
        member = family.member(index)
        alphabet = member.elements_up_to(CHAIN_FORCE_UNIVERSE)
        found = False
        budget_hit = False
        # The verdict depends only on (output, index): judge each output once.
        verdicts: dict[int, bool] = {}
        for length in range(1, max_ext_len + 1):
            for ext in itertools.product(alphabet, repeat=length):
                checked += 1
                if checked > max_candidates:
                    budget_hit = True
                    break
                items = ext
                if teacher_factory is not None:
                    teacher = teacher_factory()
                    for datum in sigma:
                        teacher.on_input(datum)
                    items = [item for datum in ext for item in teacher.on_input(datum)]
                after, emitted = state, []
                for item in items:
                    after, hypothesis = resolve_step(learner, after, item, None)
                    if hypothesis is not None:
                        emitted.append(hypothesis)
                output = emitted[-1] if emitted else (emissions[-1] if emissions else None)
                if output is None:
                    continue
                if output not in verdicts:
                    verdicts[output] = hypothesis_correct(family, output, index, member)
                if verdicts[output]:
                    sigma += ext
                    state = after
                    emissions += emitted
                    found = True
                    break
            if found or budget_hit:
                break
        if not found:
            status = "inconclusive" if budget_hit else "failure-witness"
            return ChainForceResult(
                status=status,
                prefix=sigma,
                witness_index=index,
                details={"chain_position": position, "candidates_checked": checked},
            )
    return ChainForceResult(
        status="forced",
        prefix=sigma,
        forced_mind_changes=_emission_changes(emissions),
        details={"candidates_checked": checked, "emissions": emissions},
    )


# ---------------------------------------------------------------------------
# defeat of oracle learners on marker-trapped descriptor families


@dataclass
class DefeatReport:
    learner_name: str
    index_pair: tuple[int, int]
    prefix_length: int
    query_ceiling: int
    transcripts_identical: bool
    shared_hypothesis: int | None
    wrong_for: list[int]
    events_compared: int


def _event_prefix_within(transcript, element_limit: int):
    """Events up to (and excluding) consumption of element number limit+1."""
    consumed = 0
    out = []
    for event in transcript.events:
        if event.kind in ("read", "skip"):
            consumed += 1
            if consumed > element_limit:
                break
        out.append(event)
    return out


def msd_defeat(family):
    """Run an oracle learner against its own trap family.

    ``family`` is the ``MsdFamily`` that ``families.make_msd`` builds; it
    holds the attacked learner, so the defeat always runs the learner its
    trap was built against.  It is taken built, since ``families`` builds on
    this module.  Both targeted members agree with the marker set everywhere
    the learner can query while reading only markers, so on texts prefixed
    with the family's marker stream the two transcripts coincide through the
    whole prefix and the hypothesis held there is wrong for at least one
    target.
    """
    learner = family.learner
    n0, n1 = family.targeted
    ell = family.ell
    prefix = marker_stream(ell)
    horizon = ell + DEFEAT_HORIZON_SLACK

    transcripts = []
    for index in (n0, n1):
        target = family.member(index)
        text = make_text("prefixed", target, prefix=prefix)
        budget = Budget(max_ticks=10 * horizon + 10_000, horizon=horizon, window=1)
        transcripts.append(run_session(learner, text, oracle=target, budget=budget))

    prefix_events = [_event_prefix_within(t, ell) for t in transcripts]
    identical = prefix_events[0] == prefix_events[1]

    shared_hypothesis = None
    for event in prefix_events[0]:
        if event.kind == "emit":
            shared_hypothesis = event.payload[0]
    wrong_for = []
    for index in (n0, n1):
        if shared_hypothesis is None or not hypothesis_correct(family, shared_hypothesis, index):
            wrong_for.append(index)

    report = DefeatReport(
        learner_name=learner.name,
        index_pair=(n0, n1),
        prefix_length=ell,
        query_ceiling=family.query_ceiling,
        transcripts_identical=identical,
        shared_hypothesis=shared_hypothesis,
        wrong_for=wrong_for,
        events_compared=min(len(prefix_events[0]), len(prefix_events[1])),
    )
    return report, transcripts


# ---------------------------------------------------------------------------
# trap sets for the characteristic-sample separation


@dataclass
class TrapSets:
    trap_core: frozenset[int]  # E: covered by an adversarial prefix
    decoys: frozenset[int]  # D: core plus the learner's first queried members
    resolved: bool
    stats: dict = field(default_factory=dict)


def trap_interval(k: int) -> Interval:
    return Interval(2 ** (2 * k + 1) + 1, 2 ** (2 * k + 2))


def _sampled_arrangements(core: Sequence[int], count: int, rng: random.Random):
    """``count`` seeded orders of ``core``, lazily: the stream of
    ``rng.sample(core, len(core))``, at one ``getrandbits`` per position.

    A full-length sample takes ``sample``'s pool path: position i draws j
    below m = n - i (``r = getrandbits(m.bit_length())`` until ``r < m``, as
    ``random.Random`` draws below m), takes ``pool[j]`` and moves the last
    unchosen element into its place.  The last position draws below 1 too,
    since ``sample`` spends bits there.  The per-position bounds are listed
    once per call, so a search draws every order from one call.
    """
    bits = rng.getrandbits
    n = len(core)
    draws = [(i, n - i, (n - i).bit_length()) for i in range(n)]
    for _ in range(count):
        pool = list(core)
        arrangement = [0] * n
        for i, m, k in draws:
            while (j := bits(k)) >= m:
                pass
            arrangement[i] = pool[j]
            pool[j] = pool[m - 1]
        yield arrangement


def _prefix_shared_outputs(learner: Learner, oracle):
    """``step_through(learner, word, oracle)`` as a function of ``word``, with the data it steps.

    Each word is stepped from the longest prefix it shares with the word
    stepped before it, ``held``: a stack holds ``(state, last hypothesis)``
    at the start and after each datum of ``held``, and is cut back to the
    shared prefix before the rest of the word is stepped.  A step that
    raises leaves ``held`` the shared prefix, which the stack still holds.
    Consecutive cores in lexicographic order differ mostly in their last
    elements, so a search over them steps about one datum per core, not a
    core's length.
    """
    step = learner.step
    stack = [(learner.start, learner.first)]
    held: tuple[int, ...] = ()

    def output(word: Sequence[int]) -> tuple[int | None, int]:
        nonlocal held
        word = tuple(word)
        shared = min(len(word), len(held))
        while word[:shared] != held[:shared]:
            shared -= 1
        del stack[shared + 1 :]
        held = word[:shared]
        state, last = stack[-1]
        for datum in word[shared:]:
            state, hypothesis = step(state, datum)
            if type(hypothesis) is Query:
                state, hypothesis = answer_query(learner, state, hypothesis, oracle)
            if hypothesis is not None:
                last = hypothesis
            stack.append((state, last))
        held = word
        return last, len(word) - shared

    return output


def search_trap_sets(
    registry: dict[int, Learner],
    m_id: int,
    p_code: int,
    k: int,
    *,
    seed: int = 0,
) -> TrapSets:
    """Find a core set the step learner mistakes for the whole interval.

    A candidate core E (left endpoint forced in, size p(2k+1)+1) passes when
    the learner, with the interval as its oracle, answers the even index after
    consuming any covering arrangement; a covering arrangement of length at
    most p(2k+1)+1 over distinct interval elements is exactly a permutation
    of E.  Decoys D extend E with the first p(2k+1) interval members the
    learner queries while reading E in increasing order, padded with the
    least unused interval elements.

    The learner must be made by ``Learner.from_step`` (``TypeError``
    otherwise, before any candidate is tried), and the interval answers its
    queries.  The orders of a core are its covering words over universe =
    sample = core of length |core|, so the memoized covering-word walk
    (``evaluate._walk_covering_words``) decides a core once its own order,
    stepped flat, ends on 2k: it passes when no order ends elsewhere.  The
    candidates come in lexicographic order, so each one's own order is
    stepped from the longest prefix it shares with the last one stepped
    flat (``_prefix_shared_outputs``).  With at most
    ``TRAP_ARRANGEMENT_LIMIT`` orders the walk decides every core; past the
    limit a core is stepped through ``TRAP_SAMPLE_SIZE`` seeded orders,
    drawn lazily from one stream of orders of a core's positions that the
    candidates share, unless the first one ends on 2k and the walk, within
    the sample's cost, passes every order and so every drawn one.  The decoy
    run is the one program run; ``stats["steps"]`` counts the data stepped
    before it.  Past ``TRAP_MAX_CANDIDATES`` candidates the search returns
    unresolved with ``stats["exhausted_budget"]``.
    """
    learner = registry[m_id]
    if learner.step is None:
        raise TypeError(f"learner {learner.name} has no step for a trap search")
    interval = trap_interval(k)
    # 2^(2k+1) elements, of which the search reads only the least few
    elements = range(interval.lo, interval.hi + 1)
    lo = interval.lo
    pk = poly_eval(p_code, 2 * k + 1)
    core_size = pk + 1
    decoy_size = 2 * pk + 1

    stats = {
        "k": k,
        "interval": [interval.lo, interval.hi],
        "poly_at_odd_index": pk,
        "candidates_checked": 0,
        "steps": 0,
    }

    perm_count = math.factorial(core_size)
    exhaustive = perm_count <= TRAP_ARRANGEMENT_LIMIT
    stats["exhaustive_arrangements"] = exhaustive
    stats["arrangements_per_candidate"] = perm_count if exhaustive else TRAP_SAMPLE_SIZE
    flat_output = _prefix_shared_outputs(learner, interval)
    # one stream of orders of a core's positions, drawn as the candidates need them: each
    # candidate checked draws at most TRAP_SAMPLE_SIZE of them
    rng = random.Random(seed)
    most = TRAP_SAMPLE_SIZE * TRAP_MAX_CANDIDATES
    positions = None if exhaustive else _sampled_arrangements(range(core_size), most, rng)

    def every_order_ends_on_2k(core: tuple[int, ...], max_steps=math.inf) -> bool:
        # the core's own order, the walk's first word, is stepped flat first: most failing
        # cores fail there, without a memo; a walk that passes takes n·2^(n−1) steps
        n = len(core)
        if n * 2 ** (n - 1) > max_steps:
            return False
        output, stepped = flat_output(core)
        stats["steps"] += stepped
        if output != 2 * k:
            return False
        _, locked, bad, _, stepped = _walk_covering_words(
            learner, core, core, n, interval, max_steps
        )
        stats["steps"] += stepped
        return bad is None and locked == 2 * k

    def drawn_order_ends_on_2k(core: tuple[int, ...], order: list[int]) -> bool:
        stats["steps"] += core_size
        return step_through(learner, [core[i] for i in order], interval) == 2 * k

    def candidate_passes(core: tuple[int, ...]) -> bool:
        if exhaustive:
            return every_order_ends_on_2k(core)
        orders = itertools.islice(positions, TRAP_SAMPLE_SIZE)
        ends_on = (drawn_order_ends_on_2k(core, order) for order in orders)
        if not all(itertools.islice(ends_on, 1)):
            return False
        walked = every_order_ends_on_2k(core, (TRAP_SAMPLE_SIZE - 1) * core_size)
        return walked or all(ends_on)

    # In lexicographic order the first TRAP_MAX_CANDIDATES + 1 combinations of
    # r elements use only the first r + TRAP_MAX_CANDIDATES of them.
    pool = elements[1 : core_size + TRAP_MAX_CANDIDATES]
    for checked, combo in enumerate(itertools.combinations(pool, core_size - 1), 1):
        stats["candidates_checked"] = checked
        if checked > TRAP_MAX_CANDIDATES:
            stats["exhausted_budget"] = "max_candidates"
            return TrapSets(frozenset(), frozenset(), resolved=False, stats=stats)
        found = (lo,) + combo
        if candidate_passes(found):
            break
    else:
        return TrapSets(frozenset(), frozenset(), resolved=True, stats=stats)
    # decoys: core plus first pk interval members queried on the increasing core, in the
    # most ticks a derived program takes: a read, a query and an emit per datum, one more read
    run = run_on_sequence(learner, sorted(found), oracle=interval, max_actions=3 * core_size + 1)
    queried_members: list[int] = []
    for x, _answer in run.queries:
        if interval.contains(x) and x not in queried_members:
            queried_members.append(x)
        if len(queried_members) == pk:
            break
    decoys = set(found) | set(queried_members)
    for x in elements:
        if len(decoys) >= decoy_size:
            break
        decoys.add(x)
    if len(decoys) != decoy_size:
        stats["decoy_padding_failed"] = True
        return TrapSets(frozenset(found), frozenset(), resolved=False, stats=stats)
    return TrapSets(frozenset(found), frozenset(decoys), resolved=True, stats=stats)


def make_chain_chaser(family, chain: list[int]) -> Learner:
    """Scripted data-driven step learner that endorses the least consistent chain member.

    Emits 0 before any data, then after each datum the first chain index
    whose member contains everything seen so far.  Against a strict chain
    this is exactly the mind-change ladder the forcing search exploits.
    Its state is the chain positions whose members hold every datum so far,
    in chain order, and it tests each new datum against those alone.
    """
    members = [family.member(index) for index in chain]

    def step(consistent, datum):
        consistent = tuple(i for i in consistent if members[i].contains(datum))
        return consistent, (chain[consistent[0]] if consistent else None)

    everywhere = tuple(range(len(chain)))
    return Learner.from_step("chain-chaser", everywhere, step, "one tick per action", first=0)
