import itertools
import random

import pytest

from txtex_lab import adversary, agents, families, session
from txtex_lab.codec import poly_encode, poly_eval
from txtex_lab.evaluate import hypothesis_correct
from txtex_lab.session import (
    ActionBudgetExceeded,
    Learner,
    Query,
    Read,
    compose_pair,
    query,
    run_on_sequence,
)
from txtex_lab.sets import set_equal


@pytest.fixture(scope="module")
def registry():
    return agents.build_default_registry()


P_LIN = poly_encode([0, 1])


def test_marker_streams():
    assert adversary.marker_stream(3) == ((adversary.marker_element(0), 3),)
    assert adversary.marker_stream(0) == ((adversary.marker_element(0), 0),)


def test_compute_q_reads_no_further_than_its_budget(registry, monkeypatch):
    """The stream stops at the action budget, which no run reads past."""
    lengths = []

    def recorded_run(learner, sequence, **options):
        sequence = list(sequence)
        lengths.append(len(sequence))
        return run_on_sequence(learner, sequence, **options)

    monkeypatch.setattr(adversary, "run_on_sequence", recorded_run)
    assert adversary.compute_q(registry[3], 10**12) == adversary.compute_q(registry[3], 10)
    assert lengths == [adversary.COMPUTE_Q_MAX_ACTIONS, 10]

    def reader():
        while True:
            yield Read()

    monkeypatch.setattr(adversary, "COMPUTE_Q_MAX_ACTIONS", 40)
    assert adversary.compute_q(Learner("reader", reader), 39) == 0  # the 40th action reads past
    assert adversary.compute_q(stepped_prober(), 19) == 3 * 19  # 19 reads and 19 queries
    learners = [Learner("reader", reader), stepped_prober()]
    for learner, ell in itertools.product(learners, [40, 10**12]):
        with pytest.raises(ActionBudgetExceeded):
            adversary.compute_q(learner, ell)


def test_compute_q_never_queries(registry):
    assert adversary.compute_q(registry[0], 10) == 0


def stepped_prober():
    """Queries 3t after its t-th read."""

    def program():
        t = 0
        while True:
            yield Read()
            t += 1
            yield Query(3 * t)

    return Learner("stepped-prober", program)


def test_compute_q_scripted_learner():
    learner = stepped_prober()
    assert adversary.compute_q(learner, 4) == 12
    values = [adversary.compute_q(learner, ell) for ell in range(1, 51)]
    assert values == sorted(values)


def test_compute_q_budget_error_carries_partial_ceiling(monkeypatch):
    def program():
        x = 0
        while True:
            x += 5
            yield Query(x)  # never reads, queries forever

    monkeypatch.setattr(adversary, "COMPUTE_Q_MAX_ACTIONS", 40)
    with pytest.raises(ActionBudgetExceeded) as exc_info:
        adversary.compute_q(Learner("runaway-prober", program), 3)
    ceiling = max(x for x, _ in exc_info.value.partial.queries)
    assert ceiling == 5 * 40  # one query per budgeted action


def test_repeat_prefix_texts():
    family = families.make_basic_family("finite-canonical")
    index_a = family.index_of_set({0, 2})
    index_b = family.index_of_set({0, 5})
    p_inc = poly_encode([1, 1])  # x + 1
    text_a, text_b = adversary.repeat_prefix_texts(family, index_a, index_b, 0, p_inc)
    expected = (index_a + 1) + (index_b + 1)
    assert text_a.prefix == ((0, expected),) == text_b.prefix

    with pytest.raises(ValueError):
        adversary.repeat_prefix_texts(family, index_a, index_b, 2, p_inc)  # 2 not common
    with pytest.raises(ValueError):
        adversary.repeat_prefix_texts(family, index_a, index_a, 0, p_inc)  # same set


def test_shared_prefix_forces_shared_hypothesis():
    family = families.make_basic_family("finite-canonical")
    index_a = family.index_of_set({0, 2})
    index_b = family.index_of_set({0, 5})
    text_a, text_b = adversary.repeat_prefix_texts(family, index_a, index_b, 0, poly_encode([1, 1]))
    learner = agents.make_finite_psd_learner()
    [(_, shared)] = text_a.prefix
    run_a = run_on_sequence(learner, itertools.islice(text_a.stream(), shared))
    run_b = run_on_sequence(learner, itertools.islice(text_b.stream(), shared))
    assert run_a.emissions == run_b.emissions
    assert run_a.emissions[-1] == run_b.emissions[-1]


def test_chain_force_success_path():
    family = families.make_csd()
    chain = family.chain_indices(5)[:2]
    chaser = adversary.make_chain_chaser(family, chain)
    result = adversary.chain_force(chaser, None, chain, family)
    assert result.status == "forced"
    assert result.forced_mind_changes == len(chain)
    replay = run_on_sequence(chaser, result.prefix)
    changes = sum(1 for a, b in zip(replay.emissions, replay.emissions[1:]) if a != b)
    assert changes == result.forced_mind_changes


def test_chain_force_single_member_chain():
    family = families.make_csd()
    chain = [family.chain_indices(5)[0]]
    chaser = adversary.make_chain_chaser(family, chain)
    result = adversary.chain_force(chaser, None, chain, family)
    assert result.status == "forced"
    assert result.forced_mind_changes == 1


def test_chain_force_failure_witness():
    family = families.make_csd()
    chain = family.chain_indices(5)[:2]
    learner, teacher_factory = agents.make_msd_pair()
    result = adversary.chain_force(
        learner, teacher_factory, chain, family, max_ext_len=2, max_candidates=500
    )
    assert result.status == "failure-witness"
    assert result.witness_index == chain[0]


def test_chain_force_inconclusive_on_tiny_budget():
    family = families.make_csd()
    chain = family.chain_indices(5)[:2]
    learner, teacher_factory = agents.make_msd_pair()
    result = adversary.chain_force(
        learner, teacher_factory, chain, family, max_ext_len=3, max_candidates=3
    )
    assert result.status == "inconclusive"


def _chain_force_judging_every_output(agent, chain, family, max_ext_len, max_candidates):
    """``chain_force``'s search with each candidate run from scratch by ``run_on_sequence``
    and its output judged afresh.

    ``agent`` is the learner, or its pair composed with ``compose_pair``.
    Returns (status, prefix, witness index, candidates checked, and the
    emissions of a run over a forced prefix, or None).
    """
    sigma, checked = [], 0
    for index in chain:
        member = family.member(index)
        alphabet = member.elements_up_to(adversary.CHAIN_FORCE_UNIVERSE)
        lengths = range(1, max_ext_len + 1)
        for ext in (e for n in lengths for e in itertools.product(alphabet, repeat=n)):
            checked += 1
            if checked > max_candidates:
                return "inconclusive", sigma, index, checked, None
            emissions = run_on_sequence(agent, sigma + list(ext)).emissions
            if emissions and hypothesis_correct(family, emissions[-1], index, member):
                sigma = sigma + list(ext)
                break
        else:
            return "failure-witness", sigma, index, checked, None
    return "forced", sigma, None, checked, run_on_sequence(agent, sigma).emissions


def chain_force_outcome(result):
    """A ``chain_force`` result in the form ``_chain_force_judging_every_output`` returns."""
    details = result.details
    return (
        result.status,
        result.prefix,
        result.witness_index,
        details["candidates_checked"],
        details.get("emissions"),
    )


def _chaser(family, chain):
    return adversary.make_chain_chaser(family, chain), None, 3, 20_000


def _msd_pair(family, chain):
    return *agents.make_msd_pair(), 2, 2000


@pytest.mark.parametrize("anchor,length", [(5, 3), (8, 4)])
@pytest.mark.parametrize("make", [_chaser, _msd_pair], ids=["chaser", "msd-pair"])
def test_chain_force_judging_each_output_once_changes_nothing(anchor, length, make):
    family = families.make_csd()
    chain = family.chain_indices(anchor)[:length]
    assert len(chain) == length
    learner, teacher_factory, max_ext_len, max_candidates = make(family, chain)
    result = adversary.chain_force(
        learner,
        teacher_factory,
        chain,
        family,
        max_ext_len=max_ext_len,
        max_candidates=max_candidates,
    )
    agent = learner if teacher_factory is None else compose_pair(learner, teacher_factory)
    want = _chain_force_judging_every_output(agent, chain, family, max_ext_len, max_candidates)
    assert chain_force_outcome(result) == want


def test_chain_force_judges_each_distinct_output_once_per_member(monkeypatch):
    """816 candidates on the 16-member chain at anchor 12 show 31 distinct (member, output) pairs."""
    calls = []

    def counting(*args):
        calls.append(args[1:3])
        return hypothesis_correct(*args)

    monkeypatch.setattr(adversary, "hypothesis_correct", counting)
    family = families.make_csd()
    chain = family.chain_indices(12)[:16]
    result = adversary.chain_force(adversary.make_chain_chaser(family, chain), None, chain, family)
    assert result.status == "forced" and result.forced_mind_changes == 16
    assert result.details["candidates_checked"] == 816
    assert len(calls) == len(set(calls)) == 31


def test_msd_defeat_reports(registry):
    for m_id in (3, 4):
        family = families.make_msd(registry, m_id, P_LIN)
        report, transcripts = adversary.msd_defeat(family)
        assert report.transcripts_identical
        assert len(report.wrong_for) >= 1
        assert report.prefix_length == report.index_pair[1]  # p(x) = x
        assert len(transcripts) == 2


def test_msd_defeat_constant_learner_wrong_everywhere(registry):
    report, _ = adversary.msd_defeat(families.make_msd(registry, 0, P_LIN))
    assert report.transcripts_identical
    assert set(report.wrong_for) == set(report.index_pair)


def test_msd_family_attacks_the_learner_under_its_id(registry):
    extended = {**registry, 77: stepped_prober()}
    family = families.make_msd(extended, 77, P_LIN)
    assert family.learner is extended[77]
    assert family.query_ceiling == 3 * family.ell  # no default learner queries 3 * ell
    report, _ = adversary.msd_defeat(family)
    assert report.learner_name == "stepped-prober"
    assert report.query_ceiling == family.query_ceiling
    assert report.transcripts_identical
    assert report.events_compared >= 2 * family.ell  # a read and a query per marker


def test_msd_defeat_hypothesis_cannot_code_both(registry):
    family = families.make_msd(registry, 3, P_LIN)
    n0, n1 = family.targeted
    assert not set_equal(family.member(n0), family.member(n1))


def test_search_trap_sets_pass_and_fail(registry):
    passing = adversary.search_trap_sets(registry, 1, poly_encode([0]), 1)
    assert passing.resolved and passing.trap_core == {9}
    assert passing.decoys == {9}

    failing = adversary.search_trap_sets(registry, 2, poly_encode([0]), 1)
    assert failing.resolved and not failing.trap_core and not failing.decoys


def test_search_trap_sets_invariants(registry):
    trap = adversary.search_trap_sets(registry, 1, poly_encode([1]), 1)
    # p(x) = 1: core size 2, decoys size 3, all inside the interval
    interval = adversary.trap_interval(1)
    if trap.resolved and trap.trap_core:
        assert len(trap.trap_core) == 2
        assert len(trap.decoys) == 3
        assert trap.trap_core <= trap.decoys
        assert all(interval.contains(x) for x in trap.decoys)
        assert 9 in trap.trap_core


INTERVAL_K2 = list(range(33, 65))

# (m_id, p coefficients) -> (core, decoys, resolved, candidates_checked) at k=2, seed 0
TRAP_SEARCHES_K2 = {
    (1, (2, 1)): (INTERVAL_K2[:8], INTERVAL_K2[:15], True, 1),
    (1, (3, 1)): (INTERVAL_K2[:9], INTERVAL_K2[:17], True, 1),
    (2, (2, 1)): ([], [], False, 2001),
    (2, (3, 1)): ([], [], False, 2001),
}


def test_search_trap_sets_names_the_exhausted_budget(registry, monkeypatch):
    monkeypatch.setattr(adversary, "TRAP_MAX_CANDIDATES", 0)
    trap = adversary.search_trap_sets(registry, 2, poly_encode([0]), 1)
    assert not trap.resolved and not trap.decoys
    assert trap.stats["exhausted_budget"] == "max_candidates"


def test_search_trap_sets_tries_the_first_cores_of_the_whole_interval(registry, monkeypatch):
    """The candidate pool is a prefix of the interval, yet the cores tried are unchanged."""
    tried = []

    def recording_walk(learner, universe, sample, max_len, oracle, max_steps):
        tried.append(universe)
        return 0, None, None, None  # no word: the core fails

    monkeypatch.setattr(adversary, "_walk_covering_words", recording_walk)
    monkeypatch.setattr(adversary, "TRAP_MAX_CANDIDATES", 3)
    trap = adversary.search_trap_sets(registry, 1, poly_encode([2]), 2)
    assert trap.stats["candidates_checked"] == 4
    assert trap.stats["exhausted_budget"] == "max_candidates"
    combos = itertools.combinations(INTERVAL_K2[1:], 2)
    assert tried == [(INTERVAL_K2[0], *combo) for combo in itertools.islice(combos, 3)]


@pytest.mark.parametrize("max_candidates,resolved", [(6, False), (7, True)])
def test_a_trap_search_that_tries_every_core_in_budget_is_resolved(
    registry, monkeypatch, max_candidates, resolved
):
    """At k=1 the pool reaches past the interval 9..16: the odd guesser has 7 cores of size 2."""
    monkeypatch.setattr(adversary, "TRAP_MAX_CANDIDATES", max_candidates)
    trap = adversary.search_trap_sets(registry, 2, poly_encode([1]), 1)
    assert trap.resolved is resolved and not trap.trap_core
    assert trap.stats["candidates_checked"] == 7
    assert trap.stats.get("exhausted_budget") == (None if resolved else "max_candidates")


def refused(name):
    """A stand-in for ``name`` that fails the test when called."""

    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return call


def refuse_runs(monkeypatch):
    """Fail the test on any run of a program or composition of a pair."""
    monkeypatch.setattr(adversary, "run_on_sequence", refused("run_on_sequence"))
    for name in ("run_on_sequence", "compose_pair", "_step_program"):
        monkeypatch.setattr(session, name, refused(name))


def recording(calls, function):
    """``function``, appending each call's second argument to ``calls`` as a tuple."""

    def record(learner, data, *args, **kwargs):
        calls.append(tuple(data))
        return function(learner, data, *args, **kwargs)

    return record


def test_a_trap_search_runs_only_the_decoy_order(registry, monkeypatch):
    """Every order of the core is walked; the one program run is the decoy run."""
    runs = []
    monkeypatch.setattr(adversary, "run_on_sequence", recording(runs, run_on_sequence))
    trap = adversary.search_trap_sets(registry, 1, poly_encode([2]), 1)
    assert trap.resolved and trap.trap_core == {9, 10, 11}
    assert runs == [(9, 10, 11)]


def test_a_learner_without_a_step_is_refused_by_name(monkeypatch):
    """Nothing is stepped, walked or run before the refusal."""
    calls = []
    for name in ("run_on_sequence", "step_through", "_walk_covering_words"):
        monkeypatch.setattr(adversary, name, recording(calls, getattr(adversary, name)))

    def program():
        raise AssertionError("the program ran")
        yield  # a generator function that raises when stepped

    learner = Learner("program-only", program)
    with pytest.raises(TypeError, match="learner program-only has no step for a trap search"):
        adversary.search_trap_sets({5: learner}, 5, poly_encode([2]), 1)
    assert calls == []


@pytest.mark.parametrize("make", [_chaser, _msd_pair], ids=["chaser", "msd-pair"])
def test_a_chain_search_only_steps_its_learner(make, monkeypatch):
    """No program is started, run or composed into a pair: the search steps the learner."""
    refuse_runs(monkeypatch)
    family = families.make_csd()
    chain = family.chain_indices(8)[:4]
    learner, teacher_factory, max_ext_len, max_candidates = make(family, chain)
    learner.program = refused("program")
    result = adversary.chain_force(
        learner,
        teacher_factory,
        chain,
        family,
        max_ext_len=max_ext_len,
        max_candidates=max_candidates,
    )
    assert result.status == ("forced" if teacher_factory is None else "failure-witness")


def test_a_chain_search_refuses_a_learner_without_a_step_by_name(monkeypatch):
    """Nothing is stepped, run or composed, and no teacher is made, before the refusal."""
    refuse_runs(monkeypatch)
    monkeypatch.setattr(adversary, "resolve_step", refused("resolve_step"))
    family = families.make_csd()
    chain = family.chain_indices(5)[:2]
    learner = Learner("program-only", refused("program"))
    with pytest.raises(TypeError, match="learner program-only has no step for a chain search"):
        adversary.chain_force(learner, refused("teacher_factory"), chain, family)


def predecessor_prober(remembers: bool) -> Learner:
    """Asks whether datum - 1 lies in the oracle; a no means the datum is the left endpoint.

    It emits 2k for the datum's bracket k when it has read the left endpoint
    (ever, if it ``remembers``, else as this datum), and 2k + 1 otherwise.
    """

    def step(state, datum):
        seen_lo, pending = state
        if pending is None:
            return (seen_lo, datum), query(datum - 1)
        seen_lo = (remembers and seen_lo) or not datum  # the datum is the answer
        k = max(0, ((pending - 1).bit_length() - 1) // 2)
        return (seen_lo, None), 2 * k + (not seen_lo)

    return Learner.from_step("predecessor-prober", (False, None), step, "drawn")


def endpoint_spotter() -> Learner:
    """Asks whether datum - 1 lies in the oracle, and emits 2k only on a no: the left
    endpoint of bracket k.  Any other datum emits nothing, so its last hypothesis
    stays 2k once the endpoint is read."""

    def step(pending, datum):
        if pending is None:
            return datum, query(datum - 1)
        if datum:  # the answer: datum - 1 is in the interval
            return None, None
        return None, 2 * max(0, ((pending - 1).bit_length() - 1) // 2)

    return Learner.from_step("endpoint-spotter", None, step, "drawn")


def search_by_runs(learner, k, p_coeffs, orders_of):
    """The search's core and candidate count, with each order run by ``run_on_sequence``.

    Cores are tried in the search's order, and a core passes when every order
    that ``orders_of(core)`` yields ends on 2k; the orders are taken lazily.
    """
    interval = adversary.trap_interval(k)
    size = poly_eval(poly_encode(p_coeffs), 2 * k + 1) + 1
    rest = range(interval.lo + 1, interval.hi + 1)
    checked = 0
    for combo in itertools.combinations(rest, size - 1):
        checked += 1
        core = (interval.lo, *combo)
        runs = (run_on_sequence(learner, order, oracle=interval) for order in orders_of(core))
        if all(run.emissions[-1:] == [2 * k] for run in runs):
            return set(core), checked
    return set(), checked


@pytest.mark.parametrize("remembers", [True, False])
def test_a_querying_step_learner_gets_the_verdict_of_every_order(monkeypatch, remembers):
    """The walk answers the learner's queries from the interval and makes only the decoy run."""
    learner = predecessor_prober(remembers)
    want = search_by_runs(learner, 1, [2], itertools.permutations)
    runs = []
    monkeypatch.setattr(adversary, "run_on_sequence", recording(runs, run_on_sequence))
    got = adversary.search_trap_sets({5: learner}, 5, poly_encode([2]), 1)
    assert got.resolved and (got.trap_core, got.stats["candidates_checked"]) == want
    if remembers:
        assert got.trap_core == {9, 10, 11} and got.decoys == {9, 10, 11, 12, 13}
        assert runs == [(9, 10, 11)]
    else:
        assert not got.trap_core and not got.decoys and runs == []


SAMPLED_LEARNERS = {
    "remembering-prober": lambda registry: predecessor_prober(True),
    "forgetting-prober": lambda registry: predecessor_prober(False),
    "even-guesser": lambda registry: registry[1],
    "odd-guesser": lambda registry: registry[2],
    "endpoint-spotter": lambda registry: endpoint_spotter(),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_LEARNERS))
def test_a_sampled_search_gets_the_verdict_of_runs_over_the_seeded_orders(
    registry, monkeypatch, name
):
    """Past the arrangement limit, the fold over each drawn order decides as its run does.

    The orders come from one seeded ``random.Random(seed).sample`` stream shared
    by the candidates, drawn only while the candidate still passes.
    """
    learner = SAMPLED_LEARNERS[name](registry)
    monkeypatch.setattr(adversary, "TRAP_ARRANGEMENT_LIMIT", 0)
    monkeypatch.setattr(adversary, "TRAP_SAMPLE_SIZE", 3)
    for seed in range(6):
        rng = random.Random(seed)

        def orders_of(core):
            return (rng.sample(core, len(core)) for _ in range(3))

        want = search_by_runs(learner, 1, [2], orders_of)
        got = adversary.search_trap_sets({5: learner}, 5, poly_encode([2]), 1, seed=seed)
        assert got.stats["exhaustive_arrangements"] is False
        assert got.resolved and (got.trap_core, got.stats["candidates_checked"]) == want, seed


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_sampled_arrangements_keep_the_sample_stream(seed):
    # core sizes across several bit_length edges of the per-position draw bound
    for size in range(1, 13):
        core = tuple(range(5, 5 + 3 * size, 3))
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = list(adversary._sampled_arrangements(core, 40, ours))
        assert drawn == [theirs.sample(core, size) for _ in range(40)]
        assert ours.getstate() == theirs.getstate()


def test_sampled_trap_search_draws_one_arrangement_per_failing_candidate(registry, monkeypatch):
    """Arrangements are drawn lazily from one seeded stream shared by the candidates."""
    orders = []
    monkeypatch.setattr(adversary, "step_through", recording(orders, adversary.step_through))
    monkeypatch.setattr(adversary, "TRAP_MAX_CANDIDATES", 5)
    trap = adversary.search_trap_sets(registry, 2, poly_encode([3, 1]), 2, seed=3)
    assert trap.stats["exhaustive_arrangements"] is False
    assert trap.stats["exhausted_budget"] == "max_candidates"
    rng = random.Random(3)
    combos = itertools.islice(itertools.combinations(INTERVAL_K2[1:], 8), 5)
    assert orders == [tuple(rng.sample((INTERVAL_K2[0], *combo), 9)) for combo in combos]


def test_a_sampled_core_the_walk_passes_steps_one_drawn_order(registry, monkeypatch):
    """Learner 1 at x+3 steps the first drawn order, then the walk passes all 9! orders.

    The walk steps its own first order flat, and memoizes the rest: two
    ``step_through`` calls decide the core that 10,000 drawn orders would.
    """
    orders = []
    monkeypatch.setattr(adversary, "step_through", recording(orders, adversary.step_through))
    trap = adversary.search_trap_sets(registry, 1, poly_encode([3, 1]), 2, seed=3)
    core = tuple(INTERVAL_K2[:9])
    assert sorted(trap.trap_core) == list(core) and trap.resolved
    assert trap.stats["exhaustive_arrangements"] is False
    assert trap.stats["arrangements_per_candidate"] == 10_000
    assert orders == [tuple(random.Random(3).sample(core, 9)), core]


def test_a_walk_past_its_bound_falls_back_to_the_drawn_orders(registry, monkeypatch):
    """A learner whose states never merge (its state is the data read) outgrows the walk's
    bound on a 9-element core; the rest of the sample then decides, as stepping the whole
    sample decides.

    The bound is the sample's own cost, so the search takes more steps than
    the sample does, but at most twice as many.
    """
    size = 300
    monkeypatch.setattr(adversary, "TRAP_SAMPLE_SIZE", size)
    even_guesser = registry[1]
    steps = []

    def step(read, datum):
        steps.append(datum)
        return read + (datum,), even_guesser.step(None, datum)[1]

    learner = Learner.from_step("data-keeper", (), step, "drawn")
    drawn = []
    rng = random.Random(3)

    def orders_of(core):
        for _ in range(size):
            drawn.append(rng.sample(core, len(core)))
            yield drawn[-1]

    want = search_by_runs(learner, 2, [3, 1], orders_of)
    steps.clear()
    got = adversary.search_trap_sets({5: learner}, 5, poly_encode([3, 1]), 2, seed=3)
    assert got.stats["exhaustive_arrangements"] is False
    assert (got.trap_core, got.stats["candidates_checked"]) == want
    assert sorted(got.decoys) == INTERVAL_K2[:17]
    sample_steps = sum(map(len, drawn))
    assert sample_steps == 9 * size
    assert sample_steps < len(steps) - 9 <= 2 * sample_steps  # less the decoy run's 9 steps


def counting(learner, steps):
    """``learner``'s step learner, appending each datum it steps to ``steps``."""

    def step(state, datum):
        steps.append(datum)
        return learner.step(state, datum)

    return Learner.from_step("counted", learner.start, step, "drawn", learner.first)


def test_a_walk_is_stepped_only_if_it_can_pass_within_its_bound(registry, monkeypatch):
    """A walk that passes leaves each of the 2^n subsets once per datum it lacks.

    Learner 1's orders all merge, so on its 10-element core at p(x) = x + 4
    the walk takes exactly those 10·2^9 steps after the 10 flat ones, and a
    sample of 513 orders bounds the walk and its flat order by their cost,
    10 + 10·2^9 steps.  With one order less the core is not walked or
    stepped flat, and all 512 drawn orders decide it.
    """
    steps = []
    learner = counting(registry[1], steps)
    least = 10 + 10 * 2**9
    for size, walked in [(513, True), (512, False)]:
        monkeypatch.setattr(adversary, "TRAP_SAMPLE_SIZE", size)
        steps.clear()
        trap = adversary.search_trap_sets({5: learner}, 5, poly_encode([4, 1]), 2)
        assert sorted(trap.trap_core) == INTERVAL_K2[:10] and trap.resolved
        drawn = 10 if walked else 10 * size
        assert len(steps) == drawn + walked * least + 10  # and the decoy run's 10 steps


def test_a_core_whose_own_order_fails_is_not_walked(registry):
    """Learner 2 ends every order on an odd index, so each core fails on its flat order:
    8 steps for each of the 2,000 cores checked at p(x) = x + 2, and no walk."""
    steps = []
    trap = adversary.search_trap_sets({5: counting(registry[2], steps)}, 5, poly_encode([2, 1]), 2)
    assert not trap.resolved and trap.stats["exhausted_budget"] == "max_candidates"
    assert len(steps) == 8 * adversary.TRAP_MAX_CANDIDATES == 16_000


def test_a_core_without_room_for_its_decoys_is_unresolved(registry):
    """At k = 0 the interval {3, 4} is the core, and holds no 2·p(1) + 1 = 3 decoys."""
    trap = adversary.search_trap_sets(registry, 1, poly_encode([1]), 0)
    assert trap.trap_core == {3, 4} and not trap.decoys and not trap.resolved
    assert trap.stats["decoy_padding_failed"] is True


@pytest.mark.parametrize("m_id,p_coeffs", sorted(TRAP_SEARCHES_K2))
def test_search_trap_sets_k2_is_pinned(registry, m_id, p_coeffs):
    trap = adversary.search_trap_sets(registry, m_id, poly_encode(list(p_coeffs)), 2, seed=0)
    core, decoys, resolved, candidates = TRAP_SEARCHES_K2[m_id, p_coeffs]
    assert sorted(trap.trap_core) == core
    assert sorted(trap.decoys) == decoys
    assert trap.resolved is resolved
    assert trap.stats["candidates_checked"] == candidates
    assert trap.stats["exhaustive_arrangements"] is (p_coeffs == (2, 1))
