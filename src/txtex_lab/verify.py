"""Executable invariant suites, one per module, runnable from the CLI.

Each check returns (name, passed, cases, note); a suite passes when every
check does.  The heavy sweeps double as the acceptance evidence and are also
driven from the test suite.

The descriptor suite checks every arrival order of each built descriptor
through the subset lattice of its k elements, k * 2**(k-1) recognizer steps
in place of a replay of all k! orderings; its case count is the number of
orderings covered.  The permutation replay stays in the tests as a second,
independent check: ``recognizer_fires_last`` in ``tests/conftest.py``, which
acceptance criterion 2 runs on descriptors of 3, 5 and 7 elements.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import adversary, agents, families
from .codec import (
    canonical_decode,
    canonical_encode,
    decode_tuple,
    encode_tuple,
    poly_encode,
    poly_eval,
    signed_int,
    signed_int_inv,
)
from .descriptor import (
    RecognizerState,
    build_descriptor,
    described_number,
    recognizer_step,
    validate_descriptor,
)
from .evaluate import evaluate_run
from .session import Budget, compose_pair, run_on_sequence, run_session
from .sets import is_subset, set_equal
from .text import make_text


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    note: str = ""


def _check(name, passed, cases, note=""):
    return CheckResult(name, bool(passed), cases, note)


# ---------------------------------------------------------------------------


def verify_codec() -> list[CheckResult]:
    out = []
    # One map per arity, stopping at the first failure: the case count is its
    # place in arity-major order.
    codes = range(100_000)
    good, cases = True, 4 * len(codes)
    for k in (1, 2, 3, 4):
        for n, xs in enumerate(map(decode_tuple, codes, itertools.repeat(k))):
            if encode_tuple(xs) != n or max(xs) > n:
                good, cases = False, (k - 1) * len(codes) + n + 1
                break
        if not good:
            break
    out.append(_check("tuple roundtrip with bounded coordinates", good, cases))

    # A two-sided inverse, checked by streaming: no set of images is held.
    good = all(signed_int_inv(signed_int(n)) == n for n in range(20_001)) and all(
        signed_int(signed_int_inv(z)) == z for z in range(-10_000, 10_001)
    )
    out.append(_check("signed bijection", good, 40_002))

    cases = 0
    good = True
    for degree in range(4):
        for coeffs in itertools.product(range(8), repeat=degree + 1):
            code = poly_encode(list(coeffs))
            for x in (0, 1, 3):
                cases += 1
                if poly_eval(code, x) != sum(c * x**j for j, c in enumerate(coeffs)):
                    good = False
    out.append(_check("polynomial evaluation vs direct sum", good, cases))

    rng = random.Random(0)
    cases = 0
    good = True
    for _ in range(2000):
        s = frozenset(rng.sample(range(21), rng.randint(0, 10)))
        cases += 1
        if canonical_decode(canonical_encode(s)) != s:
            good = False
    out.append(_check("canonical set codes roundtrip", good, cases))
    return out


def _recognizer_lattice_ok(elements: list[int], n: int) -> bool:
    """Check every arrival order of ``elements`` through the subset lattice.

    ``states[mask]`` is the recognizer state once exactly the elements in
    ``mask`` have arrived.  Each mask is stepped from every parent (the mask
    minus one element) and all parents must give an equal state, so by
    induction every ordering's prefix reaches the state of its set: the walk
    proves order independence rather than assuming it.  Every edge must fire
    ``complete`` exactly when it enters the full set, with value ``n``.  This
    covers all k! orderings in k * 2**(k-1) recognizer steps.
    """
    full = (1 << len(elements)) - 1
    states = [RecognizerState()]
    for mask in range(1, full + 1):
        state = None
        for i, code in enumerate(elements):
            bit = 1 << i
            if not mask & bit:
                continue
            nxt, res = recognizer_step(states[mask ^ bit], code)
            if (res.status == "complete") != (mask == full) or (mask == full and res.value != n):
                return False
            if state is None:
                state = nxt
            elif nxt != state:
                return False
        states.append(state)
    return True


def verify_descriptor() -> list[CheckResult]:
    out = []
    marker = adversary.marker_element(0)
    multi = {adversary.marker_element(j) for j in range(5)}
    built = orderings = 0
    good = True
    for n in range(0, 201, 3):
        for floor in (0, 10_000):
            for markers in ({marker}, multi):
                d = build_descriptor(n, floor, markers)
                built += 1
                if not validate_descriptor(d) or described_number(d) != n:
                    good = False
                    continue
                elements = sorted(d)
                if not _recognizer_lattice_ok(elements, n):
                    good = False
                orderings += math.factorial(len(elements))
    out.append(
        _check(
            "built descriptors validate, describe n, recognizer fires on last element",
            good,
            orderings,
            f"{built} descriptors",
        )
    )
    return out


def verify_engine() -> list[CheckResult]:
    out = []
    family = families.make_basic_family("pow2")
    catalog = agents.make_basic_agents()

    text = make_text("seeded", family.member(4), seed=7)
    a = run_session(catalog["pow2_plain_learner"], text, budget=Budget(horizon=40, window=8))
    b = run_session(catalog["pow2_plain_learner"], text, budget=Budget(horizon=40, window=8))
    out.append(
        _check(
            "session replay is bit-identical",
            a.events == b.events and a.events_jsonl() == b.events_jsonl(),
            len(a.events),
        )
    )

    reads = sum(1 for e in a.events if e.kind == "read")
    stream = a.hypothesis_stream()
    changes = sum(1 for x, y in zip(stream, stream[1:]) if x != y)
    out.append(
        _check(
            "ledger soundness",
            a.ledger.distinct_data <= reads and changes == a.ledger.mind_changes,
            len(a.events),
        )
    )

    target = family.member(5)
    q = run_session(
        catalog["pow2_oracle_learner"],
        family.canonical_text(5),
        oracle=target,
        budget=Budget(horizon=80),
    )
    fidelity = all(
        e.payload[1] == target.contains(e.payload[0]) for e in q.events if e.kind == "query"
    )
    out.append(_check("oracle answers match exact membership", fidelity, q.ledger.oracle_queries))

    learner, teacher_factory = catalog["pow2_teacher_pair"]
    contract_cases = 0
    contract_good = True
    for n in (2, 4, 6):
        text = make_text("seeded", family.member(n), seed=n)
        tr = run_session(learner, text, teacher=teacher_factory(), budget=Budget(horizon=90, window=10))
        for event in tr.events:
            if event.kind == "teach":
                contract_cases += len(event.payload[1])
        if tr.end_reason == "contract-violation":
            contract_good = False
    out.append(_check("teacher emissions drawn from teacher input", contract_good, contract_cases))

    composed = compose_pair(learner, teacher_factory)
    equal = True
    cases = 0
    for n in (1, 3, 5):
        for seed in (0, 1):
            text = make_text("seeded", family.member(n), seed=seed)
            pair_run = run_session(
                learner, text, teacher=teacher_factory(), budget=Budget(horizon=70, window=10)
            )
            solo_run = run_session(composed, text, budget=Budget(horizon=70, window=10))
            cases += 1
            if solo_run.hypothesis_stream() != pair_run.hypothesis_stream():
                equal = False
    out.append(_check("composed pair reproduces the pair's hypothesis stream", equal, cases))
    return out


def verify_families() -> list[CheckResult]:
    out = []
    registry = agents.build_default_registry()
    p_lin = poly_encode([0, 1])

    cases = 0
    good = True
    basic_samples = {
        "up-intervals": range(0, 8),
        "pair-intervals": [0, 2, 5, 8, 33],
        "finite-canonical": [families.FiniteCanonical().index_of_set(s) for s in ({0}, {0, 2}, {1, 2, 3})],
        "pow2": range(0, 7),
        "join-singletons": range(0, 8),
        "pcs-G": range(0, 8),
        "tuple-contents": range(0, 30),
    }
    for kind, sample in basic_samples.items():
        family = families.make_basic_family(kind)
        for n in sample:
            cases += 1
            if not set_equal(family.member(family.min_index(n)), family.member(n)):
                good = False
    out.append(_check("member(min_index) equals member", good, cases))

    msd = families.make_msd(registry, 0, p_lin)
    good = all(
        described_number(msd.member(n).elements) == n for n in range(0, 101, 7)
    )
    sets = [msd.member(n).elements for n in range(0, 40, 3)]
    good = good and len(set(sets)) == len(sets)
    out.append(_check("descriptor members describe their own index, pairwise distinct", good, 29))

    csd = families.make_csd()
    chain_cases = 0
    good = True
    for i in range(0, 9):
        width = csd.top(i)
        if width == 0:
            continue
        indices = csd.chain_indices(i)
        for lower, upper in zip(indices, indices[1:]):
            chain_cases += 1
            lower_set, upper_set = csd.member(lower), csd.member(upper)
            if not is_subset(lower_set, upper_set) or set_equal(lower_set, upper_set):
                good = False
    out.append(_check("chain inclusions strict below each chain top", good, chain_cases))

    trap_family = families.make_pcs_f(registry, 1, poly_encode([0]), max_k=2)
    trap = trap_family.trap_sets(1)
    interval = adversary.trap_interval(1)
    good = (
        trap.resolved
        and trap.trap_core <= trap.decoys
        and all(interval.contains(x) for x in trap.decoys)
        and interval.lo in trap.trap_core
    )
    out.append(_check("resolved trap sets satisfy their shape invariants", good, len(trap.decoys)))

    halting = families.make_halting_family({1, 3})
    staged_good = True
    cases = 0
    for i in (1, 3):
        # 1 enters W at stage 2 and 3 at stage 4, so each slot grows inside the sweep
        snaps = [halting.member_at_stage(2 * i + 1, s).elements for s in range(0, 8, 2)]
        for earlier, later in zip(snaps, snaps[1:]):
            cases += 1
            if not earlier <= later:
                staged_good = False
    out.append(_check("staged membership monotone in the stage", staged_good, cases))
    return out


def verify_agents() -> list[CheckResult]:
    out = []
    catalog = agents.make_basic_agents()

    cases = 0
    good = True
    worst = 0.0
    for a in (2, 3):
        for n in range(0, 4097):
            queries = 0

            def probe(x, n=n):
                nonlocal queries
                queries += 1
                return x <= n

            found = agents.exp_query_search(probe, a)
            bound = agents.exp_search_query_bound(n, a)
            cases += 1
            worst = max(worst, queries / bound)
            if found != n or queries > bound:
                good = False
    out.append(
        _check("endpoint search exact within the query bound", good, cases, f"worst ratio {worst:.3f}")
    )

    pow2 = families.make_basic_family("pow2")
    p_pmc = poly_encode([2, 1])
    good = True
    cases = 0
    for n in range(0, 9):
        target = pow2.member(n)
        texts = [pow2.canonical_text(n)]
        texts += [make_text("seeded", target, seed=s) for s in range(3)]
        texts += [make_text("prefixed", target, prefix=[(0, 9)])]
        for text in texts:
            budget = Budget(horizon=2**n + 70, window=20)
            pmc_run = run_session(catalog["pow2_pmc_learner"], text, budget=budget)
            cases += 1
            if not evaluate_run(pmc_run, pow2, n, p_pmc, "PMC").passed:
                good = False
            oracle_run = run_session(
                catalog["pow2_oracle_learner"], text, oracle=target, budget=budget
            )
            cases += 1
            if not evaluate_run(oracle_run, pow2, n, poly_encode([8, 0, 0, 1]), "PRT").passed:
                good = False
    out.append(_check("positive learners pass their criteria on varied texts", good, cases))

    registry = agents.build_default_registry()
    msd = families.make_msd(registry, 0, poly_encode([0, 1]))
    learner, teacher_factory = agents.make_msd_pair()
    good = True
    cases = 0
    for n in range(0, 41, 5):
        tr = run_session(
            learner,
            msd.canonical_text(n),
            teacher=teacher_factory(),
            budget=Budget(horizon=n + 60, window=20),
        )
        cases += 1
        if tr.final_hypothesis != n or tr.ledger.mind_changes > n:
            good = False
    out.append(_check("descriptor pair: final hypothesis is the index, changes at most n", good, cases))

    pair_learner, pair_teacher = catalog["pow2_teacher_pair"]
    gated = agents.convert_psdT_to_pmc(pair_learner, pair_teacher)
    decoder, encoder_factory = agents.convert_pmc_to_psdT(catalog["pow2_pmc_learner"])
    good = True
    cases = 0
    for n in range(0, 8):
        text = make_text("seeded", pow2.member(n), seed=n)
        budget = Budget(horizon=2**n + 60, window=20)
        pair_run = run_session(pair_learner, text, teacher=pair_teacher(), budget=budget)
        extensions = sum(1 for e in pair_run.events if e.kind == "teach")
        gated_run = run_session(gated, text, budget=budget)
        cases += 1
        if gated_run.ledger.mind_changes > extensions:
            good = False
        psd_run = run_session(decoder, text, teacher=encoder_factory(), budget=budget)
        cases += 1
        if psd_run.ledger.distinct_data > 2:
            good = False
    out.append(_check("conversion resource guarantees", good, cases))
    return out


def verify_adversary() -> list[CheckResult]:
    out = []
    registry = agents.build_default_registry()
    p_lin = poly_encode([0, 1])

    good = True
    for m_id in (3, 4, 0):
        report, _ = adversary.msd_defeat(families.make_msd(registry, m_id, p_lin))
        if not report.transcripts_identical or not report.wrong_for:
            good = False
    out.append(_check("defeat transcripts agree through the marker prefix", good, 3))

    qs = [adversary.compute_q(registry[3], ell) for ell in (1, 5, 20, 50)]
    out.append(_check("query ceiling monotone in the stream length", qs == sorted(qs), len(qs)))

    csd = families.make_csd()
    chain = csd.chain_indices(5)[:2]
    chaser = adversary.make_chain_chaser(csd, chain)
    result = adversary.chain_force(chaser, None, chain, csd)
    replay = run_on_sequence(chaser, result.prefix)
    stream = replay.emissions
    changes = sum(1 for x, y in zip(stream, stream[1:]) if x != y)
    out.append(
        _check(
            "forced mind changes equal the replayed count",
            result.status == "forced" and changes == result.forced_mind_changes,
            len(result.prefix),
        )
    )

    t1 = adversary.search_trap_sets(registry, 1, poly_encode([0]), 1, seed=5)
    t2 = adversary.search_trap_sets(registry, 1, poly_encode([0]), 1, seed=5)
    out.append(
        _check(
            "trap search reproducible from seed and budgets",
            (t1.trap_core, t1.decoys, t1.resolved) == (t2.trap_core, t2.decoys, t2.resolved),
            2,
        )
    )
    return out


SUITES = {
    "codec": verify_codec,
    "descriptor": verify_descriptor,
    "engine": verify_engine,
    "families": verify_families,
    "agents": verify_agents,
    "adversary": verify_adversary,
}


def verify_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
