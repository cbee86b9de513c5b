"""The benchmark's workloads, driven through the library's public entry points.

A workload is built once per process (its set-up) and then runs passes.  A
pass returns the seconds spent inside the library calls, read from ``clock``,
and one observation per operation; the worker compares the observations with
``reference.json``.
Functions are looked up on their modules at call time, so the tracer's
wrappers are the ones that run in a traced pass.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

from txtex_lab import adversary, agents, evaluate, experiments, families, verify
from txtex_lab.codec import poly_encode

X_PLUS_2 = poly_encode([2, 1])
X_PLUS_3 = poly_encode([3, 1])


class VerifyAll:
    """The six verify suites in catalog order: ``txtex-lab verify --suite all``.

    The suites fix their own inputs, so the seed is not used.
    """

    name = "verify-all"

    def __init__(self, seed: int, scratch: Path):
        self.orderings = 0  # descriptor orderings replayed by the last pass

    def run_pass(self, tracer, clock=time.perf_counter):
        elapsed = 0.0
        observed = {}
        for suite, check_suite in verify.SUITES.items():
            with tracer.entry(f"verify.{suite}") as call:
                start = clock()
                try:
                    results = call(check_suite)
                except Exception as exc:
                    observed[suite] = _error(exc)
                    continue
                finally:
                    elapsed += clock() - start
            for i, result in enumerate(results):
                observed[f"{suite}[{i}] {result.name}"] = {
                    "passed": result.passed,
                    "cases": result.cases,
                }
                if suite == "descriptor":
                    self.orderings = result.cases
        return elapsed, observed


class ExperimentCatalog:
    """All nine experiments at their default configs, written to a scratch directory.

    The defaults define the paper's artifacts, so the seed is not used.
    """

    name = "experiment-catalog"

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.orderings = 0
        self.passes = 0

    def run_pass(self, tracer, clock=time.perf_counter):
        self.passes += 1
        base = self.scratch / f"pass{self.passes}"
        elapsed = 0.0
        observed = {}
        for name in experiments.EXPERIMENTS:
            out = base / name
            with tracer.entry(f"experiments.{name}") as call:
                start = clock()
                try:
                    code = call(experiments.run_experiment, name, None, out)
                except Exception as exc:
                    observed[name] = _error(exc)
                    continue
                finally:
                    elapsed += clock() - start
            observed[name] = {"exit": code, "sha256": artifact_digests(out)}
        shutil.rmtree(base, ignore_errors=True)
        return elapsed, observed


def _error(exc: Exception) -> dict:
    """Observation of an operation that raised: it never matches the reference."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def artifact_digests(directory: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


class PrefixSearch:
    """The three bounded searches called directly; the seed drives their sampling.

    Characteristic-sample checks on pcs-G, offset-power (sampled above n=5) and
    join-singletons; trap-set searches for registry learners 1 and 2 at k=2
    with p(x)=x+2 (exhaustive) and p(x)=x+3 (sampled); chain forcing on csd
    anchor 8.  Nearly every operation is a short ``run_on_sequence``.
    """

    name = "prefix-search"

    def __init__(self, seed: int, scratch: Path):
        self.orderings = 0
        self.ops = []
        for n in range(1, 13):
            self.ops.append((f"sample pcs-G n={n}", _sample_verdict, _pcs_g, (n,)))
        for n in range(1, 11):
            self.ops.append((f"sample offset-power n={n}", _sample_verdict, _offset_power, (n, seed)))
        for n in range(0, 15):
            self.ops.append((f"sample join-singletons n={n}", _sample_verdict, _joins, (n, seed)))
        registry = agents.build_default_registry()
        for m_id in (1, 2):
            for label, p_code in (("x+2", X_PLUS_2), ("x+3", X_PLUS_3)):
                self.ops.append(
                    (
                        f"trap m={m_id} p={label} k=2",
                        _trap_verdict,
                        _trap,
                        (registry, m_id, p_code, seed),
                    )
                )
        self.ops.append(("chain-force chaser anchor=8", _chain_verdict, _force_chaser, ()))
        self.ops.append(("chain-force msd-pair anchor=8", _chain_verdict, _force_msd_pair, ()))

    def run_pass(self, tracer, clock=time.perf_counter):
        elapsed = 0.0
        observed = {}
        for name, verdict, op, args in self.ops:
            with tracer.entry(f"prefix-search.{name}") as call:
                start = clock()
                try:
                    result = call(op, *args)
                except Exception as exc:
                    observed[name] = _error(exc)
                    continue
                finally:
                    elapsed += clock() - start
            observed[name] = verdict(result)
        return elapsed, observed


def _pcs_g(n):
    return evaluate.check_characteristic_sample(
        agents.make_pcsG_oracle_learner,
        families.make_basic_family("pcs-G"),
        n,
        [n],
        X_PLUS_2,
        max_text_len=4,
        max_universe=20,
    )


def _offset_power(n, seed):
    return evaluate.check_characteristic_sample(
        agents.make_thm64_pcs_learner,
        families.make_thm64_g(),
        2 * n,
        [2 * n, 2 * 2**n + 1],
        X_PLUS_2,
        max_text_len=3,
        max_universe=2 * 2**n + 2,
        use_oracle=False,
        seed=seed,
    )


def _joins(n, seed):
    return evaluate.check_characteristic_sample(
        agents.make_join_evens_learner,
        families.make_basic_family("join-singletons"),
        n,
        [2 * n],
        X_PLUS_2,
        max_text_len=3,
        max_universe=2 * n + 6,
        use_oracle=False,
        seed=seed,
    )


def _trap(registry, m_id, p_code, seed):
    return adversary.search_trap_sets(registry, m_id, p_code, 2, seed=seed)


def _csd_chain():
    family = families.make_csd()
    return family, family.chain_indices(8)[:4]


def _force_chaser():
    family, chain = _csd_chain()
    chaser = adversary.make_chain_chaser(family, chain)
    return adversary.chain_force(chaser, None, chain, family)


def _force_msd_pair():
    family, chain = _csd_chain()
    learner, teacher_factory = agents.make_msd_pair()
    return adversary.chain_force(
        learner, teacher_factory, chain, family, max_ext_len=2, max_candidates=2000
    )


def _sample_verdict(verdict) -> dict:
    out = {
        "passed": verdict.passed,
        "reason": verdict.reason,
        "locked_output": verdict.details.get("locked_output"),
        "exhaustive": verdict.details.get("exhaustive"),
    }
    if out["exhaustive"]:  # sampled counts depend on the seed
        out["covering_prefixes"] = verdict.details.get("covering_prefixes_checked")
    return out


def _trap_verdict(trap) -> dict:
    return {
        "resolved": trap.resolved,
        "core": sorted(trap.trap_core),
        "decoys": sorted(trap.decoys),
        "candidates_checked": trap.stats["candidates_checked"],
        "exhaustive": trap.stats["exhaustive_arrangements"],
    }


def _chain_verdict(result) -> dict:
    return {
        "status": result.status,
        "prefix": result.prefix,
        "forced_mind_changes": result.forced_mind_changes,
        "witness_index": result.witness_index,
        "candidates_checked": result.details.get("candidates_checked"),
    }


WORKLOADS = {w.name: w for w in (VerifyAll, ExperimentCatalog, PrefixSearch)}
