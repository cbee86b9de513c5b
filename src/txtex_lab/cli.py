"""txtex-lab command line: run experiments, verify invariant suites, list catalogs.

Exit codes: 0 success, 1 verification/experiment failure, 2 usage error,
3 budget-partial results.  TXTEX_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .agents import build_default_registry, make_basic_agents
from .experiments import EXPERIMENTS, ConfigError, run_experiment
from .families import BASIC_KINDS
from .verify import SUITES, verify_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txtex-lab",
        description="Resource-metered learning sessions: experiments and verification suites.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one experiment and write its report files")
    run_p.add_argument("--experiment", required=True, help="experiment name (see `list experiments`)")
    run_p.add_argument("--config", help="path to a JSON config; defaults apply when omitted")
    run_p.add_argument("--out", required=True, help="output directory")

    verify_p = sub.add_parser("verify", help="run a module invariant suite")
    verify_p.add_argument(
        "--suite",
        required=True,
        choices=sorted(SUITES) + ["all"],
        help="which suite to run",
    )

    list_p = sub.add_parser("list", help="list families, agents or experiments")
    list_p.add_argument("what", choices=["families", "agents", "experiments"])
    return parser


def _cmd_run(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        return 2
    config = None
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 2
    seed_override = os.environ.get("TXTEX_SEED")
    if seed_override is not None:
        config = dict(config or {})
        try:
            config["seed"] = int(seed_override)
        except ValueError:
            print(f"TXTEX_SEED must be an integer, got {seed_override!r}", file=sys.stderr)
            return 2
    try:
        code = run_experiment(args.experiment, config, args.out)
    except ConfigError as exc:
        print(f"bad config for {args.experiment}: {exc}", file=sys.stderr)
        return 2
    status = {0: "ok", 1: "FAILED", 3: "partial (budget)"}[code]
    print(f"{args.experiment}: {status} -> {args.out}")
    return code


def _cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for suite in suites:
        start = time.perf_counter()
        suite_results = verify_suite(suite)
        elapsed = time.perf_counter() - start
        for result in suite_results:
            mark = "PASS" if result.passed else "FAIL"
            note = f"  [{result.note}]" if result.note else ""
            print(f"{mark}  {result.name} ({result.cases} cases){note}")
        passed = sum(result.passed for result in suite_results)
        print(f"{suite}: {passed}/{len(suite_results)} checks in {elapsed:.2f} s")
        results.extend(suite_results)
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_list(args) -> int:
    if args.what == "experiments":
        for spec in EXPERIMENTS.values():
            print(f"{spec.name:24s} {spec.description}")
    elif args.what == "families":
        for kind in BASIC_KINDS:
            print(kind)
        print("msd (registry learner + polynomial)")
        print("csd")
        print("merged (registry learner + polynomial)")
        print("pcs-F (registry learner + polynomial)")
        print("offset-power-joins")
        print("halting (parameter set + stage)")
    else:
        registry = build_default_registry()
        print("# registry (attackable oracle learners)")
        for entry in registry.entries():
            agent = entry.factory()
            agent.cost_note = entry.cost_note or agent.cost_note
            print(f"{entry.learner_id}: {agent.spec_json()}")
        print("# basic catalog")
        for name, agent in make_basic_agents().items():
            if isinstance(agent, tuple):
                learner, teacher_factory = agent
                print(f"{name}: {learner.spec_json()} + {teacher_factory().spec_json()}")
            else:
                print(f"{name}: {agent.spec_json()}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "list":
        return _cmd_list(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
