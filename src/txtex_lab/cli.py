"""txtex-lab command line: run experiments, verify invariant suites, list catalogs.

Exit codes: 0 success, 1 verification/experiment failure, 2 usage error,
3 budget-partial results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from .agents import build_default_registry, make_basic_agents
from .experiments import EXPERIMENTS, ConfigError, run_experiment
from .families import BASIC_FAMILIES
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


def _out_refusal(out: Path) -> str | None:
    """Why ``run`` may not replace ``out``; None when replacing it loses no foreign file.

    ``out`` may be absent, an empty directory, or an earlier run's directory:
    plain files among them a ``report.json``.  A link, the working directory
    and its ancestors are never replaced.
    """
    if out.is_symlink() or (out.exists() and not out.is_dir()):
        return "exists and is not a directory"
    if Path.cwd().is_relative_to(out.resolve()):
        return "holds the working directory"
    entries = list(out.iterdir()) if out.exists() else []
    if entries and not (
        (out / "report.json").is_file() and all(entry.is_file() for entry in entries)
    ):
        return "is not empty and holds no earlier run (a report.json among plain files)"
    return None


def _cmd_run(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        return 2
    config = None
    if args.config:
        # ValueError covers bad JSON, undecodable bytes and an int past the digit limit
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 2
    refusal = _out_refusal(Path(args.out))
    if refusal:
        print(f"will not replace --out: {args.out} {refusal}", file=sys.stderr)
        return 2
    # The run writes into a fresh directory beside --out, renamed into place
    # once complete: --out then holds exactly this run's files, and a run that
    # raises leaves it as it was.
    out = Path(args.out).resolve()
    staging = out.with_name(f".{out.name}.{os.urandom(6).hex()}.tmp")
    try:
        code = run_experiment(args.experiment, config, staging)
    except ConfigError as exc:  # raised before the directory is made
        print(f"bad config for {args.experiment}: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if out.exists():
        earlier = staging.with_suffix(".old")
        out.rename(earlier)
        staging.rename(out)
        shutil.rmtree(earlier)
    else:
        staging.rename(out)
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


def _spec_line(agent) -> str:
    return json.dumps(agent.spec(), sort_keys=True, separators=(",", ":"))


def _cmd_list(args) -> int:
    if args.what == "experiments":
        for spec in EXPERIMENTS.values():
            print(f"{spec.name:24s} {spec.description}")
    elif args.what == "families":
        for kind in BASIC_FAMILIES:
            print(kind)
        print("msd (registry learner + polynomial)")
        print("csd")
        print("merged (registry learner + polynomial)")
        print("pcs-F (registry learner + polynomial)")
        print("offset-power-joins")
        print("halting (parameter set)")
    else:
        print("# registry (attackable oracle learners)")
        for learner_id, learner in build_default_registry().items():
            print(f"{learner_id}: {_spec_line(learner)}")
        print("# basic catalog")
        for name, agent in make_basic_agents().items():
            if isinstance(agent, tuple):
                learner, teacher_factory = agent
                print(f"{name}: {_spec_line(learner)} + {_spec_line(teacher_factory())}")
            else:
                print(f"{name}: {_spec_line(agent)}")
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
