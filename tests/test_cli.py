import json
import re

import pytest

from txtex_lab.cli import main
from txtex_lab.experiments import EXPERIMENTS, config_hash, run_experiment


def test_list_commands(capsys):
    assert main(["list", "experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert main(["list", "families"]) == 0
    assert "pow2" in capsys.readouterr().out
    assert main(["list", "agents"]) == 0
    assert "chain-column-oracle" in capsys.readouterr().out


def test_run_unknown_experiment_is_usage_error(tmp_path, capsys):
    code = main(["run", "--experiment", "nope", "--out", str(tmp_path)])
    assert code == 2


def test_run_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        ["run", "--experiment", "halting-psd", "--config", str(bad), "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize("experiment", ["msd-linear", "conversions-roundtrip"])
def test_run_out_of_range_config_is_usage_error(tmp_path, capsys, experiment):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": -5}))
    out = tmp_path / "never"
    code = main(["run", "--experiment", experiment, "--config", str(config), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert err == f"bad config for {experiment}: max_n must be a natural number, got -5"


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "halting"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_i": 4}))
    code = main(
        ["run", "--experiment", "halting-psd", "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "halting-psd"
    assert report["config"]["max_i"] == 4
    assert report["config_sha256"] == config_hash(report["config"])
    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "w,index,hypothesis,correct,distinct_data"
    echoed = json.loads((out / "config.json").read_text())
    assert echoed == report["config"]


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TXTEX_SEED", "42")
    out = tmp_path / "seeded"
    code = main(["run", "--experiment", "halting-psd", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 42

    monkeypatch.setenv("TXTEX_SEED", "zzz")
    assert main(["run", "--experiment", "halting-psd", "--out", str(out)]) == 2


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "--suite", "engine"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert re.search(r"^engine: 5/5 checks in \d+\.\d\d s$", out, re.MULTILINE)
    assert out.endswith("5/5 checks passed\n")


def test_exhausted_trap_budget_reports_partial(tmp_path, capsys):
    out = tmp_path / "partial"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "max_g": 1,
                "max_thm64": 1,
                "max_join": 1,
                "trap_learners": [[1, [0]]],
                "trap_budgets": {"max_candidates": 0},
            }
        )
    )
    code = main(
        ["run", "--experiment", "pcs-suite", "--config", str(config), "--out", str(out)]
    )
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is True


def test_rerun_is_byte_identical(tmp_path):
    config = {"max_i": 5}
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_experiment("halting-psd", config, first) == 0
    assert run_experiment("halting-psd", config, second) == 0
    for name in ("results.csv", "report.json", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "name,config",
    [
        ("pow2-gap", {"n_range": [1, 5]}),
        ("msd-linear", {"max_n": 12, "seeds": 2}),
        ("msd-defeat", {"learner_ids": [0]}),
        ("csd-chain", None),
        ("merged-split", {"max_index": 8}),
        ("psd-finite", None),
        ("conversions-roundtrip", {"max_n": 4, "seeds_per_n": 2}),
        ("pcs-suite", {"max_g": 3, "max_thm64": 3, "max_join": 3}),
        ("halting-psd", {"max_i": 3}),
    ],
)
def test_all_experiments_succeed_at_small_scale(tmp_path, name, config):
    assert run_experiment(name, config, tmp_path / name) == 0
    report = json.loads((tmp_path / name / "report.json").read_text())
    assert report["ok"] is True
