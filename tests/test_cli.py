import hashlib
import json
import re
import time
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import pytest

from txtex_lab import cli, experiments, families
from txtex_lab.agents import build_default_registry
from txtex_lab.cli import main
from txtex_lab.codec import encode_tuple, poly_encode, poly_eval
from txtex_lab.experiments import EXPERIMENTS, _check_config, config_hash


def test_list_commands(capsys):
    assert main(["list", "experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert main(["list", "families"]) == 0
    assert "pow2" in capsys.readouterr().out
    assert main(["list", "agents"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for learner_id, learner in build_default_registry().items():
        [line] = [line for line in lines if line.startswith(f"{learner_id}: ")]
        spec = json.loads(line.split(": ", 1)[1])
        assert spec == {"kind": "learner", "name": learner.name, "costs": learner.cost_note}


# ``txtex-lab list`` output, byte for byte
LIST_OUTPUT = {
    "experiments": """\
pow2-gap                 distinct-data vs oracle-query vs teacher-item costs on dyadic intervals
msd-linear               descriptor teacher pair: hypothesis = index, ticks linear in index
msd-defeat               marker-trapped descriptor family defeats registered oracle learners
csd-chain                chain-column family: oracle learner exact, forced mind changes on chains
merged-split             parity-merged family: one oracle probe picks the branch
psd-finite               size+mask learner on finite sets; shared-prefix indistinguishability
conversions-roundtrip    teacher-dataset and mind-change conversions preserve learning
pcs-suite                characteristic samples: segments, joins, offset powers, trap families
halting-psd              two distinct data suffice on the staged pair family
""",
    "families": """\
up-intervals
pair-intervals
tuple-contents
finite-canonical
pow2
join-singletons
pcs-G
msd (registry learner + polynomial)
csd
merged (registry learner + polynomial)
pcs-F (registry learner + polynomial)
offset-power-joins
halting (parameter set)
""",
    "agents": """\
# registry (attackable oracle learners)
0: {"costs":"single emission","kind":"learner","name":"constant-zero"}
1: {"costs":"one emit per read","kind":"learner","name":"trap-even-guesser"}
2: {"costs":"one emit per read","kind":"learner","name":"trap-odd-guesser"}
3: {"costs":"queries per column/element probe","kind":"learner","name":"chain-column-oracle"}
4: {"costs":"queries per endpoint probe","kind":"learner","name":"pow2-endpoint-oracle"}
# basic catalog
finite_psd_learner: {"costs":"one tick per action","kind":"learner","name":"finite-size-mask"}
pow2_plain_learner: {"costs":"one tick per action","kind":"learner","name":"pow2-collector"}
pow2_oracle_learner: {"costs":"queries per endpoint probe","kind":"learner","name":"pow2-endpoint-oracle"}
pow2_teacher_pair: {"costs":"one tick per action","kind":"learner","name":"repeat-counter"} + {"kind":"teacher","name":"bracket-repeater"}
pow2_pmc_learner: {"costs":"one tick per action","kind":"learner","name":"pow2-threshold"}
pmc_msd_learner: {"costs":"one work unit per recognizer step","kind":"learner","name":"descriptor-wait"}
join_evens_learner: {"costs":"one tick per action","kind":"learner","name":"even-spotter"}
""",
}


@pytest.mark.parametrize("kind", sorted(LIST_OUTPUT))
def test_list_output_is_pinned(capsys, kind):
    assert main(["list", kind]) == 0
    assert capsys.readouterr().out == LIST_OUTPUT[kind]


class Raw(NamedTuple):
    """A usage error outside the config schema.

    ``text`` is the config file's text or bytes (None: no file).  The row's
    message is then the whole stderr line, with ``{path}`` standing for the
    config path, or a pattern of it where the interpreter's wording differs
    across versions.
    """

    text: str | bytes | None


@pytest.mark.parametrize(
    "experiment,config,message",
    [
        ("msd-linear", {"seeds": "x"}, "seeds must be a natural number, got 'x'"),
        (
            "halting-psd",
            {"typo_key": 1},
            "unknown key 'typo_key'; expected one of ['max_i', 'seed', 'w_set']",
        ),
        ("pcs-suite", {"max_g": -3}, "max_g must be a natural number, got -3"),
        ("halting-psd", {"seed": True}, "seed must be an integer, got True"),
        (
            "msd-defeat",
            {"learner_ids": [3, 99]},
            "learner_ids must be a list of registered learner ids, got [3, 99]",
        ),
        (
            "psd-finite",
            {"poly": []},
            "poly must be a nonempty list of natural coefficients, got []",
        ),
        (
            "psd-finite",
            {"sets": [[0], [-1]]},
            "sets must be a list of lists of natural numbers, got [[0], [-1]]",
        ),
        (
            "pcs-suite",
            {"trap_learners": [[1]]},
            "trap_learners must be a list of [step learner id, coefficients] pairs, got [[1]]",
        ),
        (
            "psd-finite",
            {"shared_element": 7},
            "shared_element 7 must be in both overlap_pair sets [0, 2] and [0, 5]",
        ),
        (
            "psd-finite",
            {"overlap_pair": [[], [0]]},
            "shared_element 0 must be in both overlap_pair sets [] and [0]",
        ),
        (
            "psd-finite",
            {"overlap_pair": [[0, 2], [2, 0]]},
            "overlap_pair must be two different sets, got [0, 2] and [2, 0]",
        ),
        ("psd-finite", {"sets": [[0], []]}, "sets must not contain an empty set"),
        ("csd-chain", {"chain_length": 0}, "chain_length must be a positive integer, got 0"),
        ("msd-linear", {"max_n": -5}, "max_n must be a natural number, got -5"),
        ("conversions-roundtrip", {"max_n": -5}, "max_n must be a natural number, got -5"),
        (
            "pow2-gap",
            {"n_range": "oops"},
            "n_range must be [lo, hi] with natural lo <= hi, got 'oops'",
        ),
        (
            "pow2-gap",
            {"n_range": [3, 1]},
            "n_range must be [lo, hi] with natural lo <= hi, got [3, 1]",
        ),
        (
            "csd-chain",
            {"chain_anchor": 0},
            "chain_anchor must be between 1 and max_anchor 5, got 0",
        ),
        (
            "csd-chain",
            {"chain_anchor": 40},
            "chain_anchor must be between 1 and max_anchor 5, got 40",
        ),
        *[
            ("csd-chain", {"max_anchor": m}, f"max_anchor must be at most 24, got {m}")
            for m in (25, 40, 10**9)
        ],
        (
            "halting-psd",
            {"max_i": 14, "w_set": [14]},
            "swept w_set members (those <= max_i) must be at most 13, got 14",
        ),
        (
            "msd-defeat",
            {"learner_ids": [5]},
            "learner_ids must be a list of registered learner ids, got [5]",
        ),
        ("pow2-gap", {"n_range": [0, 2]}, "n_range must start at 1 or above, got [0, 2]"),
        *[
            (
                experiment,
                {"poly": [3]},
                "poly must be increasing (some coefficient at degree >= 1), got [3]",
            )
            for experiment in ("msd-linear", "msd-defeat", "merged-split")
        ],
        pytest.param("nope", Raw("{}"), "unknown experiment: nope", id="unknown-experiment"),
        pytest.param(
            "halting-psd",
            Raw(None),
            "cannot read config: [Errno 2] No such file or directory: '{path}'",
            id="unreadable-config",
        ),
        pytest.param(
            "halting-psd",
            Raw("{not json"),
            "cannot read config: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)",
            id="invalid-json",
        ),
        pytest.param(
            "halting-psd", Raw("[1, 2]"), "config must be a JSON object", id="non-object"
        ),
        (
            "msd-linear",
            {"poly": [99999, 1]},
            "poly [99999, 1] gives a marker family code above 100000000",
        ),
        (
            "msd-defeat",
            {"learner_ids": [3], "poly": [99999, 1]},
            "poly [99999, 1] gives a marker family code above 100000000",
        ),
        (
            "merged-split",
            {"poly": [99999, 1]},
            "poly [99999, 1] gives a marker family code above 100000000",
        ),
        (
            "msd-defeat",
            {"learner_ids": [1], "poly": [0, 2]},
            "learner 1 exceeds 200000 actions on the marker prefix of length 145538",
        ),
        (
            "msd-defeat",
            {"learner_ids": [2], "poly": [2, 1]},
            "learner 2 exceeds 200000 actions on the marker prefix of length 494514",
        ),
        (
            "msd-linear",
            {"learner_id": 1, "poly": [0, 2]},
            "learner 1 exceeds 200000 actions on the marker prefix of length 145538",
        ),
        (
            "merged-split",
            {"learner_id": 1, "poly": [0, 2]},
            "learner 1 exceeds 200000 actions on the marker prefix of length 436614",
        ),
        (
            "msd-defeat",
            {"learner_ids": [], "poly": [3]},
            "poly must be increasing (some coefficient at degree >= 1), got [3]",
        ),
        *[
            ("pcs-suite", {"max_thm64": m}, f"max_thm64 must be at most 20, got {m}")
            for m in (21, 26, 10**9)
        ],
        *[
            ("msd-linear", {"max_n": m}, f"max_n must be at most 400, got {m}")
            for m in (401, 10**9)
        ],
        *[
            ("msd-linear", {"seeds": m}, f"seeds must be at most 100, got {m}")
            for m in (101, 10**9)
        ],
        *[
            ("conversions-roundtrip", {"max_n": m}, f"max_n must be at most 16, got {m}")
            for m in (17, 10**9)
        ],
        *[
            (
                "conversions-roundtrip",
                {"seeds_per_n": m},
                f"seeds_per_n must be at most 20, got {m}",
            )
            for m in (21, 10**9)
        ],
        *[
            ("merged-split", {"max_index": m}, f"max_index must be at most 1000, got {m}")
            for m in (1001, 10**9)
        ],
        (
            "pcs-suite",
            {"trap_budgets": {"max_candidates": 0}},
            "unknown key 'trap_budgets'; expected one of ['max_g', 'max_join', 'max_k', "
            "'max_thm64', 'seed', 'trap_learners']",
        ),
        *[
            ("pcs-suite", {"max_g": m}, f"max_g must be at most 200, got {m}")
            for m in (201, 10**9)
        ],
        *[
            ("pcs-suite", {"max_join": m}, f"max_join must be at most 200, got {m}")
            for m in (201, 10**9)
        ],
        *[
            (
                "pcs-suite",
                {"trap_learners": [[m_id, [0]]]},
                "trap_learners must be a list of [step learner id, coefficients] pairs, "
                f"got [[{m_id}, [0]]]",
            )
            for m_id in (0, 3, 4)
        ],
        pytest.param(
            "msd-linear",
            Raw('{"seeds": ' + "9" * 5000 + "}"),
            re.compile(
                r"cannot read config: Exceeds the limit \(4300( digits)?\) for integer string "
                r"conversion: value has 5000 digits; .*"
            ),
            id="huge-integer",
        ),
        pytest.param(
            "msd-linear",
            Raw("[" * 100_000),
            re.compile(r"cannot read config: maximum recursion depth exceeded.*"),
            id="deep-nesting",
        ),
        pytest.param(
            "msd-linear",
            Raw(b"\xff\xfe{}"),
            "cannot read config: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
            id="undecodable-bytes",
        ),
    ],
)
def test_run_config_outside_schema_is_usage_error(tmp_path, capsys, experiment, config, message):
    """Each usage error of ``run`` exits 2 within a second, with one stderr line and no output."""
    path = tmp_path / "config.json"
    if isinstance(config, Raw):
        if isinstance(config.text, bytes):
            path.write_bytes(config.text)
        elif config.text is not None:
            path.write_text(config.text)
        line = message if isinstance(message, re.Pattern) else message.format(path=path)
    else:
        path.write_text(json.dumps(config))
        line = f"bad config for {experiment}: {message}"
    out = tmp_path / "never"
    start = time.perf_counter()
    code = main(["run", "--experiment", experiment, "--config", str(path), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert {path.name for path in tmp_path.iterdir()} <= {"config.json"}
    captured = capsys.readouterr()
    assert captured.out == ""
    if isinstance(line, re.Pattern):
        assert line.fullmatch(captured.err.removesuffix("\n")), captured.err
    else:
        assert captured.err == line + "\n"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_configs_match_their_schema(name):
    """A spec's defaults pass its checks, and so do they with each capped key at its cap."""
    spec = EXPERIMENTS[name]
    defaults = {key: entry.default for key, entry in spec.keys.items()}
    caps = {key: entry.cap for key, entry in spec.keys.items() if entry.cap is not None}
    for config in (defaults, {**defaults, **caps}):
        _check_config(spec.keys, config)
        if spec.check_values is not None:
            spec.check_values(config)


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


def test_verify_suite_exit_codes(capsys, monkeypatch, verify_run):
    monkeypatch.setattr(cli, "verify_suite", lambda suite: verify_run(suite)[0])
    assert main(["verify", "--suite", "engine"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert re.search(r"^engine: 5/5 checks in \d+\.\d\d s$", out, re.MULTILINE)
    assert out.endswith("5/5 checks passed\n")


def test_exhausted_trap_budget_reports_partial(tmp_path, capsys):
    """At k* = 12 the odd guesser passes no core, and the interval has 2^25 elements."""
    out = tmp_path / "partial"
    config = tmp_path / "config.json"
    trap = {"max_k": 12, "trap_learners": [[2, [1]]]}
    config.write_text(json.dumps({"max_g": 1, "max_thm64": 1, "max_join": 1, **trap}))
    start = time.perf_counter()
    code = main(
        ["run", "--experiment", "pcs-suite", "--config", str(config), "--out", str(out)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().out == f"pcs-suite: partial (budget) -> {out}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is True


def test_pow2_gap_out_of_ticks_is_partial(tmp_path, capsys):
    """At n = 17 the plain collector needs about 2^18 ticks, above the default 200,000."""
    out = tmp_path / "partial"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_range": [17, 17]}))
    code = main(["run", "--experiment", "pow2-gap", "--config", str(config), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out == f"pow2-gap: partial (budget) -> {out}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True and report["partial"] is True
    assert report["summary"]["out_of_ticks"] == [[17, "plain"]]
    assert (out / "results.csv").read_text().splitlines()[1] == "17,-1,20,17"


# report.json and results.csv of pcs-suite at max_k 11 as the earlier equality, pointwise
# up to a bound each family stated, wrote them (about 5 s on 2 cores of a Linux x86-64 host)
PCS_K11_SHA256 = {
    "report.json": "ea3dbdfaa0a55a9b09326524bc4a354cae01b44ae51ff5f19ffc2e9ea965cf44",
    "results.csv": "b042bf047ec3c68671541fca835e7ec9dd5805f7892bfc123ffb84a8ff1dc447",
}


def test_pcs_suite_trap_indices_decide_by_shape(tmp_path):
    """Exact equality gives the bounded verdicts, without walking the trap intervals."""
    start = time.perf_counter()
    assert experiments.run_experiment("pcs-suite", {"max_k": 11}, tmp_path) == 0
    assert time.perf_counter() - start < 3.0
    for name, digest in PCS_K11_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_exhausted_chain_force_budget_reports_partial(tmp_path, capsys, monkeypatch):
    """A cap below the 5,550 candidates of anchor 13's first member leaves the pair undecided."""
    monkeypatch.setattr(experiments, "CSD_PAIR_MAX_CANDIDATES", 2_000)
    out = tmp_path / "partial"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_anchor": 13, "chain_anchor": 13}))
    code = main(["run", "--experiment", "csd-chain", "--config", str(config), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out == f"csd-chain: partial (budget) -> {out}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] and report["summary"]["reference_pair_status"] == "inconclusive"


def test_marker_prefix_length_is_the_family_ell():
    """The families take ell from the value check's formula: p*(stretch * <m, p*, 1>)."""
    registry = build_default_registry()
    cases = [([0, 1], list(registry)), ([1, 1], [0, 3, 4]), ([0, 2], [0, 3])]
    for poly, m_ids in cases:
        p_code = poly_encode(poly)
        for m_id in m_ids:
            for stretch in (1, families.MERGED_STRETCH):
                t = encode_tuple([m_id, p_code, 1])
                assert families.marker_prefix_length(poly, m_id, stretch) == (
                    poly_eval(p_code, stretch * t)
                )
            assert families.make_msd(registry, m_id, p_code).ell == (
                families.marker_prefix_length(poly, m_id, 1)
            )
            assert families.make_merged(registry, m_id, p_code).descriptors.ell == (
                families.marker_prefix_length(poly, m_id, families.MERGED_STRETCH)
            )


@pytest.mark.parametrize(
    "experiment,config,ell",
    [
        ("msd-defeat", {"learner_ids": [3], "poly": [0, 2]}, 147_064),
        ("merged-split", {"learner_id": 0, "poly": [0, 2]}, 434_334),
        ("merged-split", {"learner_id": 3, "poly": [0, 2]}, 441_192),
        ("msd-defeat", {"learner_ids": [3], "poly": [1, 2, 0]}, 81_911_543),
        ("merged-split", {"learner_id": 3, "poly": [2, 2]}, 89_615_048),
        ("msd-defeat", {"learner_ids": [3], "poly": [4, 1]}, 105_713_070),
        ("msd-defeat", {"learner_ids": [3], "poly": [0, 1, 1]}, 4_344_446_780_694_306),
        ("merged-split", {"learner_id": 3, "poly": [1, 2, 0]}, 245_734_627),
        ("msd-linear", {"learner_id": 4, "poly": [1] * 64}, None),
        ("merged-split", {"learner_id": 3, "poly": [4, 1]}, 317_139_202),
        (
            "msd-linear",
            {"learner_id": 0, "poly": [0, 1, 6]},
            240_254_518_123_360_008_721_381_658_745_868_144_114_880,
        ),
        (
            "msd-defeat",
            {"learner_ids": [0], "poly": [0, 1, 6]},
            240_254_518_123_360_008_721_381_658_745_868_144_114_880,
        ),
        ("merged-split", {"learner_id": 3, "poly": [99999, 1]}, None),
        ("msd-defeat", {"learner_ids": [3], "poly": [99999, 1]}, None),
    ],
)
def test_marker_code_bound_admits_what_runs(experiment, config, ell, tmp_path):
    """Each marker experiment admits any prefix whose codes stay small, and it runs.

    A partial code of p* above ``MARKER_MAX_CODE`` refuses a poly before any
    code grows large: a 64-coefficient poly after a few pairs.  msd-defeat
    streams its prefix as one run, so even an ell past ``sys.maxsize`` runs
    to exit 0; the other two read at most ``adversary.COMPUTE_Q_MAX_ACTIONS``
    markers of theirs.  ``ell`` None is a refusal.
    """
    spec = EXPERIMENTS[experiment]
    merged = {**{key: entry.default for key, entry in spec.keys.items()}, **config}
    [m_id] = merged.get("learner_ids", [merged.get("learner_id")])
    stretch = families.MERGED_STRETCH if experiment == "merged-split" else 1
    if ell is None:
        refusal = "marker family code above"
        with pytest.raises(ValueError, match=f"{refusal} 100000000"):
            families.marker_prefix_length(merged["poly"], m_id, stretch)
        with pytest.raises(experiments.ConfigError, match=refusal):
            spec.check_values(merged)
    else:
        assert families.marker_prefix_length(merged["poly"], m_id, stretch) == ell
        spec.check_values(merged)
        assert experiments.run_experiment(experiment, config, tmp_path / "run") == 0


def test_a_long_marker_defeat_takes_under_a_second_and_5_mb(tmp_path):
    """A defeat on an 81,911,543-marker prefix stays within 1 s and a 5 MB ``tracemalloc``
    peak: the prefix is one run, so the defeat's cost does not grow with ell.

    This prefix was the longest that ran in 1 GB when the prefix was a flat tuple.
    """
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = experiments.run_experiment(
            "msd-defeat", {"learner_ids": [3], "poly": [1, 2, 0]}, tmp_path / "defeat"
        )
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads((tmp_path / "defeat" / "report.json").read_text())
    assert report["summary"]["reports"][0]["prefix_length"] == 81_911_543
    assert seconds < 1.0, f"the defeat took {seconds:.2f} s"
    assert peak < 5 << 20, f"the defeat's tracemalloc peak was {peak / 2**20:.1f} MB"


def test_reference_pair_budget_covers_its_search_space(tmp_path, capsys):
    """At anchor 13 the pair's budget is 74 + 74**2 + 149 + 149**2, and the search decides."""
    family = families.make_csd()
    chain = family.chain_indices(13)[:2]
    assert experiments._extension_space(family, chain) == 27_900
    out = tmp_path / "decided"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_anchor": 13, "chain_anchor": 13, "chain_length": 2}))
    code = main(["run", "--experiment", "csd-chain", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"csd-chain: ok -> {out}\n"
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["reference_pair_status"] == "failure-witness"
    assert summary["reference_pair_witness"] == chain[0]


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_rerun_replaces_the_output_directory_whole(tmp_path, capsys):
    """A second run leaves exactly its own files: no stale transcript of the first survives."""
    out, fresh = tmp_path / "defeat", tmp_path / "fresh"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"learner_ids": [3]}))
    assert main(["run", "--experiment", "msd-defeat", "--out", str(out)]) == 0
    assert "defeat_m4_target0.jsonl" in _files(out)
    second = ["run", "--experiment", "msd-defeat", "--config", str(config)]
    assert main([*second, "--out", str(out)]) == 0
    assert main([*second, "--out", str(fresh)]) == 0
    assert _files(out) == _files(fresh)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "defeat", "fresh"]


def test_failing_experiment_leaves_the_earlier_run(tmp_path, monkeypatch):
    out = tmp_path / "halting"
    assert main(["run", "--experiment", "halting-psd", "--out", str(out)]) == 0
    before = _files(out)

    def fails(config):
        raise RuntimeError("mid-run failure")

    spec = experiments.EXPERIMENTS["halting-psd"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "halting-psd", replace(spec, fn=fails))
    with pytest.raises(RuntimeError, match="mid-run failure"):
        main(["run", "--experiment", "halting-psd", "--out", str(out)])
    assert _files(out) == before
    assert [path.name for path in tmp_path.iterdir()] == ["halting"]


FOREIGN = "is not empty and holds no earlier run (a report.json among plain files)"


@pytest.mark.parametrize(
    "layout,reason",
    [
        ({"notes.txt": "mine"}, FOREIGN),
        ({"report.json": "{}", "data": None}, FOREIGN),
        (None, "exists and is not a directory"),
    ],
    ids=["foreign-files", "report-beside-a-directory", "a-file"],
)
def test_run_will_not_replace_what_is_not_an_earlier_run(tmp_path, capsys, layout, reason):
    """Exit 2 with one stderr line, and the path is left exactly as it was."""
    out = tmp_path / "target"
    if layout is None:
        out.write_text("not a directory")
    else:
        out.mkdir()
        for name, text in layout.items():
            if text is None:
                (out / name).mkdir()
            else:
                (out / name).write_text(text)
    before = sorted(out.rglob("*")) if out.is_dir() else out.read_text()
    assert main(["run", "--experiment", "halting-psd", "--out", str(out)]) == 2
    after = sorted(out.rglob("*")) if out.is_dir() else out.read_text()
    assert after == before
    assert [path.name for path in tmp_path.iterdir()] == ["target"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"will not replace --out: {out} {reason}\n"


def test_run_will_not_replace_the_working_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "report.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--experiment", "halting-psd", "--out", "."]) == 2
    assert capsys.readouterr().err == "will not replace --out: . holds the working directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]
