"""Property: a config with one wrong-typed value or one unknown key is a usage error.

``run_experiment`` must raise ``ConfigError`` (exit 2 from the CLI) before it
creates the output directory, for every key of every experiment.  Nothing
runs, so the property is cheap.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from txtex_lab import experiments
from txtex_lab.experiments import EXPERIMENTS, ConfigError, run_experiment

# The JSON kind each config type expects; a value of any other kind is wrong.
KIND = {
    experiments.SEED.type: int,
    experiments.NATURAL: int,
    experiments.POSITIVE: int,
    experiments.LEARNER_ID: int,
    experiments.NATURALS: list,
    experiments.POLY: list,
    experiments.N_RANGE: list,
    experiments.LEARNER_IDS: list,
    experiments.NATURAL_SETS: list,
    experiments.NATURAL_SET_PAIR: list,
    experiments.TRAP_LEARNERS: list,
}

# Strings are drawn from a small alphabet: any string is wrong, and small ones draw fast.
strings = st.text("ab_", max_size=3)
# No config value, nor any member of one, may be one of these.
wrong_scalars = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), strings)
json_values = st.recursive(
    st.one_of(wrong_scalars, st.integers(-5, 30)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(strings, inner, max_size=3),
    max_leaves=6,
)
# Values of each JSON kind; ``bool`` is a kind of its own, not an ``int``.
BY_KIND = {
    type(None): st.none(),
    bool: st.booleans(),
    float: st.floats(allow_nan=False),
    str: strings,
    int: st.integers(-5, 30),
    list: st.lists(json_values, max_size=3),
    dict: st.dictionaries(strings, json_values, max_size=3),
}


@st.composite
def wrong_values(draw, expected: type):
    """A value of another JSON kind, or of the expected kind with one wrong member."""
    if expected is int or draw(st.booleans()):
        others = [values for kind, values in BY_KIND.items() if kind is not expected]
        return draw(st.one_of(others))
    members = draw(BY_KIND[list])
    members.insert(draw(st.integers(0, len(members))), draw(wrong_scalars))
    return members


@st.composite
def bad_configs(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    spec = EXPERIMENTS[name]
    keys = {**spec.keys, "seed": experiments.SEED}
    # any valid defaults ride along, so the bad entry is not always alone
    config = {key: entry.default for key, entry in spec.keys.items() if draw(st.booleans())}
    if draw(st.booleans()):
        letters = "abcdefghijklmnopqrstuvwxyz_"
        key = draw(st.text(letters, min_size=1, max_size=8).filter(lambda key: key not in keys))
        config[key] = draw(json_values)
    else:
        key = draw(st.sampled_from(sorted(keys)))
        config[key] = draw(wrong_values(KIND[keys[key].type]))
    return name, config


def test_every_schema_type_has_a_kind():
    for spec in EXPERIMENTS.values():
        assert {entry.type for entry in spec.keys.values()} <= set(KIND)


@settings(max_examples=400, deadline=None)
@given(bad_configs())
def test_bad_config_is_a_usage_error_before_any_output(case):
    name, config = case
    with tempfile.TemporaryDirectory() as parent:
        out = Path(parent) / "never"
        with pytest.raises(ConfigError):
            run_experiment(name, config, out)
        assert not out.exists()
