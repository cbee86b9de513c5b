from dataclasses import replace

import pytest

from txtex_lab import verify
from txtex_lab.descriptor import StepResult, recognizer_step
from txtex_lab.families import HaltingFamily
from txtex_lab.verify import SUITES, verify_descriptor, verify_families, verify_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(verify_run, suite):
    results, _ = verify_run(suite)
    assert results
    failed = [r.name for r in results if not r.passed]
    assert not failed


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        verify_suite("nope")


def test_descriptor_suite_reports_orderings_covered(verify_run):
    [result], _ = verify_run("descriptor")
    assert result.passed
    assert result.cases == 676_164
    assert result.note == "268 descriptors"


def _value_depends_on_order(state, code):
    """Completes with n + 1 whenever the smallest code arrives last."""
    nxt, res = recognizer_step(state, code)
    if res.status == "complete" and state.seen and code < min(state.seen):
        return nxt, StepResult("complete", res.value + 1)
    return nxt, res


def _fires_early_on_some_orders(state, code):
    """Completes early when the second distinct element exceeds the first."""
    nxt, res = recognizer_step(state, code)
    if res.status == "partial" and len(state.seen) == 1 and code > min(state.seen):
        return nxt, StepResult("complete", nxt.x_sum)
    return nxt, res


def _state_depends_on_order(state, code):
    """Stores a shifted sum, without showing it yet, when the second element exceeds the first."""
    nxt, res = recognizer_step(state, code)
    if res.status == "partial" and len(state.seen) == 1 and code > min(state.seen):
        return replace(nxt, x_sum=nxt.x_sum + 1), res
    return nxt, res


@pytest.mark.parametrize(
    "faulty", [_value_depends_on_order, _fires_early_on_some_orders, _state_depends_on_order]
)
def test_descriptor_suite_catches_order_dependent_recognizer(monkeypatch, faulty):
    monkeypatch.setattr(verify, "recognizer_step", faulty)
    [result] = verify_descriptor()
    assert not result.passed


def test_families_suite_catches_stages_that_forget(monkeypatch):
    """Read backwards, the enumeration drops elements it had let in."""
    at_stage = HaltingFamily.member_at_stage
    monkeypatch.setattr(
        HaltingFamily, "member_at_stage", lambda self, n, s: at_stage(self, n, 3 - s)
    )
    [staged] = [r for r in verify_families() if r.name == "staged membership monotone in the stage"]
    assert not staged.passed
    assert staged.cases == 6
