import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from txtex_lab import adversary, agents, codec, families, verify
from txtex_lab.codec import signed_int, signed_int_inv
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


def _odds_off_by_one(n):
    """1 and 0 both map to 0; every odd n lands one above its place."""
    return n // 2 if n % 2 == 0 else -(n // 2)


def _gapped_inverse(z):
    """Negatives go to 3, 5, 7, ...: 1 is never an image."""
    return 2 * z if z >= 0 else -2 * z + 1


def _collides_where_the_inverse_never_lands(n):
    """Undoes ``_gapped_inverse`` everywhere it lands, and maps 1 onto 0's image."""
    return n // 2 if n % 2 == 0 else -((n - 1) // 2)


def _set_form_passes(forward, inverse):
    """The bijection check as a set of 20,001 images: right inverse and no collision."""
    right = all(forward(inverse(z)) == z for z in range(-10_000, 10_001))
    return right and len({forward(n) for n in range(20_001)}) == 20_001


@pytest.mark.parametrize(
    "forward,inverse",
    [
        (_odds_off_by_one, signed_int_inv),
        (signed_int, lambda z: 2 * abs(z)),  # not injective: -z and z share an image
        (_collides_where_the_inverse_never_lands, _gapped_inverse),  # a right inverse
    ],
    ids=["odds-off-by-one", "non-injective-inverse", "collision-off-the-inverse"],
)
def test_codec_suite_catches_a_broken_signed_bijection(monkeypatch, forward, inverse):
    """Each pair fails the set form, and the streamed two-sided inverse catches it too."""
    assert not _set_form_passes(forward, inverse)
    monkeypatch.setattr(verify, "signed_int", forward)
    monkeypatch.setattr(verify, "signed_int_inv", inverse)
    # the tuple sweep stops at its first failure, which keeps each run short
    monkeypatch.setattr(verify, "encode_tuple", lambda xs: -1)
    checks = {r.name: r for r in verify.verify_codec()}
    assert not checks["signed bijection"].passed
    assert checks["signed bijection"].cases == 40_002


@pytest.mark.parametrize("broken_n,broken_k", [(0, 1), (99_999, 2), (0, 3), (99_999, 4)])
def test_codec_suite_stops_at_the_first_broken_tuple(monkeypatch, broken_n, broken_k):
    """One wrong decode fails the sweep, counted at its place in arity-major order."""
    decoded = {"calls": 0, "last": None}

    def decode_tuple(n, k):
        decoded["calls"] += 1
        decoded["last"] = (n, k)
        xs = codec.decode_tuple(n, k)
        return (*xs[:-1], xs[-1] + 1) if (n, k) == (broken_n, broken_k) else xs

    monkeypatch.setattr(verify, "decode_tuple", decode_tuple)
    check = verify.verify_codec()[0]
    position = (broken_k - 1) * 100_000 + broken_n + 1
    assert check.name == "tuple roundtrip with bounded coordinates"
    assert not check.passed and check.cases == position
    assert decoded == {"calls": position, "last": (broken_n, broken_k)}


def _poly_eval_off_at_3(code, x):
    return codec.poly_eval(code, x) + (x == 3)


def _canonical_decode_without_20(code):
    return codec.canonical_decode(code) - {20}


def _quarter_query_bound(n, a, bound=agents.exp_search_query_bound):
    return max(1, bound(n, a) // 4)  # a bound of 0 would divide by zero in the worst ratio


@pytest.mark.parametrize(
    "suite,owner,name,faulty,check",
    [
        (
            verify.verify_codec,
            verify,
            "poly_eval",
            _poly_eval_off_at_3,
            "polynomial evaluation vs direct sum",
        ),
        (
            verify.verify_codec,
            verify,
            "canonical_decode",
            _canonical_decode_without_20,
            "canonical set codes roundtrip",
        ),
        (
            verify.verify_families,
            verify,
            "is_subset",
            lambda sub, sup: False,
            "chain inclusions strict below each chain top",
        ),
        (
            verify.verify_agents,
            agents,
            "exp_search_query_bound",
            _quarter_query_bound,
            "endpoint search exact within the query bound",
        ),
        (
            verify.verify_families,
            families.TupleContents,
            "min_index",
            lambda self, n: n + 1,
            "member(min_index) equals member",
        ),
    ],
    ids=[
        "poly-eval-off-at-3",
        "canonical-decode-drops-20",
        "is-subset-never",
        "query-bound-quartered",
        "tuple-min-index-one-past",
    ],
)
def test_codec_suite_fails_only_the_check_of_a_broken_map(
    monkeypatch, suite, owner, name, faulty, check
):
    """A suite with one map broken fails that map's check and no other."""
    monkeypatch.setattr(owner, name, faulty)
    failed = [r.name for r in suite() if not r.passed]
    assert failed == [check]


def test_adversary_suite_catches_a_defeat_whose_hypothesis_fits_both_targets(monkeypatch):
    """With every hypothesis judged correct, no defeat is wrong for a target: only the
    defeat check fails."""
    monkeypatch.setattr(adversary, "hypothesis_correct", lambda *args: True)
    failed = [r.name for r in verify.verify_adversary() if not r.passed]
    assert failed == ["defeat transcripts agree through the marker prefix"]


# VmHWM is the peak resident set of the probe's own address space.  Its
# ru_maxrss would not do: Linux carries a process's ru_maxrss across fork and
# exec, so the probe would start at the test runner's far larger peak.
_RSS_PROBE = """
import re
from txtex_lab.verify import verify_codec

def peak_rss():
    with open("/proc/self/status") as fh:
        return int(re.search(r"^VmHWM:\\s+(\\d+) kB", fh.read(), re.M).group(1)) * 1024

before = peak_rss()
passed = all(result.passed for result in verify_codec())
print(passed, peak_rss() - before)
"""


def test_codec_suite_holds_no_large_scratch_memory():
    """In a fresh interpreter, the codec suite raises peak RSS by under 1 MB.

    A set of the 20,001 signed images alone raised it by about 3 MB.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("reads the peak resident set from Linux procfs")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[0] == "True"
    assert int(out[1]) < 1 << 20, f"codec suite raised peak RSS by {int(out[1]) / 2**20:.2f} MB"
