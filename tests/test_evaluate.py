import pytest

from txtex_lab import agents, families
from txtex_lab.codec import poly_encode
from txtex_lab.evaluate import (
    Verdict,
    check_characteristic_sample,
    evaluate_run,
    hypothesis_correct,
)
from txtex_lab.session import Budget, Emit, Learner, Read, run_session
from txtex_lab.text import make_text


@pytest.fixture(scope="module")
def pow2():
    return families.make_basic_family("pow2")


def test_evaluate_rejects_unknown_criterion(pow2):
    transcript = run_session(
        agents.make_pow2_pmc_learner(), pow2.canonical_text(2), budget=Budget(horizon=20, window=5)
    )
    with pytest.raises(ValueError):
        evaluate_run(transcript, pow2, 2, poly_encode([2, 1]), "XYZ")


def test_evaluate_non_converged(pow2):
    def program():
        n = 0
        while True:
            yield Read()
            n += 1
            yield Emit(n)  # changes forever

    restless = Learner("restless", program)
    transcript = run_session(restless, pow2.canonical_text(3), budget=Budget(horizon=20, window=4))
    verdict = evaluate_run(transcript, pow2, 3, poly_encode([2, 1]), "PMC")
    assert not verdict.passed and verdict.reason == "non-converged"


def test_evaluate_wrong_hypothesis(pow2):
    def program():
        yield Emit(7)

    wrong = Learner("wrong", program)
    transcript = run_session(wrong, pow2.canonical_text(3), budget=Budget(horizon=10))
    verdict = evaluate_run(transcript, pow2, 3, poly_encode([2, 1]), "PMC")
    assert not verdict.passed and verdict.reason == "wrong-hypothesis"

    def negative():
        yield Emit(-1)

    finite = families.make_basic_family("finite-canonical")  # no index below 0
    transcript = run_session(
        Learner("negative", negative), finite.canonical_text(3), budget=Budget(horizon=10)
    )
    verdict = evaluate_run(transcript, finite, 3, poly_encode([2, 1]), "PMC")
    assert verdict == Verdict(False, "bad-hypothesis", {"hypothesis": -1})


def test_evaluate_pmc_pass_and_fail(pow2):
    learner = agents.make_pow2_pmc_learner()
    transcript = run_session(learner, pow2.canonical_text(5), budget=Budget(horizon=60, window=10))
    assert evaluate_run(transcript, pow2, 5, poly_encode([2, 1]), "PMC").passed
    # zero polynomial allows no mind changes
    verdict = evaluate_run(transcript, pow2, 5, poly_encode([0]), "PMC")
    assert not verdict.passed and verdict.reason == "mind-change-bound-exceeded"


def test_evaluate_psd_example(pow2):
    plain = agents.make_pow2_plain_learner()
    transcript = run_session(plain, pow2.canonical_text(5), budget=Budget(horizon=60, window=10))
    verdict = evaluate_run(transcript, pow2, 5, poly_encode([0, 0, 1]), "PSD")
    assert not verdict.passed
    assert verdict.details["distinct_at_convergence"] == 2**5 + 1


def test_evaluate_prt_counts_queries(pow2):
    oracle_learner = agents.make_pow2_oracle_learner()
    target = pow2.member(4)
    transcript = run_session(
        oracle_learner, pow2.canonical_text(4), oracle=target, budget=Budget(horizon=40)
    )
    assert evaluate_run(transcript, pow2, 4, poly_encode([8, 0, 0, 1]), "PRT").passed
    verdict = evaluate_run(transcript, pow2, 4, poly_encode([1]), "PRT")
    assert not verdict.passed and verdict.reason == "query-bound-exceeded"
    # 7 queries fit a bound of 8, but the 8 ticks at convergence reach it
    verdict = evaluate_run(transcript, pow2, 4, poly_encode([8]), "PRT")
    assert not verdict.passed and verdict.reason == "tick-bound-exceeded"
    details = verdict.details
    assert (details["queries_at_convergence"], details["ticks_at_convergence"]) == (7, 8)


def test_evaluate_deterministic_on_replay(pow2):
    learner = agents.make_pow2_pmc_learner()
    text = make_text("seeded", pow2.member(4), seed=3)
    verdicts = []
    for _ in range(2):
        transcript = run_session(learner, text, budget=Budget(horizon=40, window=8))
        verdicts.append(evaluate_run(transcript, pow2, 4, poly_encode([2, 1]), "PMC"))
    assert verdicts[0] == verdicts[1]


def test_hypothesis_correct_accepts_any_index_of_the_set():
    family = families.make_halting_family({1})
    # indices 3 and 4 both code {2, 3}
    assert hypothesis_correct(family, 4, 3)
    assert hypothesis_correct(family, 3, 4)
    assert not hypothesis_correct(family, 5, 3)


def test_char_sample_pcsg():
    family = families.make_basic_family("pcs-G")
    for n in range(1, 9):
        verdict = check_characteristic_sample(
            agents.make_pcsG_oracle_learner,
            family,
            n,
            [n],
            poly_encode([2, 1]),
            max_text_len=4,
            max_universe=20,
        )
        assert verdict.passed
        assert verdict.details["locked_output"] == n
        assert verdict.details["exhaustive"]


def test_char_sample_join_singletons_size_one():
    family = families.make_basic_family("join-singletons")
    verdict = check_characteristic_sample(
        agents.make_join_evens_learner,
        family,
        5,
        [10],
        poly_encode([2, 1]),
        max_text_len=3,
        max_universe=15,
        use_oracle=False,
    )
    assert verdict.passed and verdict.details["sample_size"] == 1


def test_char_sample_thm64_size_two():
    family = families.make_thm64_g()
    for n in (2, 3):
        index = 2 * n
        verdict = check_characteristic_sample(
            agents.make_thm64_pcs_learner,
            family,
            index,
            [2 * n, 2 * 2**n + 1],
            poly_encode([3, 1]),
            max_text_len=3,
            max_universe=2 * 2**n + 2,
            use_oracle=False,
        )
        assert verdict.passed and verdict.details["exhaustive"]


def test_char_sample_rejections():
    family = families.make_basic_family("pcs-G")
    poly = poly_encode([2, 1])
    # sample outside the target
    verdict = check_characteristic_sample(
        agents.make_pcsG_oracle_learner, family, 3, [9], poly, max_text_len=3, max_universe=10
    )
    assert not verdict.passed and verdict.reason == "sample-outside-target"
    # oversized sample
    verdict = check_characteristic_sample(
        agents.make_pcsG_oracle_learner,
        family,
        1,
        [0, 1],
        poly_encode([1]),
        max_text_len=3,
        max_universe=10,
    )
    assert not verdict.passed and verdict.reason == "sample-too-large"


def test_char_sample_empty_sample_fails_for_changing_learner():
    family = families.make_basic_family("pcs-G")
    verdict = check_characteristic_sample(
        agents.make_pcsG_oracle_learner,
        family,
        4,
        [],
        poly_encode([2, 1]),
        max_text_len=3,
        max_universe=8,
    )
    assert not verdict.passed
    assert verdict.reason == "output-not-fixed"
    assert "prefix" in verdict.details


def test_char_sample_sampled_mode_flagged():
    family = families.make_thm64_g()
    n = 8
    verdict = check_characteristic_sample(
        agents.make_thm64_pcs_learner,
        family,
        2 * n,
        [2 * n, 2 * 2**n + 1],
        poly_encode([3, 1]),
        max_text_len=3,
        max_universe=2 * 2**n + 2,
        use_oracle=False,
    )
    assert verdict.passed
    assert verdict.details["exhaustive"] is False


def _offset_power_check(n, seed, make_learner=agents.make_thm64_pcs_learner):
    return check_characteristic_sample(
        make_learner,
        families.make_thm64_g(),
        2 * n,
        [2 * n, 2 * 2**n + 1],
        poly_encode([2, 1]),
        max_text_len=3,
        max_universe=2 * 2**n + 2,
        use_oracle=False,
        seed=seed,
    )


# (seed, n) -> covering_prefixes_checked of the sampled offset-power checks
SAMPLED_COVERING_COUNTS = {
    (0, 6): 3224,
    (0, 7): 3227,
    (0, 8): 3251,
    (11, 6): 3353,
    (11, 7): 3394,
    (11, 8): 3403,
}


@pytest.mark.parametrize("seed,n", sorted(SAMPLED_COVERING_COUNTS))
def test_sampled_char_sample_verdicts_are_pinned(seed, n):
    verdict = _offset_power_check(n, seed)
    assert verdict.passed and verdict.reason == "ok"
    assert verdict.details == {
        "locked_output": 2 * n,
        "covering_prefixes_checked": SAMPLED_COVERING_COUNTS[seed, n],
        "exhaustive": False,
        "sample_size": 2,
    }


def without_program(make_learner, made):
    """``make_learner``, whose learners raise if their program starts; ``made`` lists them."""

    def program():
        raise AssertionError("a characteristic-sample check started a learner program")

    def make():
        learner = make_learner()
        learner.program = program
        made.append(learner)
        return learner

    return make


@pytest.mark.parametrize("exhaustive", [True, False])
def test_a_check_steps_its_learner_and_starts_no_program(exhaustive):
    made = []
    if exhaustive:
        verdict = check_characteristic_sample(
            without_program(agents.make_pcsG_oracle_learner, made),
            families.make_basic_family("pcs-G"),
            3,
            [3],
            poly_encode([2, 1]),
            max_text_len=3,
            max_universe=10,
        )
    else:
        verdict = _offset_power_check(6, 11, without_program(agents.make_thm64_pcs_learner, made))
        assert verdict.details["covering_prefixes_checked"] == SAMPLED_COVERING_COUNTS[11, 6]
    assert verdict.passed and verdict.details["exhaustive"] is exhaustive
    assert len(made) == 1


def test_a_learner_without_a_step_is_refused_by_name():
    stepped = agents.make_pcsG_oracle_learner()
    program_only = Learner("program-only", stepped.program, stepped.cost_note)
    with pytest.raises(TypeError, match="learner program-only has no step"):
        check_characteristic_sample(
            lambda: program_only,
            families.make_basic_family("pcs-G"),
            3,
            [3],
            poly_encode([2, 1]),
            max_text_len=3,
            max_universe=10,
        )


def test_a_sample_above_the_universe_is_covered_by_no_sequence():
    """No word over pcs-G 21's elements up to 20 holds 21, though the sampler splices it in."""
    verdict = check_characteristic_sample(
        agents.make_pcsG_oracle_learner,
        families.make_basic_family("pcs-G"),
        21,
        [21],
        poly_encode([2, 1]),
        max_text_len=4,
        max_universe=20,
    )
    assert verdict == Verdict(False, "no-covering-prefix", {"exhaustive": False})


def test_a_text_longer_than_the_walk_can_nest_is_refused():
    """A one-letter universe keeps 1,100 letters exhaustive; the walk would nest 1,100 deep."""
    with pytest.raises(ValueError, match="max_text_len 1100 is above 100"):
        check_characteristic_sample(
            agents.make_pcsG_oracle_learner,
            families.make_basic_family("pcs-G"),
            0,
            [0],
            poly_encode([2, 1]),
            max_text_len=1100,
            max_universe=0,
        )
