"""Kept mutants: each breaks one spot of the library, and names the tests that must fail on it.

A mutant is an exact snippet of a source file, the text that replaces it and
the node ids of the tests that must fail once it is replaced.  Together the
entries measure how strong the checks are; a later refactor of a test, or of
the code under it, that lets a mutant survive is seen at once.

``tests/test_mutants.py`` checks at every Tier-1 run that each snippet
occurs exactly once in its file, so a refactor updates this list instead of
orphaning it.  Running this file does the mutation run::

    python tests/mutants.py

It copies the checkout (without ``.git``) into a temporary directory,
applies each mutant there in turn, runs only its named tests against the
copy's ``src``, and exits 1 if some named test still passes.  The checkout
itself is never written.  It needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    killed_by: tuple[str, ...]  # pytest node ids that must fail


SESSION = "src/txtex_lab/session.py"
AGENTS = "src/txtex_lab/agents.py"
ADVERSARY = "src/txtex_lab/adversary.py"
EVALUATE = "src/txtex_lab/evaluate.py"
TEXT = "src/txtex_lab/text.py"
EXPERIMENTS = "src/txtex_lab/experiments.py"
SETS_TEXT = "tests/test_sets_text.py"
SESSION_PROPERTIES = "tests/test_session_properties.py"
STEP_PROPERTIES = "tests/test_step_properties.py"
CHAR_SAMPLE_PROPERTIES = "tests/test_char_sample_properties.py"

MUTANTS = [
    # run_session's tick check lets one action run past the budget
    Mutant(
        SESSION,
        "            if ticks >= max_ticks:\n",
        "            if ticks > max_ticks:\n",
        (
            f"{SESSION_PROPERTIES}::test_run_session_logs_what_the_reference_derives[False]",
            f"{SESSION_PROPERTIES}::test_run_session_logs_what_the_reference_derives[True]",
            f"{SESSION_PROPERTIES}::test_run_on_sequence_is_the_session_stopped_past_the_end",
            "tests/test_session.py::test_run_on_sequence_work_counts_its_units",
        ),
    ),
    # a teacherless session reads one raw position past its horizon
    Mutant(
        SESSION,
        "                    if raw >= horizon:\n",
        "                    if raw > horizon:\n",
        (
            f"{SESSION_PROPERTIES}::test_run_session_logs_what_the_reference_derives[False]",
            f"{SESSION_PROPERTIES}::test_run_on_sequence_is_the_session_stopped_past_the_end",
            "tests/test_session.py::test_run_on_sequence_semantics",
        ),
    ),
    # run_on_sequence stops counting the read past the end as an action
    Mutant(
        SESSION,
        'len(transcript.events) + (transcript.end_reason == "horizon")',
        "len(transcript.events)",
        (
            f"{SESSION_PROPERTIES}::test_run_on_sequence_is_the_session_stopped_past_the_end",
            "tests/test_session.py::test_run_on_sequence_semantics",
        ),
    ),
    # negative work refunds ticks, and no work spends none
    Mutant(
        SESSION,
        "if type(units) is not int or units < 1:",
        "if type(units) is not int:",
        (
            "tests/test_session.py::test_work_units_must_be_a_natural[-1]",
            "tests/test_session.py::test_work_units_must_be_a_natural[0]",
            f"{SESSION_PROPERTIES}::test_run_session_logs_what_the_reference_derives[False]",
            f"{SESSION_PROPERTIES}::test_run_on_sequence_is_the_session_stopped_past_the_end",
        ),
    ),
    # the step program, alone or composed, never emits its learner's first hypothesis
    Mutant(
        SESSION,
        "    if learner.first is not None:\n        yield emit(learner.first)\n",
        "",
        (
            f"{STEP_PROPERTIES}::test_a_derived_program_is_its_table_unrolled",
            f"{SESSION_PROPERTIES}::"
            "test_a_stepped_pair_is_its_script_and_matches_the_two_agent_session[composed]",
        ),
    ),
    # the composed pair steps only the first item a teacher passes on
    Mutant(
        SESSION,
        "for item in (datum,) if on_input is None else on_input(datum):",
        "for item in (datum,) if on_input is None else on_input(datum)[:1]:",
        (
            f"{SESSION_PROPERTIES}::"
            "test_a_stepped_pair_is_its_script_and_matches_the_two_agent_session[composed]",
        ),
    ),
    # the gated conversion emits the latest hypothesis after the raw read, not before it
    Mutant(
        AGENTS,
        "            if latest != emitted:\n"
        "                yield emit(latest)\n"
        "                emitted = latest\n"
        "            for item in on_input((yield READ)):\n",
        "            datum = yield READ\n"
        "            if latest != emitted:\n"
        "                yield emit(latest)\n"
        "                emitted = latest\n"
        "            for item in on_input(datum):\n",
        (
            f"{SESSION_PROPERTIES}::"
            "test_a_stepped_pair_is_its_script_and_matches_the_two_agent_session[gated]",
            "tests/test_agents.py::"
            "test_convert_psdT_to_pmc_emits_the_latest_hypothesis_before_each_raw_read",
        ),
    ),
    # the count encoder anchors to the latest datum, not the least seen
    Mutant(
        AGENTS,
        "                    self.anchor = self.least\n",
        "                    self.anchor = datum\n",
        ("tests/test_teacher_properties.py::test_count_encoding_teacher_matches_the_reference",),
    ),
    # step_through lets a None hypothesis overwrite the last one
    Mutant(
        SESSION,
        "        if hypothesis is not None:\n            last = hypothesis\n",
        "        last = hypothesis\n",
        (f"{STEP_PROPERTIES}::test_a_derived_program_is_its_table_unrolled",),
    ),
    # the marker family's floor ignores the query ceiling
    Mutant(
        "src/txtex_lab/families.py",
        "self.floor = max(self.query_ceiling, max(self.markers))",
        "self.floor = max(self.markers)",
        ("tests/test_defeat_properties.py::test_the_marker_trap_defeats_every_oracle_learner",),
    ),
    # compute_q's marker run stops one marker short of the prefix
    Mutant(
        ADVERSARY,
        "repeat(marker_element(0), min(ell, COMPUTE_Q_MAX_ACTIONS))",
        "repeat(marker_element(0), min(ell - 1, COMPUTE_Q_MAX_ACTIONS))",
        ("tests/test_defeat_properties.py::test_the_marker_trap_defeats_every_oracle_learner",),
    ),
    # a prefixed text streams each run one element short
    Mutant(
        TEXT,
        "repeat(element, count) if",
        "repeat(element, count - 1) if",
        (
            f"{SETS_TEXT}::test_prefixed_text_and_content_guard",
            "tests/test_session.py::test_teacher_edge_sessions_are_pinned[skip-through-teacher]",
            "tests/test_defeat_properties.py::test_a_shared_repeat_prefix_defeats_every_text_learner",
        ),
    ),
    # make_text tests only the first run's element against the target
    Mutant(
        TEXT,
        "        for x, _ in prefix:\n",
        "        for x, _ in prefix[:1]:\n",
        (f"{SETS_TEXT}::test_prefix_guard_asks_each_runs_element_once",),
    ),
    # the covering-word walk keeps to the missing letters one slot early
    Mutant(
        EVALUATE,
        "        if missing.bit_count() < slots:\n",
        "        if missing.bit_count() < slots - 1:\n",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_the_walk_folds_the_covering_product_words_in_order",
            f"{STEP_PROPERTIES}::test_the_covering_word_walk_folds_each_run_output",
        ),
    ),
    # the covering-word walk's memo forgets the last hypothesis
    Mutant(
        EVALUATE,
        "node = (slots, state, last, missing)",
        "node = (slots, state, missing)",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_the_walk_folds_the_covering_product_words_in_order",
            f"{STEP_PROPERTIES}::test_the_walk_decides_every_order",
        ),
    ),
    # the covering-word walk's memo forgets which sample elements are missing
    Mutant(
        EVALUATE,
        "node = (slots, state, last, missing)",
        "node = (slots, state, last)",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_the_walk_folds_the_covering_product_words_in_order",
            f"{STEP_PROPERTIES}::test_the_walk_decides_every_order",
        ),
    ),
    # a sampled check counts a repeated covering draw as none: it counts distinct draws
    Mutant(
        EVALUATE,
        "                passed.add(seq)\n            words += 1\n",
        "                passed.add(seq)\n                words += 1\n",
        (
            "tests/test_evaluate.py::test_sampled_char_sample_verdicts_are_pinned[0-6]",
            "tests/test_evaluate.py::test_sampled_char_sample_verdicts_are_pinned[11-8]",
        ),
    ),
    # the sampler drops the draws as long as the sample's distinct elements, which can cover it
    Mutant(
        EVALUATE,
        "        if length < len(needed):\n",
        "        if length <= len(needed):\n",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_sampled_sequences_keep_the_randint_choice_shuffle_stream[0-1]",
            f"{CHAR_SAMPLE_PROPERTIES}::test_sampled_sequences_keep_the_randint_choice_shuffle_stream[7-66]",
        ),
    ),
    # a spliced draw shorter than a sample with repeats wraps, yet skips the coverage test
    Mutant(
        EVALUATE,
        "            if length >= len(sample):\n",
        "            if length >= len(needed):\n",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_sampled_sequences_keep_the_randint_choice_shuffle_stream[0-1]",
        ),
    ),
    # a draw too short to cover skips its splice draws, and the stream shifts under the next
    Mutant(
        EVALUATE,
        "            if coin() < 0.5:\n",
        "            if coin() < 0.0:\n",
        (
            f"{CHAR_SAMPLE_PROPERTIES}::test_sampled_sequences_keep_the_randint_choice_shuffle_stream[0-1]",
        ),
    ),
    # the covering-word walk keeps a letter on its path after the letter's subtree
    Mutant(
        EVALUATE,
        "                path.pop()\n",
        "",
        (f"{CHAR_SAMPLE_PROPERTIES}::test_the_walk_folds_the_covering_product_words_in_order",),
    ),
    # a bounded walk takes one step less than its bound
    Mutant(
        EVALUATE,
        "            if next(steps) > max_steps:\n",
        "            if next(steps) >= max_steps:\n",
        ("tests/test_adversary.py::test_a_walk_is_stepped_only_if_it_can_pass_within_its_bound",),
    ),
    # the covering-word walk takes the missing letters in sample order, not universe order
    # (the check itself sorts its sample and its universe, so only the walk's own test sees it)
    Mutant(
        EVALUATE,
        "needed = [(x, bits[x]) for x in universe if x in bits]",
        "needed = [(x, bit) for x, bit in bits.items() if x in universe]",
        (f"{CHAR_SAMPLE_PROPERTIES}::test_the_walk_folds_the_covering_product_words_in_order",),
    ),
    # the covering-word walk's memo lives on in a reference cycle until the next gc
    Mutant(
        EVALUATE,
        "        del below  # it refers to itself: free its memo now, not at the next cyclic gc\n",
        "        pass\n",
        (f"{STEP_PROPERTIES}::test_the_walks_leave_no_cyclic_garbage",),
    ),
    # a sampled core whose walk fails or runs past its bound fails without the rest of the sample
    Mutant(
        ADVERSARY,
        "        return walked or all(ends_on)\n",
        "        return walked\n",
        (
            "tests/test_adversary.py::test_a_walk_past_its_bound_falls_back_to_the_drawn_orders",
            "tests/test_adversary.py::"
            "test_a_sampled_search_gets_the_verdict_of_runs_over_the_seeded_orders[even-guesser]",
        ),
    ),
    # a core whose walk could just pass within its bound is not walked
    Mutant(
        ADVERSARY,
        "        if n * 2 ** (n - 1) > max_steps:\n",
        "        if n * 2 ** (n - 1) >= max_steps:\n",
        ("tests/test_adversary.py::test_a_walk_is_stepped_only_if_it_can_pass_within_its_bound",),
    ),
    # a core is walked without its own order stepped flat first: same verdict, more steps
    Mutant(
        ADVERSARY,
        "        output, stepped = flat_output(core)\n"
        "        stats[\"steps\"] += stepped\n"
        "        if output != 2 * k:\n"
        "            return False\n",
        "",
        ("tests/test_adversary.py::test_a_core_whose_own_order_fails_is_not_walked",),
    ),
    # the flat steps' stack is not cut back to the shared prefix: a word resumes from a stale state
    Mutant(
        ADVERSARY,
        "        del stack[shared + 1 :]\n",
        "",
        (f"{STEP_PROPERTIES}::test_prefix_shared_steps_give_each_words_own_output",),
    ),
    # each trap candidate draws its orders from a fresh rng, not from one stream they share
    Mutant(
        ADVERSARY,
        "        orders = itertools.islice(positions, TRAP_SAMPLE_SIZE)\n",
        "        positions = _sampled_arrangements(range(core_size), most, random.Random(seed))\n"
        "        orders = itertools.islice(positions, TRAP_SAMPLE_SIZE)\n",
        (
            "tests/test_adversary.py::"
            "test_sampled_trap_search_draws_one_arrangement_per_failing_candidate",
        ),
    ),
    # a session reuses an emit record for an equal action, not the same one: 1 and True merge
    Mutant(
        SESSION,
        "                if action is not last_emit:\n",
        "                if action != last_emit:\n",
        (f"{SESSION_PROPERTIES}::test_a_repeated_emit_or_skip_logs_its_last_record_again",),
    ),
    # a step learner's program is a closure over the learner again: a reference cycle
    Mutant(
        SESSION,
        "        learner = cls(name, None, cost_note)\n",
        "        learner = cls(name, lambda: _step_program(learner, None), cost_note)\n",
        (
            f"{STEP_PROPERTIES}::test_a_step_learner_is_freed_with_its_last_reference",
            f"{STEP_PROPERTIES}::test_the_walks_leave_no_cyclic_garbage",
        ),
    ),
    # pow2-gap holds index n - 1's transcripts while index n runs
    Mutant(
        EXPERIMENTS,
        "        del plain, oracle_run, pair, sessions"
        "  # free index n's transcripts before n + 1 runs\n",
        "",
        ("tests/test_experiments.py::test_pow2_gap_holds_one_index_of_transcripts",),
    ),
    # chain forcing's fresh teacher never hears the prefix
    Mutant(
        ADVERSARY,
        "                    for datum in sigma:\n                        teacher.on_input(datum)\n",
        "",
        (
            "tests/test_chaser_properties.py::test_stepped_chain_forcing_finds_what_runs_from_scratch_find",
        ),
    ),
    # a config key's cap refuses the cap itself
    Mutant(
        EXPERIMENTS,
        "        if cap is not None and value > cap:\n",
        "        if cap is not None and value >= cap:\n",
        ("tests/test_cli.py::test_default_configs_match_their_schema[pcs-suite]",),
    ),
    # run_experiment checks and fills only the spec's own keys, so no seed reaches a run
    Mutant(
        EXPERIMENTS,
        '    keys = {**spec.keys, "seed": SEED}\n',
        "    keys = spec.keys\n",
        ("tests/test_acceptance.py::test_criterion_11_determinism",),
    ),
]

IGNORED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "out"
)
FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def survivors(mutant: Mutant, copy: Path) -> tuple[list[str], str]:
    """The named tests that pass on ``copy`` with ``mutant`` applied, and pytest's output."""
    source = copy / mutant.path
    original = source.read_text()
    if original.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.path}: the snippet does not occur once: {mutant.snippet!r}")
    source.write_text(original.replace(mutant.snippet, mutant.replacement))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
             "--hypothesis-profile", "mutants", *mutant.killed_by],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
    finally:
        source.write_text(original)
    if done.returncode not in (0, 1):  # 0: all passed, 1: some failed; anything else is broken
        raise SystemExit(f"pytest exited {done.returncode} on {mutant.killed_by}:\n{done.stdout}")
    failed = set(FAILED.findall(done.stdout))
    return [test for test in mutant.killed_by if test not in failed], done.stdout


def main() -> int:
    start = time.perf_counter()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="txtex-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for number, mutant in enumerate(MUTANTS, 1):
            alive, output = survivors(mutant, copy)
            first_line = mutant.snippet.strip().splitlines()[0]
            print(f"mutant {number} ({mutant.path}: {first_line}): ", end="")
            if alive:
                survived += 1
                print("SURVIVED; these tests passed:", *alive, sep="\n  ")
                print(output)
            else:
                print(f"killed by all {len(mutant.killed_by)} named tests")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
