"""The kept mutants stay applicable: each snippet occurs once, and each named test exists.

The mutation run itself (``python tests/mutants.py``) is its own CI step; this
check only keeps the list in step with the code, in milliseconds.
"""

import re

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.snippet.split("\n")[0].strip())
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.killed_by
    for test in mutant.killed_by:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[[^\]]+\])?", test).groups()
        assert f"def {name}(" in (ROOT / path).read_text(), test
