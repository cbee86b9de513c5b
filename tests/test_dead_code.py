"""No library symbol lives on that only the tests reach."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_definitions(package: Path, code_roots: list[Path]) -> list[str]:
    """Definitions in ``package`` that nothing under ``code_roots`` names.

    Lists ``module.name`` of each function, class or method whose name
    appears in the Python files under ``code_roots`` only where it is
    defined.  Dunder methods are skipped: the language calls them, not a name.
    """
    words = Counter()
    for root in code_roots:
        for path in root.rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((path.stem, node.name))
    defined = Counter(name for _, name in found)
    return [
        f"{module}.{name}"
        for module, name in found
        if not (name.startswith("__") and name.endswith("__")) and words[name] <= defined[name]
    ]


def test_every_library_symbol_has_a_caller_outside_the_tests():
    unused = unused_definitions(ROOT / "src" / "txtex_lab", [ROOT / "src", ROOT / "perfbench"])
    assert unused == [], f"defined in src/ but used by nothing in src/ or perfbench/: {unused}"
