"""No library symbol lives on that only the tests reach, no import its module never
names, and no default that never takes effect.

A default never takes effect when no call leaves its parameter out: either no
call reaches it or every call sets it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def identifiers(tree: ast.AST) -> list[str]:
    """Every identifier the code in ``tree`` spells.

    Names, attributes, definition names, imported names and their aliases,
    and keyword arguments count.  Docstrings and comments name nothing; the
    expressions inside f-strings are code and count.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.alias):
            found += node.name.split(".") + ([node.asname] if node.asname else [])
        elif isinstance(node, ast.keyword) and node.arg:
            found.append(node.arg)
    return found


def unused_definitions(package: Path, code_roots: list[Path]) -> list[str]:
    """Definitions in ``package`` that nothing under ``code_roots`` names.

    Lists ``module.name`` of each function, class or method, and each name a
    module-level assignment binds, whose name appears among the identifiers
    of the Python files under ``code_roots`` only where it is defined.
    Dunders are skipped: the language or its tools read them, not a name.
    """
    words = Counter()
    for root in code_roots:
        for path in root.rglob("*.py"):
            words.update(identifiers(ast.parse(path.read_text())))
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((path.stem, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.extend(
                    (path.stem, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
    defined = Counter(name for _, name in found)
    return [
        f"{module}.{name}"
        for module, name in found
        if not (name.startswith("__") and name.endswith("__")) and words[name] <= defined[name]
    ]


def test_every_library_symbol_has_a_caller_outside_the_tests():
    unused = unused_definitions(ROOT / "src" / "txtex_lab", [ROOT / "src", ROOT / "perfbench"])
    assert unused == [], f"defined in src/ but used by nothing in src/ or perfbench/: {unused}"


def unused_imports(roots: list[Path]) -> list[str]:
    """``path:line name`` of each module-level import whose module never names what it binds.

    ``import a.b`` binds ``a``, and an alias binds its ``as`` name.  A name
    counts once the module spells it outside the import, alone or as the base
    of an attribute.  ``from __future__`` imports bind nothing and are skipped.
    """
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                found.extend(
                    f"{path.relative_to(ROOT)}:{node.lineno} {bound}"
                    for bound in (a.asname or a.name.split(".")[0] for a in node.names)
                    if bound not in names
                )
    return found


def test_every_import_is_used():
    unused = unused_imports([ROOT / "src", ROOT / "tests", ROOT / "perfbench"])
    assert unused == [], f"module-level imports their module never names: {unused}"


def direct_calls(package: Path, names: set[str]) -> list[str]:
    """``module:line name`` of each call in ``package`` whose callee is spelled as one of ``names``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in names:
                    found.append(f"{path.stem}:{node.lineno} {name}")
    return found


def test_only_session_builds_payload_actions():
    """Learners yield ``session.emit`` and ``session.query``, which share small payloads."""
    calls = direct_calls(ROOT / "src" / "txtex_lab", {"Emit", "Query"})
    outside = [call for call in calls if not call.startswith("session:")]
    assert calls and outside == [], f"Emit or Query built outside session: {outside}"


def function_level_imports(package: Path) -> list[str]:
    """``module:line`` of each import inside a function or method body.

    Such an import hides an edge of the module graph; with every import at
    module level, a cycle fails when the package loads.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{path.stem}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    return sorted(set(found))


def test_no_import_inside_a_function():
    nested = function_level_imports(ROOT / "src" / "txtex_lab")
    assert nested == [], f"imports inside function bodies: {nested}"


# serialized whole via ``__dict__`` into report.json, so every field is output
UNREAD_FIELD_EXEMPT = {"DefeatReport"}


def _stored_attributes(scope: ast.AST, owner: str):
    """``(owner, attribute)`` of each attribute store in ``scope``.

    A store inside a class, in its body or its methods, belongs to that
    class; one outside every class belongs to ``owner``, the module.
    """
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.ClassDef):
            yield from _stored_attributes(node, node.name)
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield owner, node.attr
        yield from _stored_attributes(node, owner)


def unread_fields(package: Path, code_roots: list[Path]) -> list[str]:
    """``Owner.field`` of each field stored in ``package`` that nothing reads as an attribute.

    A field is an annotated name in a class body (a dataclass or named-tuple
    field) or an attribute the package's code stores on any object.  Its
    owner is the enclosing class, or the module for a store outside every
    class.  It is read when
    some ``x.field`` under ``code_roots`` loads it; the object's type is not
    checked, so a read of any same-named attribute counts.
    """
    reads = set()
    for root in code_roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        fields = [
            (cls.name, s.target.id)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for s in cls.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        ]
        fields += _stored_attributes(tree, path.stem)
        found.extend(
            f"{owner}.{field}"
            for owner, field in dict.fromkeys(fields)
            if owner not in UNREAD_FIELD_EXEMPT and field not in reads
        )
    return found


def test_every_field_is_read_outside_the_tests():
    unread = unread_fields(ROOT / "src" / "txtex_lab", [ROOT / "src", ROOT / "perfbench"])
    assert unread == [], f"fields stored in src/ that nothing in src/ or perfbench/ reads: {unread}"


# the console script calls main() with no argument; only the tests pass argv
UNSET_DEFAULT_EXEMPT = {"cli.main(argv)"}


def _scanned_functions(module: str, tree: ast.Module):
    """``(label, call name, def, slots before the callers' arguments)`` of each scanned def."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, 0
        for fn in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(fn, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                name = node.name if fn.name == "__init__" else fn.name
                yield f"{module}.{node.name}.{fn.name}", name, fn, 0 if static else 1


def _default_uses(package: Path, code_roots: list[Path]):
    """The defaulted parameters of ``package`` and the calls under ``code_roots`` that reach them.

    Returns ``(labels, uses, around)``.  ``labels`` names every defaulted
    parameter of a module-level function or method.  ``uses`` holds one
    ``(label, call, values, unpacks)`` per call and parameter it reaches:
    ``values`` are the nodes the call passes for it by keyword or by
    position, and ``unpacks`` says whether the call unpacks ``*args`` (for a
    positional parameter) or ``**kwargs``.  ``f(...)`` and ``x.f(...)`` reach
    every def named ``f``; a class call reaches its ``__init__``.  ``around``
    maps each node inside a scanned def to ``{its defaulted parameter: label}``.
    """
    trees = {path: ast.parse(path.read_text()) for root in code_roots for path in root.rglob("*.py")}
    params = {}  # call name -> [(label, parameter, positional index or None)]
    around = {}
    for path in sorted(package.glob("*.py")):
        for label, call_name, fn, offset in _scanned_functions(path.stem, trees[path]):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            own = {a.arg: i - offset for i, a in enumerate(positional) if i >= first}
            own.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
            labels = {p: f"{label}({p})" for p in own}
            params.setdefault(call_name, []).extend((labels[p], p, i) for p, i in own.items())
            around.update((inner, labels) for inner in ast.walk(fn))

    uses = []
    for call in (n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        for target, param, index in params.get(name, []):
            values = [k.value for k in call.keywords if k.arg == param]
            unpacks = any(k.arg is None for k in call.keywords)
            if index is not None:
                passed = call.args[index : index + 1]
                values += [a for a in passed if not isinstance(a, ast.Starred)]
                unpacks = unpacks or any(isinstance(a, ast.Starred) for a in call.args)
            uses.append((target, call, values, unpacks))
    labels = {label for entries in params.values() for label, _, _ in entries}
    return labels, uses, around


def _report(labels: set[str]) -> list[str]:
    return sorted(label.replace(".__init__", "") for label in labels)


def unset_defaults(package: Path, code_roots: list[Path]) -> list[str]:
    """Defaulted parameters of ``package``'s module-level functions and methods that no call sets.

    A call sets the parameters it passes by keyword or by position, every
    positional one if it unpacks ``*args`` and every keyword one if it
    unpacks ``**kwargs``.  Passing on a defaulted parameter of the scanned
    def around the call sets the callee's only if that one is set.
    """
    labels, uses, around = _default_uses(package, code_roots)
    is_set, forwards = set(), []  # forwards: (callee parameter, caller parameter passed on)
    for target, call, values, unpacks in uses:
        if unpacks:
            is_set.add(target)
        for value in values:
            source = around.get(call, {}).get(getattr(value, "id", None))
            if source:
                forwards.append((target, source))
            else:
                is_set.add(target)
    while any(s in is_set and t not in is_set for t, s in forwards):
        is_set.update(t for t, s in forwards if s in is_set)
    return _report(labels - is_set - UNSET_DEFAULT_EXEMPT)


def test_every_default_parameter_is_set_by_some_caller():
    unset = unset_defaults(ROOT / "src" / "txtex_lab", [ROOT / "src", ROOT / "perfbench"])
    assert unset == [], f"defaulted parameters no call in src/ or perfbench/ sets: {unset}"


def always_set_defaults(package: Path, code_roots: list[Path]) -> list[str]:
    """Defaulted parameters that some call reaches and every call reaching them sets.

    Such a default never takes effect.  Only a value passed by keyword or by
    position sets the parameter here; unpacking ``*args`` or ``**kwargs``
    may leave it out, so it does not.
    """
    _, uses, _ = _default_uses(package, code_roots)
    reached = {target for target, _, _, _ in uses}
    left_out = {target for target, _, values, _ in uses if not values}
    return _report(reached - left_out)


def test_no_default_parameter_is_set_by_every_caller():
    always = always_set_defaults(ROOT / "src" / "txtex_lab", [ROOT / "src", ROOT / "perfbench"])
    assert always == [], f"defaulted parameters every call in src/ or perfbench/ sets: {always}"
