"""Source hygiene of the package modules."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "threshold_lab"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module, where a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "d (line 2)", "os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(node) -> Counter:
    """How often each name is read under ``node``: as a name, an attribute,
    an imported name or a string equal to it (``__all__``, patching by
    name)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """Module-level functions and classes of the ``package`` sources (by
    module name) that no source references outside their own definition."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        read += references(tree)
    return sorted(f"{name}.{node.name}" for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and read[node.name] == references(node)[node.name])


def test_scan_finds_an_unreferenced_definition():
    package = {"a": "def f():\n    return f()\n\ndef g():\n    return 1\n\nclass C:\n    pass\n",
               "b": "from a import g\n"}
    assert unreferenced_definitions(package, []) == ["a.C", "a.f"]
    assert unreferenced_definitions(package, ["import a\na.f()\nx = 'C'\n"]) == []


def test_every_definition_is_referenced():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    tests = [path.read_text() for path in sorted(TESTS.rglob("*.py"))]
    assert unreferenced_definitions(package, tests) == []
