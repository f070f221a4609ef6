"""The package carries no code that only tests use.

Every function, method and class defined under ``src/chainbell`` is
referenced by name somewhere in the package outside its own definition,
or exported from ``chainbell/__init__.py``.  Oracles that only tests
need live in ``tests/helpers.py`` instead.
"""

import ast
from collections import Counter
from pathlib import Path

import chainbell

PACKAGE = Path(chainbell.__file__).parent

#: Reached from outside the package: the console script in pyproject.toml.
ENTRY_POINTS = {("cli.py", "entry")}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node: ast.AST) -> Counter:
    """Names read as variables or attributes anywhere under node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _exported_names(init: ast.Module) -> set[str]:
    return {alias.asname or alias.name
            for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unreferenced_definitions(package: Path) -> list[str]:
    """``file:name`` of every definition with no reference outside itself."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    exported = _exported_names(trees["__init__.py"])
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported \
                    or (filename, name) in ENTRY_POINTS:
                continue
            if everywhere[name] - _referenced_names(node)[name] <= 0:
                unused.append(f"{filename}:{name}")
    return unused


def test_every_definition_is_used_in_the_package_or_exported():
    assert unreferenced_definitions(PACKAGE) == []
