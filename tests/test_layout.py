"""The library holds only what its runs call.

Every top-level function and class of ``trajpmbm``, and every public method,
must be referenced by name somewhere in the library or in ``benchmarks/``.
A re-export in the package ``__init__`` does not count, and neither does a
module's ``__all__``: code that only tests use lives under ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trajpmbm"
BENCHMARKS = ROOT / "benchmarks"


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module, strings: bool) -> set:
    """Names read in ``tree``: identifiers, attributes and, with
    ``strings``, string constants (``benchmarks/tracing.py`` replaces
    functions by attribute name; a module's ``__all__`` is strings too)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced() -> list:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used |= _references(tree, strings=False)
    for path in sorted(BENCHMARKS.glob("*.py")):
        used |= _references(ast.parse(path.read_text()), strings=True)
    return [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, name in _definitions(tree)
        if name not in used
    ]


def test_every_definition_is_used_outside_the_tests():
    assert unreferenced() == []
