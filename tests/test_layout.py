"""The library holds only what its runs call.

Every top-level function and class of ``trajpmbm`` must be referenced by
name somewhere in the library or in ``benchmarks/``, and every public method
must be read as an attribute in the library or named by a string in
``benchmarks/`` (the tracer replaces methods by attribute name): a local
variable that shares a method's name does not count.  A re-export in the
package ``__init__`` does not count, and neither does a module's
``__all__``: code that only tests use lives under ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trajpmbm"
BENCHMARKS = ROOT / "benchmarks"


def _definitions(tree: ast.Module):
    """(qualified name, name, is a method) of each top-level function and
    class, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _references(tree: ast.Module) -> tuple:
    """(identifiers, attribute names, string constants) read in ``tree``."""
    names, attrs, strings = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return names, attrs, strings


def unreferenced() -> list:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used, methods = set(), set()  # what names a definition, what names a public method
    for path, tree in trees.items():
        if path.name != "__init__.py":  # its strings are ``__all__``: not counted
            names, attrs, _ = _references(tree)
            used |= names | attrs
            methods |= attrs
    for path in sorted(BENCHMARKS.glob("*.py")):
        names, attrs, strings = _references(ast.parse(path.read_text()))
        used |= names | attrs | strings
        methods |= strings
    return [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, name, method in _definitions(tree)
        if name not in (methods if method else used)
    ]


def test_every_definition_is_used_outside_the_tests():
    assert unreferenced() == []
