"""Every function, class and method of the package is named somewhere.

A name counts as used when code in the package, its tests, the demos or
the benchmark names it: as a name, an attribute, an import, a keyword
argument, or a word in a string constant (the benchmark's tracer lists the
functions it wraps in strings).  Docstrings and comments do not count, so
prose that mentions a name does not keep it alive.  The check reads names,
not references, so it cannot see that a name used in one class is dead in
another; it catches code that nothing names at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions():
    """(name, path, line) of every non-dunder top-level function, class
    and method in the package."""
    for path in sorted((ROOT / "src" / "cartanlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in (node, *members):
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not (
                    d.name.startswith("__") and d.name.endswith("__")
                ):
                    yield d.name, path, d.lineno


def _names_in(tree):
    """Every name the code of one parsed file uses, docstrings left out."""
    docstrings = set()
    for scope in ast.walk(tree):
        if isinstance(scope, SCOPES) and scope.body:
            first = scope.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield from re.findall(r"\w+", node.value)


def test_every_definition_is_referenced():
    used = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            used.update(_names_in(ast.parse(path.read_text(encoding="utf-8"))))
    dead = sorted(
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for name, path, lineno in _definitions()
        if not used[name]
    )
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
