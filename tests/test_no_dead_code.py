"""Every function, class and method of the package is used by the system.

A name counts as used when code in the package, the demos or the
benchmark names it: as a name, an attribute, an import, a keyword
argument, or a word in a string constant (the benchmark's tracer lists the
functions it wraps in strings).  The package's `__init__.py` does not
count, so a re-export alone keeps nothing alive, and neither do the tests,
so a wrapper that only tests call is caught.  Docstrings and comments do
not count, so prose that mentions a name does not keep it alive.  The
check reads names, not references, so it cannot see that a name used in
one class is dead in another; it catches code that nothing names at all.

A name that only the tests reach stays only with an entry in `TEST_ONLY`
that says why.  An entry goes stale, and fails the check, when the
package no longer defines the name, when the package, a demo or the
benchmark names it after all, or when no test names it either.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartanlab"
USERS = ("src", "demos", "perfbench")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

TEST_ONLY = {
    "psi_cocycles": "the diagonal 2-cocycles whose sums rebuild the frobenius models in acceptance criterion 08",
    "bracket_compatible_dimension": "the closed form p(2p+1) that acceptance criterion 07 asserts",
    "wedge_power_class": "the wedge-power reference route that skew_reduce is checked against",
    "poly_wedge_power": "the generic wedge-power reference that two_form_pair_power is checked against",
    "circle_product": "paper notion: the circle product of two 2-cochains",
    "bullet_product": "paper notion: the bullet product psi1(psi2(X, Y), Z)",
    "coboundary_of_bilinear": "paper notion: the adjoint-valued coboundary of a 2-cochain",
    "normalize_linear_deformation": "paper notion: a linear deformation normalized off the center",
    "endomorphism_of": "paper notion: the endomorphism f that phi_2 encodes",
    "interior_product": "paper notion: the interior product i(X) on the Lie coalgebra",
    "diagonal_derivations": "paper notion: the diagonal derivations of a Lie algebra",
}


def _definitions():
    """(name, path, line) of every non-dunder top-level function, class
    and method in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
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


def _used(paths):
    used = Counter()
    for path in paths:
        used.update(_names_in(ast.parse(path.read_text(encoding="utf-8"))))
    return used


def _used_by_system():
    return _used(
        path
        for top in USERS
        for path in (ROOT / top).rglob("*.py")
        if path != PACKAGE / "__init__.py"
    )


def test_every_definition_is_referenced():
    used = _used_by_system()
    dead = sorted(
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for name, path, lineno in _definitions()
        if not used[name] and name not in TEST_ONLY
    )
    assert not dead, "defined but named only by tests, or not at all:\n" + "\n".join(dead)


def test_test_only_entries_are_current():
    defined = {name for name, _, _ in _definitions()}
    used = _used_by_system()
    tested = _used((ROOT / "tests").rglob("*.py"))
    stale = sorted(
        f"{name}: {why}"
        for name in TEST_ONLY
        for why, bad in (
            ("not defined", name not in defined),
            ("used outside the tests", used[name]),
            ("named by no test", not tested[name]),
        )
        if bad
    )
    assert not stale, "stale TEST_ONLY entries:\n" + "\n".join(stale)
