"""Every function, class and method of the package is used by the system.

A name counts as used when code in the package, the demos or the
benchmark uses it: as a name, an attribute, an import outside the
package, a keyword argument, or a string constant that is an identifier
or a dotted identifier (the benchmark's tracer lists the functions it
wraps as strings such as "LieAlgebra.bracket").  Four kinds of
occurrence do not count:

- one inside the definition it names, a class's own methods included,
  so a function that names itself in a message or recurses stays dead;
- an import inside the package, so `from .liealg import X` alone keeps
  nothing alive;
- one inside the body of a `TEST_ONLY` or a dead definition, repeated
  until no new dead name turns up, so code that only test-only code
  calls is caught too;
- a word inside a string constant that is not one whole (dotted)
  identifier, so prose in a message keeps nothing alive.

The package's `__init__.py` does not count, so a re-export alone keeps
nothing alive, and neither do the tests, so a wrapper that only tests
call is caught.  Docstrings and comments do not count either.  The check
reads names, not references: it cannot see dunder methods, nor a method
that shares its name with a used one.

A name that only the tests reach stays only with an entry in `TEST_ONLY`
that says why.  An entry goes stale, and fails the check, when the
package no longer defines the name, when the package, a demo or the
benchmark uses it after all, or when no test names it either.

A second check reads imports: no module of the package (its re-exporting
`__init__.py` aside), the demos or the tests imports a name that it never
reads.  A third reads record fields: code in the package, the demos, the
benchmark or the tests reads every field of a package record as `.field`,
so a field that is only ever written is caught.  A record is a class
built on `NamedTuple` (its annotated names), on a `namedtuple` base (the
names of its field string) or by `@dataclass`.  A field is part of a
returned value, so a test that reads it counts.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartanlab"
USERS = ("src", "demos", "perfbench")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

TEST_ONLY = {
    "psi_cocycles": "the diagonal 2-cocycles whose sums rebuild the frobenius models in acceptance criterion 08",
    "bracket_compatible_dimension": "the closed form p(2p+1) that acceptance criterion 07 asserts",
    "bracket_compatible_endomorphisms": "the basis that bracket_compatible_dimension counts, checked by the structure tests",
    "wedge_power_class": "the wedge-power reference route that skew_reduce is checked against",
    "poly_wedge_power": "the generic wedge-power reference that two_form_pair_power is checked against",
    "solve": "the linear solve of normalize_linear_deformation, checked by the linalg tests",
    "circle_product": "paper notion: the circle product of two 2-cochains",
    "bullet_product": "paper notion: the bullet product psi1(psi2(X, Y), Z)",
    "coboundary_of_map": "paper notion: the coboundary df of an endomorphism",
    "coboundary_of_bilinear": "paper notion: the adjoint-valued coboundary of a 2-cochain",
    "normalize_linear_deformation": "paper notion: a linear deformation normalized off the center",
    "endomorphism_of": "paper notion: the endomorphism f that phi_2 encodes",
    "interior_product": "paper notion: the interior product i(X) on the Lie coalgebra",
    "diagonal_derivations": "paper notion: the diagonal derivations of a Lie algebra",
}


def _members(tree):
    """(qualified name, node) of every top-level function, class and
    method of one parsed file."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for d in node.body:
                if isinstance(d, DEFINITIONS):
                    yield f"{node.name}.{d.name}", d


def _definitions(package):
    """(qualified name, path, line) of every non-dunder top-level function,
    class and method in the package directory."""
    for path in sorted(package.glob("*.py")):
        for qualname, node in _members(ast.parse(path.read_text(encoding="utf-8"))):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualname, path, node.lineno


def _named(s):
    """The parts of a string that is an identifier or a dotted identifier,
    else nothing."""
    parts = s.split(".")
    return parts if all(p.isidentifier() for p in parts) else []


def _uses(tree, in_package):
    """(name, enclosing) for every name the code of one parsed file uses,
    docstrings left out.  In a package file, enclosing is the set of names
    of the package definitions around the use and imports are left out;
    elsewhere it is empty."""
    docstrings = set()
    for scope in ast.walk(tree):
        if isinstance(scope, SCOPES) and scope.body:
            first = scope.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    scopes = {id(node): node.name for _, node in _members(tree)} if in_package else {}
    stack = [(tree, frozenset())]
    while stack:
        node, around = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id, around
        elif isinstance(node, ast.Attribute):
            yield node.attr, around
        elif isinstance(node, ast.alias) and not in_package:
            for name in (*node.name.split("."), node.asname):
                if name:
                    yield name, around
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, around
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for name in _named(node.value):
                yield name, around
        if id(node) in scopes:
            around = around | {scopes[id(node)]}
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def _parsed_uses(paths, package=None):
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from _uses(tree, package is not None and path.parent == package)


def _used_by_system(root, package, test_only=TEST_ONLY):
    """Counter of the names the package, demos and benchmark under root use,
    by the four rules of the module docstring."""
    paths = [p for top in USERS for p in (root / top).rglob("*.py") if p != package / "__init__.py"]
    uses = list(_parsed_uses(paths, package))
    defined = {qualname.rsplit(".", 1)[-1] for qualname, _, _ in _definitions(package)}
    idle = set(test_only)
    while True:
        used = Counter(name for name, around in uses if name not in around and not around & idle)
        dead = defined - used.keys() - idle
        if not dead:
            return used
        idle |= dead


def _dead(root, package, test_only=TEST_ONLY):
    used = _used_by_system(root, package, test_only)
    return [
        f"{path.relative_to(root)}:{lineno} {qualname}"
        for qualname, path, lineno in _definitions(package)
        if not used[name := qualname.rsplit(".", 1)[-1]] and name not in test_only
    ]


def test_every_definition_is_referenced():
    dead = _dead(ROOT, PACKAGE)
    assert not dead, "defined but used only by tests, or not at all:\n" + "\n".join(dead)


def test_test_only_entries_are_current():
    defined = {qualname.rsplit(".", 1)[-1] for qualname, _, _ in _definitions(PACKAGE)}
    used = _used_by_system(ROOT, PACKAGE)
    tested = Counter(name for name, _ in _parsed_uses((ROOT / "tests").rglob("*.py")))
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


def _named_as(node):
    """The name a Name or an Attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _record_fields(package):
    """(Class.field, path, line) of every field of a record class in the
    package directory: the annotated names of a `NamedTuple` or `@dataclass`
    body, or the field string of a `namedtuple("Name", "a b")` base."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if "NamedTuple" in map(_named_as, node.bases) or "dataclass" in map(_named_as, decorators):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", path, item.lineno
            for base in node.bases:
                if isinstance(base, ast.Call) and _named_as(base.func) == "namedtuple":
                    for name in base.args[1].value.replace(",", " ").split():
                        yield f"{node.name}.{name}", path, base.lineno


def _unread_fields(root, package):
    paths = [p for top in (*USERS, "tests") for p in (root / top).rglob("*.py")]
    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.relative_to(root)}:{lineno} {qualname}"
        for qualname, path, lineno in _record_fields(package)
        if qualname.split(".")[1] not in read
    ]


def test_every_record_field_is_read():
    unread = _unread_fields(ROOT, PACKAGE)
    assert not unread, "record fields that nothing reads:\n" + "\n".join(unread)
    # the scan sees every record class of the package and every field of
    # each, in order, and every record refuses
    # assignment to a field or to a new name, as a frozen dataclass did
    records = {}
    for qualname, path, _ in _record_fields(PACKAGE):
        owner, field = qualname.split(".")
        cls = getattr(importlib.import_module(f"cartanlab.{path.stem}"), owner)
        records.setdefault(cls, []).append(field)
    modules = [importlib.import_module(f"cartanlab.{path.stem}") for path in PACKAGE.glob("[!_]*.py")]
    defined = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, "_fields")
    }
    assert records and set(records) == defined
    for cls, fields in records.items():
        assert issubclass(cls, tuple) and cls._fields == tuple(fields), cls
        record = cls._make(range(len(fields)))
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_the_field_check_reports_a_field_never_read(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "core.py").write_text(
        "import collections, typing\n"
        "from collections import namedtuple\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "class Entry(NamedTuple):\n"
        "    read: int\n"
        "    written_only: str = ''\n"
        "    never: int = 0\n"
        "    def method(self):\n"
        "        return self.read\n"
        "class Spec(namedtuple('Spec', 'checked, unchecked')):\n"
        "    def __new__(cls, checked, unchecked):\n"
        "        return super().__new__(cls, checked, unchecked)\n"
        "class Qualified(typing.NamedTuple):\n"
        "    unseen: int\n"
        "class Spaced(collections.namedtuple('Spaced', 'missing')):\n"
        "    pass\n"
        "@dataclass(frozen=True)\n"
        "class Legacy:\n"
        "    dropped: int\n"
        "def make():\n"
        "    e = Entry(1, written_only='x')\n"
        "    return e.read, Spec(1, 2).checked\n"
    )
    assert [entry.split()[-1] for entry in _unread_fields(tmp_path, package)] == [
        "Entry.written_only", "Entry.never", "Spec.unchecked", "Qualified.unseen", "Spaced.missing",
        "Legacy.dropped",
    ]


def _unused_imports(paths):
    """"path:line name" for each name that a file imports and never reads
    as a plain name; `from __future__` imports change the compiler, not the
    namespace, and are left out."""
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        yield f"{path}:{node.lineno} {name}"


def test_every_import_is_read():
    paths = [p for top in ("src", "demos", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    unused = list(_unused_imports(p for p in paths if p != PACKAGE / "__init__.py"))
    assert len(paths) > 40 and not unused, "imported but never read:\n" + "\n".join(unused)


def test_the_import_check_reports_a_name_never_read(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .scalars import ONE, ZERO\n"
        "from .linalg import identity\n"
        "identity = None\n"
        "def f(x: ZERO) -> str:\n"
        "    return j.dumps(x)\n"
    )
    assert {entry.split()[-1] for entry in _unused_imports([path])} == {"os", "ONE", "identity"}


def test_the_check_counts_uses_not_words(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .core import init_only\n")
    (package / "core.py").write_text(
        '"""names_in_docstring"""\n'
        "from .util import import_only\n"
        "def self_only(n):\n"
        "    return self_only(n - 1) if n else 0\n"
        "class Owner:\n"
        "    def method(self):\n"
        "        return Owner()\n"
        "def reference(x):\n"
        "    return inner_of_reference(x)\n"
        "def inner_of_reference(x):\n"
        "    return inner_of_dead(x)\n"
        "def inner_of_dead(x):\n"
        "    return x\n"
        "def prose():\n"
        "    raise ValueError('no prose_only here')\n"
        "def by_string():\n"
        "    return 'tracer.traced'\n"
    )
    (package / "util.py").write_text(
        "def import_only(): pass\n"
        "def init_only(): pass\n"
        "def prose_only(): pass\n"
        "def names_in_docstring(): pass\n"
        "def traced(): pass\n"
        "def live(): return by_string(), prose(), live_helper()\n"
        "def live_helper(): pass\n"
    )
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from pkg.util import live\nlive()\n")
    dead = {entry.split()[-1] for entry in _dead(tmp_path, package, {"reference"})}
    assert dead == {
        "self_only",
        "Owner",
        "Owner.method",
        "import_only",
        "init_only",
        "inner_of_reference",
        "inner_of_dead",
        "prose_only",
        "names_in_docstring",
    }
