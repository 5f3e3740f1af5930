"""Every function, class and method of the package is used by the system.

Two checks judge this, and one allowlist, `TEST_ONLY`, serves both.

The call check runs `reachability_drive.py` in a subprocess: under a
`sys.setprofile` hook it runs the demos, the README commands, each
`check` suite and one pass plus the probes of each benchmark workload,
and prints each top-level function and method of the package (dunders
included, `__repr__` and nested functions not) that no call reached.
Every one it prints needs an entry.  A call is a reference, not a word:
the check sees a dunder that nothing invokes, a method that shares its
name with a called one, and a function that only a string names.

The name check reads source.  A name counts as used when code in the
package, the demos or the benchmark uses it: as a name, an attribute, an
import outside the package or a keyword argument.  Four kinds of
occurrence do not count:

- one inside the definition it names, a class's own methods included,
  so a function that names itself in a message or recurses stays dead;
- an import inside the package, so `from .liealg import X` alone keeps
  nothing alive;
- one inside the body of a `TEST_ONLY` or a dead definition, repeated
  until no new dead name turns up, so code that only test-only code
  calls is caught too;
- any string constant, so neither prose nor the benchmark tracer's table
  of function names keeps anything alive.

The package's `__init__.py` does not count, so a re-export alone keeps
nothing alive, and neither do the tests, so a wrapper that only tests
call is caught.  It judges the classes, which the call check does not,
and the non-dunder functions and methods a second time, by name.

`TEST_ONLY` is keyed by module and qualified name (`forms.wedge`,
`scalars.Scalar.__rsub__`) and says why only tests, or no drive, reach
each entry.  An entry goes stale, and fails the check, when the package
no longer defines it, when the drive calls it, or when no test names a
public one.

A third check reads imports: no module of the package (its re-exporting
`__init__.py` aside), the demos or the tests imports a name that it never
reads.  A fourth reads record fields: code in the package, the demos, the
benchmark or the tests reads every field of a package record as `.field`,
so a field that is only ever written is caught.  A record is a class
built on `NamedTuple` (its annotated names), on a `namedtuple` base (the
names of its field string) or by `@dataclass`.  A field is part of a
returned value, so a test that reads it counts.
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from reachability_drive import calls, functions, uncalled

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartanlab"
DRIVE = Path(__file__).with_name("reachability_drive.py")
USERS = ("src", "demos", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

TEST_ONLY = {
    "catalog.psi_cocycles": "the diagonal 2-cocycles whose sums rebuild the frobenius models in acceptance criterion 08",
    "structure.bracket_compatible_dimension": "the closed form p(2p+1) that acceptance criterion 07 asserts",
    "structure.bracket_compatible_endomorphisms": "the basis that bracket_compatible_dimension counts, checked by the structure tests",
    "forms.wedge_power_class": "the wedge-power reference route that skew_reduce is checked against",
    "polyforms.poly_wedge_power": "the generic wedge-power reference that two_form_pair_power is checked against",
    "linalg.solve": "the linear solve of normalize_linear_deformation, checked by the linalg tests",
    "deformation.circle_product": "paper notion: the circle product of two 2-cochains",
    "deformation.bullet_product": "paper notion: the bullet product psi1(psi2(X, Y), Z)",
    "deformation.coboundary_of_map": "paper notion: the coboundary df of an endomorphism",
    "deformation.coboundary_of_bilinear": "paper notion: the adjoint-valued coboundary of a 2-cochain",
    "deformation.normalize_linear_deformation": "paper notion: a linear deformation normalized off the center",
    "deformation.endomorphism_of": "paper notion: the endomorphism f that phi_2 encodes",
    "forms.interior_product": "paper notion: the interior product i(X) on the Lie coalgebra",
    "structure.diagonal_derivations": "paper notion: the diagonal derivations of a Lie algebra",
    "forms.wedge": "the DualForm wedge product that the wedge-power reference and the form tests compute with",
    "slgroup.two_form_pair_power": "the pair-combinatorial route to (d omega)^q, checked against the generic wedge loop",
    "forms.DualForm.__add__": "form sums of the form-identity tests",
    "forms.DualForm.__sub__": "form differences of the form-identity tests",
    "forms.DualForm.__neg__": "form negation of the form-identity tests",
    "forms.DualForm.__eq__": "form equality, which the form-identity tests assert",
    "forms.DualForm._check": "the algebra and grade check of a form sum or difference",
    "polyforms.PolyForm.__sub__": "the residual of a failing SL(2n) identity, which the planted-defect tests read",
    "scalars.Scalar.__rsub__": "int - Scalar: upoly.sub pads with int 0 and Subspace.contains takes int coordinates",
    "poly.Poly.__rsub__": "number - Poly, as acceptance criterion 11 writes 1 - u * u",
    "spectrum.SpectrumResult.contains": "eigenvalue membership, which acceptance criterion 08 asserts",
    "scalars.Scalar.__setattr__": "the refusal to mutate a Scalar",
    "liealg.LieAlgebra.__delattr__": "the refusal to delete a LieAlgebra attribute",
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
    """(key, name, path, line) of every non-dunder top-level function,
    class and method in the package directory; the key is module and
    qualified name, as in `TEST_ONLY`."""
    for path in sorted(package.glob("*.py")):
        for qualname, node in _members(ast.parse(path.read_text(encoding="utf-8"))):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{path.stem}.{qualname}", node.name, path, node.lineno


def _uses(tree, module=None):
    """(name, around) for every name the code of one parsed file uses.  In
    a package file, of the given module, around is the set of keys of the
    package definitions around the use and imports are left out; elsewhere
    it is empty."""
    scopes = {id(node): f"{module}.{qualname}" for qualname, node in _members(tree)} if module else {}
    stack = [(tree, frozenset())]
    while stack:
        node, around = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id, around
        elif isinstance(node, ast.Attribute):
            yield node.attr, around
        elif isinstance(node, ast.alias) and not module:
            for name in (*node.name.split("."), node.asname):
                if name:
                    yield name, around
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, around
        if id(node) in scopes:
            around = around | {scopes[id(node)]}
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def _parsed_uses(paths, package=None):
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from _uses(tree, path.stem if package is not None and path.parent == package else None)


def _used_by_system(root, package, test_only=TEST_ONLY):
    """Counter of the names the package, demos and benchmark under root use,
    by the four rules of the module docstring."""
    paths = [p for top in USERS for p in (root / top).rglob("*.py") if p != package / "__init__.py"]
    uses = [
        (name, around)
        for name, around in _parsed_uses(paths, package)
        if name not in {key.rsplit(".", 1)[1] for key in around}
    ]
    keys = {(key, name) for key, name, _, _ in _definitions(package)}
    idle = set(test_only)
    while True:
        used = Counter(name for name, around in uses if not around & idle)
        dead = {key for key, name in keys if not used[name]} - idle
        if not dead:
            return used
        idle |= dead


def _dead(root, package, test_only=TEST_ONLY):
    used = _used_by_system(root, package, test_only)
    return [
        f"{path.relative_to(root)}:{lineno} {key.split('.', 1)[1]}"
        for key, name, path, lineno in _definitions(package)
        if not used[name] and key not in test_only
    ]


def test_every_definition_is_referenced():
    dead = _dead(ROOT, PACKAGE)
    assert not dead, "defined but used only by tests, or not at all:\n" + "\n".join(dead)


@functools.cache
def _drive_uncalled():
    """The drive's `file:line name` lines: the package functions it never
    called."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", str(DRIVE)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _key(line):
    """The `TEST_ONLY` key of a `file:line name` line."""
    place, name = line.split()
    return f"{Path(place.split(':')[0]).stem}.{name}"


def test_every_function_is_called():
    missed = [line for line in _drive_uncalled() if _key(line) not in TEST_ONLY]
    assert not missed, "called by no drive of the system and not in TEST_ONLY:\n" + "\n".join(missed)


def test_test_only_entries_are_current():
    judged = {f"{path.stem}.{name}" for path, _, _, name in functions(PACKAGE)}
    defined = judged | {key for key, _, _, _ in _definitions(PACKAGE)}
    called = judged - {_key(line) for line in _drive_uncalled()}
    tested = Counter(name for name, _ in _parsed_uses((ROOT / "tests").rglob("*.py")))
    stale = sorted(
        f"{key}: {why}"
        for key in TEST_ONLY
        for name in [key.rsplit(".", 1)[1]]
        for why, bad in (
            ("not defined", key not in defined),
            ("called by the drive", key in called),
            ("named by no test", not name.startswith("_") and not tested[name]),
        )
        if bad
    )
    assert not stale, "stale TEST_ONLY entries:\n" + "\n".join(stale)


def test_the_call_check_reports_what_no_call_reaches(tmp_path, monkeypatch):
    package = tmp_path / "reach_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(
        "NAMES = ('by_string',)\n"
        "def called():\n"
        "    return Used().size()\n"
        "def uncalled():\n"
        "    return called()\n"
        "class Used:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "    def __repr__(self):\n"
        "        return 'Used()'\n"
        "class Twin:\n"
        "    def size(self):\n"
        "        return 2\n"
        "def by_string():\n"
        "    pass\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        importlib.import_module("reach_pkg.core").called()

    assert uncalled(calls(run), package, tmp_path) == [
        "reach_pkg/core.py:4 uncalled",
        "reach_pkg/core.py:9 Used.__hash__",
        "reach_pkg/core.py:14 Twin.size",
        "reach_pkg/core.py:16 by_string",
    ]


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
    )
    (package / "util.py").write_text(
        "def import_only(): pass\n"
        "def init_only(): pass\n"
        "def prose_only(): pass\n"
        "def names_in_docstring(): pass\n"
        "def live(): return prose(), live_helper()\n"
        "def live_helper(): pass\n"
    )
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("from pkg.util import live\nlive()\n")
    dead = {entry.split()[-1] for entry in _dead(tmp_path, package, {"core.reference"})}
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
