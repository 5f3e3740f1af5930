"""The README's examples run: every `cartanlab` command line of its `sh`
block that names no file, in process through `cli.main`, and the Python
block of its library tour.  The names its prose quotes exist: a quoted
`module.name` or `Class.name` resolves in the package, as it must in the
package's own docstrings too, and a quoted snake_case name is one the
package defines."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

import cartanlab
from cartanlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(cartanlab.__file__).resolve().parent
QUOTED = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.DOTALL))
# report keys and a dim5 variant that the prose quotes; the package defines none of them
NOT_PACKAGE_NAMES = {"inputs_digest", "model_family", "diag_ii_b"}


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.DOTALL)


COMMANDS = [
    shlex.split(line)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("cartanlab ") and ".json" not in line
]


def test_readme_commands_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, capsys):
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["argv"] == argv


def test_readme_library_tour_runs():
    (tour,) = _blocks("python")
    scope = {}
    exec(tour, scope)
    assert scope["info"].value == 5
    assert scope["info"].characteristic_space.dim == 0


def _docstring_quotes(path):
    """The quoted text of every module, class and function docstring in path."""
    nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef)
    docs = [ast.get_docstring(node) or "" for node in nodes if isinstance(node, kinds)]
    return re.findall(r"`([^`\n]+)`", "\n".join(docs))


def test_readme_dotted_names_resolve():
    # the README prose, then the docstrings of each package module; a class
    # owner resolves in the package for the README and in the module itself
    # for a docstring; a record's fields are attributes of its class
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    sources = [(cartanlab, QUOTED)]
    for path in sorted(PACKAGE.glob("*.py")):
        module = cartanlab if path.stem == "__init__" else importlib.import_module(f"cartanlab.{path.stem}")
        sources.append((module, _docstring_quotes(path)))
    counts, missing = [], []
    for home, quoted in sources:
        dotted = [q.split(".") for q in quoted if re.fullmatch(r"[A-Za-z_]\w*\.\w+", q)]
        counts.append(len(dotted))
        for owner, name in dotted:
            if owner in modules:
                scope = importlib.import_module(f"cartanlab.{owner}")
            else:
                scope = getattr(home, owner, None)
            if scope is None or not hasattr(scope, name):
                missing.append(f"{home.__name__}: {owner}.{name}")
    assert counts[0] and sum(counts[1:]), counts
    assert not missing, missing


def test_readme_snake_case_names_are_package_names():
    defined = {path.stem for path in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        defined.update(
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        )
    snake = {q for q in QUOTED if re.fullmatch(r"_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+|_[a-z0-9]+", q)}
    assert snake
    assert not snake - defined - NOT_PACKAGE_NAMES, sorted(snake - defined - NOT_PACKAGE_NAMES)
