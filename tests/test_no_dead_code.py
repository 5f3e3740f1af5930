"""Every function, class and method of the package is named somewhere.

A name counts as used when it occurs as a whole word in the sources of the
package, its tests, the demos or the benchmark, other than on a line that
defines that name.  The check reads words, not references, so it cannot
see that a name used in one class is dead in another; it catches code that
nothing mentions at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


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


def test_every_definition_is_referenced():
    lines = {}
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            lines[path] = path.read_text(encoding="utf-8").splitlines()
            words.update(re.findall(r"\w+", "\n".join(lines[path])))
    definitions = list(_definitions())
    on_def_lines = Counter()
    for name, path, lineno in definitions:
        on_def_lines[name] += re.findall(r"\w+", lines[path][lineno - 1]).count(name)
    dead = sorted(
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for name, path, lineno in definitions
        if words[name] <= on_def_lines[name]
    )
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
