"""Drive the system under a call tracer and list the package functions it
never calls.

    PYTHONPATH=src python -B tests/reachability_drive.py

A `sys.setprofile` hook goes in before `cartanlab` is imported.  Then the
script runs the demos, the README's `cartanlab` commands (the files they
name written to a temporary directory), each `check` suite once, and
`setup`, `pass_ops(0)` and `probes()` of every benchmark workload at a
fixed seed, each op run and judged.  It prints `file:line name`, one a
line, for each top-level function and method of `src/cartanlab`, dunders
included, that no call reached; `__repr__` and nested functions are not
judged.  `-B` keeps the imports from writing bytecode under `perfbench/`.
`tests/test_no_dead_code.py` reads this output.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seed 0 gives class-gaussian a frobenius model with a repeated
# eigenvalue, which takes the squarefree decomposition of its spectrum
SEED = 0
# each suite runs on h_5, and center on an abelian algebra, whose form
# vanishes on central vectors, which takes its containment check
SUITE_SUBJECTS = {"center": "abelian:n=3"}
# the content of each file a README command names
README_FILES = {
    "my_algebra.json": "frobenius:p=2,a=[1]",
    "P.json": [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    "rotation.json": [["3/5", "4/5"], ["-4/5", "3/5"]],
}


def functions(package):
    """(path, def line, first line, qualified name) of every top-level
    function and method in the package directory but `__repr__`; the first
    line is that of the first decorator, as the code object records it."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node.name + ".", d) for d in node.body] if isinstance(node, ast.ClassDef) else [("", node)]
            for owner, d in members:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and d.name != "__repr__":
                    first = min([d.lineno] + [x.lineno for x in d.decorator_list])
                    yield path, d.lineno, first, owner + d.name


def calls(run):
    """The code objects of every Python function called while run() runs."""
    seen = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code  # the value keeps the id from being reused

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return list(seen.values())


def uncalled(codes, package, root):
    """`file:line name` of each function of `functions(package)` that no
    code object in codes is, file relative to root."""
    files = {name: os.path.realpath(name) for name in {code.co_filename for code in codes}}
    called = {(files[code.co_filename], code.co_firstlineno) for code in codes}
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path, line, first, name in functions(package)
        if (os.path.realpath(path), first) not in called
    ]


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```sh\n")[1:]
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.split("```")[0].splitlines()
        if line.startswith("cartanlab ")
    ]


def drive(workdir):
    """Run the demos, the README commands, each suite and one pass plus the
    probes of each workload; raise if a command fails or an op is wrong."""
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    from cartanlab import algebra_io, catalog
    from cartanlab.cli import main
    from cartanlab.suites import SUITES

    for name, content in README_FILES.items():
        if isinstance(content, str):
            content = algebra_io.algebra_to_dict(catalog.resolve(content).algebra)
        Path(workdir, name).write_text(json.dumps(content), encoding="utf-8")
    argvs = _readme_commands()
    argvs += [["check", "--catalog", SUITE_SUBJECTS.get(s, "heisenberg:p=2"), "--suite", s] for s in SUITES]
    for argv in argvs:
        argv = [str(Path(workdir, a)) if a in README_FILES else a for a in argv]
        if main(argv) != 0:
            raise RuntimeError(f"{argv} did not exit 0")

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        w = workload()
        w.setup(SEED, workdir)
        for op in [*w.pass_ops(0), *(op for _, op in w.probes())]:
            verdict, ok = op.judge(op.run())
            if not ok:
                raise RuntimeError(f"{name} op {op.kind} judged wrong: {verdict}")


def main():
    with tempfile.TemporaryDirectory() as workdir:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = calls(lambda: drive(workdir))
    for line in uncalled(codes, ROOT / "src" / "cartanlab", ROOT):
        print(line)


if __name__ == "__main__":
    main()
