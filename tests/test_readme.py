"""The README's examples run: every `cartanlab` command line of its `sh`
block that names no file, in process through `cli.main`, and the Python
block of its library tour."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cartanlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
