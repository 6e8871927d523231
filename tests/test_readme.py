"""README examples run as written, so the documentation cannot drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from lhamc.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
    for line in re.sub(r"\\\n\s*", "", block).splitlines()
    if line.startswith("lhamc ")
]

# the prose says these exit 1: a violated property; every other example exits 0
VIOLATED = ('--formula "[] safe"', '--formula "[] ~ <> one-down"')


def test_readme_has_every_example():
    assert PYTHON_BLOCKS
    assert {shlex.split(c)[1] for c in COMMANDS} == {"simulate", "search", "check", "product-check"}
    assert all(any(v in c for c in COMMANDS) for v in VIOLATED)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_as_the_prose_states(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert "error:" not in err
    assert code == (1 if any(v in command for v in VIOLATED) else 0), out + err


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: "python")
def test_library_example_runs(code, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})

