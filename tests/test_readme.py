"""The README's command-line examples, run through `cli.main`: every
`$ chargraph ...` line of a fenced block must exit 0 and print exactly the
lines that follow it, up to the next `$` line or the end of the block."""

import re
import shlex
from pathlib import Path

import pytest

from chargraph.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                command = line[2:]
                examples.append((command, []))
            elif command is not None:
                examples[-1][1].append(line)
    return [(c, "".join(ln + "\n" for ln in out)) for c, out in examples]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    commands = [c for c, _ in EXAMPLES]
    assert len(commands) >= 4
    assert all(c.startswith("chargraph ") for c in commands)
    assert {c.split()[1] for c in commands} == {"placement", "entropy", "scenario"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name configs/ relative to the root
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
