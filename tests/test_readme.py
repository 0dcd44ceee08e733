"""Every `$ gnk ...` example in README.md prints what the README says, and
the Library example runs."""

import os
import re
import shlex

import pytest

from gnk import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
ELLIPSES = ("...", "…")


def readme_examples():
    """(command, expected stdout lines) for each `$ gnk` line with output."""
    examples = []
    in_block = False
    current = None
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                in_block = not in_block
                current = None
            elif in_block and line.startswith("$ "):
                current = (line[2:], [])
                examples.append(current)
            elif in_block and current is not None:
                current[1].append(line)
    return [(cmd, out) for cmd, out in examples if out and cmd.startswith("gnk ")]


def test_readme_has_examples():
    commands = [cmd.split()[1] for cmd, _ in readme_examples()]
    for sub in ("present", "count-homs", "count-classes", "check-t", "talex"):
        assert sub in commands


@pytest.mark.parametrize(
    "command,expected",
    readme_examples(),
    ids=[cmd for cmd, _ in readme_examples()],
)
def test_readme_example_output(command, expected, capsys):
    code = cli.main(shlex.split(command)[1:])
    got = capsys.readouterr().out.splitlines()
    assert code == 0, command
    assert len(got) == len(expected), (command, got)
    for want, line in zip(expected, got):
        stem = next((want[: -len(e)] for e in ELLIPSES if want.endswith(e)), None)
        if stem is None:
            assert line == want, command
        else:
            assert line.startswith(stem), command


def library_block():
    """The python block under the README's `## Library` heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example(capsys):
    scope = {}
    exec(library_block(), scope)
    assert scope["n"] == 264
    line = scope["inv"].line()
    assert re.fullmatch(r"[^|]+ \| [^|]+", line), line
    assert capsys.readouterr().out == line + "\n"
