"""README's Python examples and command lines run, and print what their
comments say."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from mvlsynth import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
SH = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
JSON = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
# the name the command lines give the document of each kind
FILES = {"truth_table": "sum3.json", "fsm": "counter.json"}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_example_prints_what_its_comments_say(block):
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert all("  # " in line for line in prints)
    comments = [line.split("  # ", 1)[1] for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert line and comment.startswith(line), (line, comment)


def _commands():
    """Each mvlsynth line of the sh blocks, with the # lines after it."""
    commands = []
    for block in SH:
        for line in block.splitlines():
            if line.startswith("mvlsynth "):
                commands.append((line, []))
            elif line.startswith("# ") and commands:
                commands[-1][1].append(line[2:])
    return commands


def test_readme_command_lines_run_and_print_what_their_comments_say(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for block in JSON:
        doc = json.loads(block)
        if doc["kind"] in FILES:
            Path(FILES[doc["kind"]]).write_text(block, "utf-8")
    commands = _commands()
    assert len(commands) >= 11
    for line, printed in commands:
        capsys.readouterr()
        status = cli.main(shlex.split(line)[1:])
        if printed:
            assert capsys.readouterr().out.splitlines() == printed, line
        else:
            assert status == 0, line
