"""README's Python examples run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


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
