"""The README's examples run as written: the python blocks in order, in one
namespace, and the command-line examples in order, in one directory."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from wiplab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)


def test_every_command_line_example_exits_zero(tmp_path, monkeypatch):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("wiplab ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv[1:]) == 0, " ".join(argv)
