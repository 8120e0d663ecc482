"""README.md stays runnable: every python block, and every CLI line that
needs no file from outside the README, runs as written."""

import re
import shlex
from pathlib import Path

from rtkm.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_python_blocks_run():
    blocks = [code for lang, code in BLOCKS if lang == "python"]
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_synth_cli_lines_run(tmp_path, monkeypatch):
    """The --synth command lines, in README order (eval reads what fit
    wrote), from a scratch directory that takes their output files."""
    lines = [line.strip() for lang, code in BLOCKS if lang == "sh"
             for line in code.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("rtkm ") and "--synth" in line]
    assert [argv[1] for argv in commands] == ["fit", "sweep", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
