"""The README's library example runs as printed (on a coarser grid), and its
Quick start lists the CLI's subcommands."""

import math
import pathlib
import re

from fracvisc.cli import COMMANDS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "TorusGrid(1, 2048)" in code
    exec(compile(code.replace("TorusGrid(1, 2048)", "TorusGrid(1, 256)"), str(README), "exec"), {})
    gap = float(capsys.readouterr().out)
    assert math.isfinite(gap) and gap < 0.1


def test_readme_quick_start_lists_every_command():
    quick_start = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```\n(.*?)```", quick_start, flags=re.S).group(1)
    assert set(re.findall(r"^fracvisc (\S+)", block, flags=re.M)) == set(COMMANDS)
