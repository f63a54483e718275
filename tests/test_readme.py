"""The README's library example runs as printed (on a coarser grid)."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "TorusGrid(1, 2048)" in code
    exec(compile(code.replace("TorusGrid(1, 2048)", "TorusGrid(1, 256)"), str(README), "exec"), {})
    gap = float(capsys.readouterr().out)
    assert math.isfinite(gap) and gap < 0.1
