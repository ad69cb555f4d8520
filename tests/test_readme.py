"""The README's Library example runs as printed, so what the README
advertises stays importable and working."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # settle's maker loss, the worst-case loss, and WN's verdict and margin
    assert len(lines) == 3
    assert lines[2].split()[0] in ("holds", "fails", "holds-at-budget")
