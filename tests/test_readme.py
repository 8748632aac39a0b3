"""The README's Python Quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README Quickstart has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert re.search(r"^before: 0\.\d+$", out, re.M)
    assert re.search(r"^after: 0\.\d+$", out, re.M)
