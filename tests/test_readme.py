"""The README stays in step with the code: its Python Quickstart runs
against the current API, and the scripts and CLI subcommands it names
exist."""

import argparse
import re
from pathlib import Path

from emn.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_quickstart_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README Quickstart has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert re.search(r"^before: 0\.\d+$", out, re.M)
    assert re.search(r"^after: 0\.\d+$", out, re.M)


def test_named_scripts_exist():
    text = README.read_text(encoding="utf-8")
    scripts = set(re.findall(r"\bscripts/[\w/.-]+\.py\b", text))
    assert scripts, "README names no scripts"
    missing = sorted(s for s in scripts if not (ROOT / s).is_file())
    assert not missing, f"README names missing scripts: {missing}"


def test_cli_block_uses_registered_subcommands():
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block is not None, "README CLI section has no sh block"
    used = set(re.findall(r"^emn\s+([\w-]+)", block.group(1), re.M))
    assert used, "README CLI block runs no emn subcommand"
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unknown = sorted(used - set(sub.choices))
    assert not unknown, f"README uses unregistered subcommands: {unknown}"
