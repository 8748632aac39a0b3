"""The experiment scripts run against the current API: each one, on a small
task, prints its CSV header and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emn

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(emn.__file__).resolve().parents[1]

HEADERS = {
    "domain_shift_experiment.py":
        "seed,variant,target_before,target_final,target_best,best_epoch",
}


@pytest.mark.parametrize("script", sorted(HEADERS))
def test_script_runs_and_prints_its_header(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--seeds", "42", "--epochs", "1", "--samples-per-class", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == HEADERS[script]
    assert len(lines) > 1
