"""The experiment scripts run against the current API: each one, on a small
task, prints its CSV header and exits 0. The mutation table names guards
that exist."""

import importlib.util
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


def _mutants():
    path = ROOT / "scripts" / "mutation_check.py"
    spec = importlib.util.spec_from_file_location("mutation_check", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda m: m.name)
def test_each_mutation_guard_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test


def test_mutant_names_are_unique():
    names = [m.name for m in _mutants()]
    assert len(names) == len(set(names))
