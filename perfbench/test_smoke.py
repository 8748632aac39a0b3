"""Smoke test of the benchmark: each workload at a tiny size, in seconds.

Run from the repository root:

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, record_dir: Path, workload: str, trace: int = 0):
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "0.05",
            "--record-dir", str(record_dir),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )


def result_of(out) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_nothing_fails(tmp_path, workload, trace):
    out = run(ROOT, tmp_path, workload, trace)
    assert out.returncode == 0, out.stderr
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads"} <= set(
        record["machine"]
    )
    if trace:
        assert result["metrics"]["propagation.rows_per_adapted_row"]["value"] == 1.0


def test_a_changed_digest_fails_the_run(tmp_path):
    assert run(ROOT, tmp_path, "adapt-narrow").returncode == 0
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    store.write_text(json.dumps({key: "0" * 64 for key in known}))
    out = run(ROOT, tmp_path, "adapt-narrow")
    assert out.returncode == 1
    assert result_of(out)["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run(tmp_path, tmp_path / ".perfbench", "pipeline-wide")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
