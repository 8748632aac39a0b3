#!/usr/bin/env python3
"""Mutation checks: each guard in ``MUTANTS`` is pinned by the tests it names.

Each entry names a source file, an exact string in it (the guard), the
string that disables the guard, and the pytest node ids expected to fail
once it is disabled. The script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, never touching the working
tree, and checks that the listed tests pass on the unmutated copy. Then,
one mutant at a time, it applies the edit to the copy, runs only the listed
tests and restores the file. A mutant survives when any listed id (a test,
or every case of a parametrized one) has no failing case. It prints one
line per mutant and exits 1 if any survived or its run went wrong.

Usage: python scripts/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repo root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node ids, each expected to fail


_MEMORY, _DATAIO = "src/emn/memory.py", "src/emn/dataio.py"
_FAULT = "tests/test_dataio.py::test_structurally_bad_document_is_an_integrity_error"
_SOUND = "tests/test_memory.py::TestSoundStore"
_EMNF = "tests/test_dataio.py::TestEmnf"
_GNB = "tests/test_harness.py::TestGnbBaseline"
_ADAPTATION = "src/emn/adaptation.py"
_LABEL_RULE = "tests/test_memory.py::TestLabelRule"
_CONFIGS = "tests/test_configs.py::test_bad_value_is_refused_at_construction"
_HELD_OUT = (
    "tests/test_adaptation.py::TestAdapt::"
    "test_held_out_labels_outside_the_label_rule_are_refused_before_anything_is_written"
)

MUTANTS = (
    # Memory values: the store and update checks and the update's errstate.
    Mutant(
        "store soundness check", _MEMORY,
        "        if not sound(self.hyper, self.mu, self.sigma):",
        "        if False:",
        (f"{_SOUND}::test_unsound_store_is_refused_when_built",
         f"{_FAULT}[sigma negative]", f"{_FAULT}[sigma too large to score]"),
    ),
    Mutant(
        "update soundness check", _MEMORY,
        "    if not sound(store.hyper, mu, sigma):",
        "    if False:",
        (f"{_SOUND}::test_overflowing_supervised_update_writes_nothing",
         f"{_SOUND}::test_overflowing_reinforced_update_writes_nothing",
         f"{_SOUND}::test_update_whose_sigma_overflows_the_scale_writes_nothing",
         f"{_SOUND}::test_batches_before_an_overflowing_one_stay_applied",
         f"{_SOUND}::test_train_supervised_on_overflowing_rows_is_a_data_error"),
    ),
    Mutant(
        "update errstate", _MEMORY,
        '    with np.errstate(over="ignore", invalid="ignore"):\n        mean =',
        "    with np.errstate():\n        mean =",
        (f"{_SOUND}::test_overflowing_supervised_update_writes_nothing",
         "tests/test_cli.py::test_train_whose_memory_overflows_writes_no_model"),
    ),
    # Model documents: JSON element types and values.
    Mutant(
        "memory element types", _DATAIO,
        "        _check_types(chain.from_iterable(mem[name]), kind, name, path)",
        "        pass",
        (f"{_FAULT}[mu a string]", f"{_FAULT}[sigma a boolean]",
         f"{_FAULT}[initialized a boolean]"),
    ),
    Mutant(
        "initialized is 0 or 1", _DATAIO,
        '    if not set(chain.from_iterable(mem["initialized"])) <= {0, 1}:',
        "    if False:",
        (f"{_FAULT}[initialized 2]",),
    ),
    Mutant(
        "weight element types", _DATAIO,
        '    _check_types(flat_weights, "float", "weight", path)',
        "    pass",
        (f"{_FAULT}[weight a string]",),
    ),
    Mutant(
        "metadata is an object", _DATAIO,
        '    _check_types([metadata], "object", "metadata", path)',
        "    pass",
        (f"{_FAULT}[metadata a list]",),
    ),
    Mutant(
        "metadata value types", _DATAIO,
        '    _check_types(metadata.values(), "str", "metadata value", path)',
        "    pass",
        (f"{_FAULT}[metadata value a list]", f"{_FAULT}[metadata value a number]"),
    ),
    # Model documents: the one strict encoder, on save and on load.
    Mutant(
        "strict JSON encoder", _DATAIO,
        'separators=(",", ":"), allow_nan=False)',
        'separators=(",", ":"))',
        ("tests/test_dataio.py::test_non_finite_memory_is_not_saved",
         "tests/test_dataio.py::test_document_that_is_not_strict_json_is_refused"),
    ),
    Mutant(
        "document has two keys", _DATAIO,
        '        if not isinstance(payload, dict) or doc.keys() != {"crc32", "payload"}:',
        "        if not isinstance(payload, dict):",
        ("tests/test_dataio.py::test_document_with_a_third_key_is_refused",),
    ),
    Mutant(
        "deep nesting is a model error", _DATAIO,
        "    except (ValueError, RecursionError) as exc:",
        "    except ValueError as exc:",
        ("tests/test_dataio.py::test_document_nested_too_deep_is_an_integrity_error",
         "tests/test_cli.py::test_model_nested_too_deep_is_a_model_error"),
    ),
    # Labels: integers (no truncating cast), in [0, C) wherever they are read.
    Mutant(
        "labels are integers", _MEMORY,
        "    if not ok:\n        raise LabelRangeError",
        "    if False:\n        raise LabelRangeError",
        (f"{_LABEL_RULE}::test_integer_labels_refuses_other_values",
         "tests/test_memory.py::TestSupervisedUpdate::test_non_integer_labels_are_refused",
         "tests/test_dataio.py::test_dataset_refuses_non_integer_labels"),
    ),
    Mutant(
        "dataset labels are integers", _DATAIO,
        "            self.labels = integer_labels(self.labels)",
        "            self.labels = np.asarray(self.labels, dtype=np.int64)",
        ("tests/test_dataio.py::test_dataset_refuses_non_integer_labels",),
    ),
    Mutant(
        "update labels are integers", _MEMORY,
        "    labels = integer_labels(labels)\n",
        "    labels = labels.astype(np.int64)\n",
        ("tests/test_memory.py::TestSupervisedUpdate::test_non_integer_labels_are_refused",),
    ),
    Mutant(
        "held-out labels are integers", _ADAPTATION,
        "        held_out = integer_labels(held_out)",
        "        pass",
        (f"{_HELD_OUT}[fraction]", f"{_HELD_OUT}[bool]"),
    ),
    Mutant(
        "held-out label range", _ADAPTATION,
        "        check_label_range(held_out, model.class_count)",
        "        pass",
        (f"{_HELD_OUT}[class count]", f"{_HELD_OUT}[negative]",
         "tests/test_cli.py::test_adapt_on_held_out_labels_outside_the_rule_writes_nothing"),
    ),
    Mutant(
        "evaluated label range", "src/emn/harness.py",
        "    check_label_range(labels, class_count)",
        "    pass",
        ("tests/test_harness.py::TestEvaluate::test_class_count_mismatch",
         "tests/test_harness.py::TestEvaluate::test_negative_label_rejected",
         "tests/test_cli.py::test_eval_negative_label_is_a_data_error"),
    ),
    # JSON kinds: one table, read by the configs and the loader.
    Mutant(
        "JSON kind excludes bool", "src/emn/errors.py",
        ' and (kind == "bool" or cls is not bool)',
        "",
        (f"{_CONFIGS}[HyperParams-('batch_size', True)]",
         f"{_CONFIGS}[HyperParams-('sigma1', True)]",
         f"{_FAULT}[edge id a boolean]", f"{_FAULT}[sigma a boolean]"),
    ),
    Mutant(
        "HyperParams field kinds", _MEMORY,
        "        check_field_kinds(self)\n",
        "",
        (f"{_CONFIGS}[HyperParams-('rounds', 2.0)]",
         f"{_CONFIGS}[HyperParams-('fuzzy_enabled', 'no')]",
         f"{_FAULT}[fuzzy flag a string]", f"{_FAULT}[rounds a float]"),
    ),
    Mutant(
        "TopologyConfig field kinds", "src/emn/topology.py",
        "        check_field_kinds(self)\n",
        "",
        (f"{_CONFIGS}[TopologyConfig-('seed', np.int64(3))]",
         f"{_CONFIGS}[TopologyConfig-('hub_count', 3.5)]",
         f"{_FAULT}[feature dim a float]"),
    ),
    # Bounds on what input may ask for.
    Mutant(
        "label cap MAX_CLASSES", _DATAIO,
        "        check_label_range(self.labels, MAX_CLASSES)",
        "        check_label_range(self.labels, np.inf)",
        ("tests/test_dataio.py::test_label_class_count_rejects_labels_of_max_classes_or_more",
         "tests/test_cli.py::test_train_on_a_label_of_max_classes_or_more_is_a_data_error"),
    ),
    Mutant(
        "init_memory class cap", _MEMORY,
        "    if not 1 <= class_count <= MAX_CLASSES:",
        "    if not 1 <= class_count:",
        ("tests/test_memory.py::TestInit::test_class_count_is_at_most_max_classes",),
    ),
    Mutant(
        "every class has a training row", _DATAIO,
        "        if empty.size:",
        "        if False:",
        ("tests/test_dataio.py::test_label_class_count_requires_a_row_of_every_class",
         "tests/test_cli.py::test_train_on_source_missing_a_class_writes_no_model",
         "tests/test_harness.py::TestAblation::"
         "test_source_missing_a_class_is_refused_before_propagation",
         f"{_GNB}::test_source_missing_a_class_is_refused"),
    ),
    Mutant(
        "rounds cap MAX_ROUNDS", _MEMORY,
        "        if not 1 <= self.rounds <= MAX_ROUNDS:",
        "        if not 1 <= self.rounds:",
        (f"{_FAULT}[rounds beyond the cap]",),
    ),
    Mutant(
        "sigma1 finite", _MEMORY,
        "        if not -np.inf < self.sigma1 < np.inf:",
        "        if False:",
        ("tests/test_configs.py::test_sigma1_is_finite_even_when_fuzzy_is_off",),
    ),
    # EMNF datasets.
    Mutant(
        "exact EMNF size", _DATAIO,
        "    if len(payload) != size:",
        "    if len(payload) < size:",
        (f"{_EMNF}::test_trailing_byte_is_refused",
         f"{_EMNF}::test_header_declaring_fewer_rows_than_the_file_holds",
         f"{_EMNF}::test_labeled_file_read_as_unlabeled_is_refused"),
    ),
    Mutant(
        "EMNF flag bits", _DATAIO,
        "        if flags & ~_EMNF_LABELED:",
        "        if False:",
        (f"{_EMNF}::test_unknown_flag_bits_are_refused",),
    ),
    # The GNB baseline.
    Mutant(
        "GNB finite mean and variance", "src/emn/harness.py",
        "    if not (np.isfinite(mu).all() and np.isfinite(var).all()):",
        "    if False:",
        (f"{_GNB}::test_overflowing_class_variance_is_a_data_error",
         "tests/test_cli.py::test_eval_baseline_gnb_on_overflowing_source_is_a_data_error"),
    ),
    Mutant(
        "GNB finite scores", "src/emn/harness.py",
        '        check_finite_rows(scores, "GNB baseline score is not finite")',
        "        pass",
        (f"{_GNB}::test_overflowing_score_is_a_data_error",),
    ),
    # Topologies.
    Mutant(
        "read-only topology buffers", "src/emn/topology.py",
        "            flat.flags.writeable = False",
        "            pass",
        ("tests/test_topology.py::test_edges_are_read_only",),
    ),
)


def _pytest(workdir: Path, tests) -> tuple[int, set[str], str]:
    """Exit code, failing node ids and output of pytest over ``tests``."""
    # No bytecode: a mutant of the same size written in the same second as
    # its original would otherwise run from the original's cached .pyc.
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf",
         "-p", "no:cacheprovider", *tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    failed = {
        line[len("FAILED "):].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return result.returncode, failed, result.stdout + result.stderr


def _caught(test: str, failed: set[str]) -> bool:
    """Whether some case that node id ``test`` selects failed."""
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def check(mutant: Mutant, workdir: Path) -> list[str]:
    """The listed tests that the mutant survives; ``RuntimeError`` when
    pytest could not run them."""
    path = workdir / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    try:
        code, failed, output = _pytest(workdir, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    if code not in (0, 1):
        raise RuntimeError(f"pytest exited {code}:\n{output}")
    return [t for t in mutant.tests if not _caught(t, failed)]


def main() -> int:
    for m in MUTANTS:
        if (ROOT / m.file).read_text(encoding="utf-8").count(m.old) != 1:
            print(f"{m.name}: the guard does not occur exactly once in {m.file}")
            return 1

    with tempfile.TemporaryDirectory(prefix="emn-mutants-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, workdir / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, workdir / name)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, _, output = _pytest(workdir, tests)
        if code != 0:
            print(f"the listed tests fail on the unmutated copy:\n{output}")
            return 1

        bad = 0
        for m in MUTANTS:
            try:
                survived = check(m, workdir)
            except RuntimeError as exc:
                bad += 1
                print(f"ERROR    {m.name}: {exc}")
                continue
            bad += bool(survived)
            verdict = "killed  " if not survived else "SURVIVED"
            detail = "" if not survived else f": {', '.join(survived)} passed"
            print(f"{verdict} {m.name} ({m.file}){detail}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
