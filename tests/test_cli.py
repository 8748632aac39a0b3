import json
import struct

import numpy as np
import pytest

from emn import cli, errors
from emn.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def task_files(tmp_path):
    src = tmp_path / "source.csv"
    tgt = tmp_path / "target.csv"
    code = main(
        [
            "synth",
            "--out-source", str(src),
            "--out-target", str(tgt),
            "--classes", "3",
            "--dim", "8",
            "--samples-per-class", "30",
            "--mean-scale", "0.1",
            "--spread", "0.1",
            "--shift", "0.2",
            "--seed", "42",
        ]
    )
    assert code == 0
    return src, tgt


@pytest.fixture
def model_file(task_files, tmp_path):
    src, _ = task_files
    model = tmp_path / "model.json"
    code = main(
        ["train", "--source", str(src), "--model", str(model),
         "--hub", "10", "--bridging", "10", "--in-degree", "6", "--seed", "1"]
    )
    assert code == 0
    return model


def test_full_pipeline(task_files, model_file, tmp_path, capsys):
    src, tgt = task_files

    code, out, _ = _run(
        capsys, "adapt", "--model", str(model_file), "--target", str(tgt),
        "--out", str(tmp_path / "adapted.json"), "--epochs", "2", "--seed", "3",
        "--snapshot-dir", str(tmp_path / "snaps"),
    )
    assert code == 0
    assert out.startswith("epoch,pseudo_label_agreement")
    assert (tmp_path / "snaps" / "memory_epoch_000.csv").exists()
    assert "best_epoch (oracle-selected)" in out

    pred_out = tmp_path / "pred.csv"
    code, _, _ = _run(
        capsys, "predict", "--model", str(tmp_path / "adapted.json"),
        "--target", str(tgt), "--out", str(pred_out),
        "--trace-out", str(tmp_path / "trace.csv"),
    )
    assert code == 0
    lines = pred_out.read_text().splitlines()
    assert lines[0] == "row_index,predicted_label,p_0,p_1,p_2"
    assert len(lines) == 91
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "round,node_id,output"
    snapshot = (tmp_path / "snaps" / "memory_epoch_000.csv").read_text().splitlines()
    for report in (lines, trace_lines, snapshot):
        for line in report[1:]:
            for field in line.split(","):
                float(field)  # plain numbers, never numpy scalar reprs

    code, out, _ = _run(
        capsys, "eval", "--model", str(tmp_path / "adapted.json"),
        "--target", str(tgt), "--baseline-gnb", "--source", str(src),
    )
    assert code == 0
    assert out.startswith("accuracy,")
    assert "baseline_gnb_accuracy," in out


def test_export_memory(model_file, tmp_path, capsys):
    out_path = tmp_path / "memory.csv"
    code, _, _ = _run(
        capsys, "export-memory", "--model", str(model_file), "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().startswith("node_id,class,mu,sigma")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("predict", "--config", "/nonexistent/x.cfg"),
        ("eval", "--config", "/nonexistent/x.cfg"),
        ("export-memory", "--config", "/nonexistent/x.cfg"),
        ("export-memory", "--format", "csv"),
    ],
)
def test_flag_the_command_never_read_is_a_usage_error(
    task_files, model_file, capsys, command, flag, value
):
    argv = [command, "--model", str(model_file), flag, value]
    if command != "export-memory":
        argv += ["--target", str(task_files[1])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_json_record(task_files, model_file, tmp_path, capsys):
    _, tgt = task_files
    json_out = tmp_path / "bench.json"
    code, out, _ = _run(
        capsys, "bench", "--model", str(model_file), "--target", str(tgt),
        "--repetitions", "2", "--json-out", str(json_out),
    )
    assert code == 0
    record = json.loads(json_out.read_text())
    assert record["backward_passes"] == 0
    assert record["repetitions"] == 2


def test_bench_flags_set_the_timed_adaptation(task_files, model_file, tmp_path, capsys):
    _, tgt = task_files
    json_out = tmp_path / "bench.json"
    code, _, _ = _run(
        capsys, "bench", "--model", str(model_file), "--target", str(tgt),
        "--repetitions", "1", "--batch-size", "16", "--beta", "0.5", "--seed", "3",
        "--json-out", str(json_out),
    )
    assert code == 0
    assert json.loads(json_out.read_text())["config"] == {
        "repetitions": 1, "batch_size": 16, "beta": 0.5, "shuffle_seed": 3
    }


def test_ablate(task_files, capsys):
    src, tgt = task_files
    code, out, _ = _run(
        capsys, "ablate", "--source", str(src), "--target", str(tgt),
        "--hub", "10", "--bridging", "10", "--in-degree", "6",
        "--epochs", "1", "--seed", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("variant,fuzzy,confidence")
    assert [l.split(",")[0] for l in lines[1:4]] == ["base", "base+G", "base+G+C"]


def test_exit_code_usage_error(tmp_path, capsys):
    src = tmp_path / "s.csv"
    src.write_text("f0,label\n1.0,0\n2.0,1\n")
    code, _, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
        "--hub", "0",
    )
    assert code == 2


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1\n1.0\n")
    code, _, _ = _run(
        capsys, "predict", "--model", str(tmp_path / "missing.json"),
        "--target", str(bad),
    )
    assert code == 3  # missing model file surfaces as a data/file error


def test_exit_code_model_error(task_files, tmp_path, capsys):
    _, tgt = task_files
    doc = tmp_path / "tampered.json"
    doc.write_text('{"payload": {"schema_version": 1}, "crc32": 0}')
    code, _, _ = _run(capsys, "predict", "--model", str(doc), "--target", str(tgt))
    assert code == 4


def test_exit_code_model_error_for_non_json_file(task_files, tmp_path, capsys):
    _, tgt = task_files
    doc = tmp_path / "model.json"
    doc.write_text("this is not a model\n")
    code, _, err = _run(capsys, "predict", "--model", str(doc), "--target", str(tgt))
    assert code == 4
    assert "not a model document" in err


def test_model_nested_too_deep_is_a_model_error(task_files, tmp_path, capsys):
    _, tgt = task_files
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _run(capsys, "predict", "--model", str(doc), "--target", str(tgt))
    assert code == 4
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "strict JSON" in err and out == ""


def test_exit_code_model_error_for_bad_edge_id(task_files, model_file, capsys):
    import zlib

    _, tgt = task_files
    doc = json.loads(model_file.read_text())
    doc["payload"]["topology"]["edges"][-1][0] = 999
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["crc32"] = zlib.crc32(canonical.encode("utf-8"))
    model_file.write_text(json.dumps(doc))
    code, _, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(tgt)
    )
    assert code == 4
    assert "edge id" in err


def test_eval_baseline_gnb_on_empty_target(task_files, model_file, tmp_path, capsys):
    src, _ = task_files
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(f"f{i}" for i in range(8)) + ",label\n")
    code, out, _ = _run(
        capsys, "eval", "--model", str(model_file), "--target", str(empty),
        "--baseline-gnb", "--source", str(src),
    )
    assert code == 0
    assert "accuracy,0.0" in out
    assert "baseline_gnb_accuracy,0.0" in out


def test_eval_baseline_gnb_on_overflowing_source_is_a_data_error(
    task_files, model_file, tmp_path, capsys
):
    # Rows alternate between 0.5 and 1e200, so every class's GNB variance
    # overflows.
    _, tgt = task_files
    big = tmp_path / "big.csv"
    rows = [",".join(["1e200" if k % 2 else "0.5"] * 8 + [str(k % 3)]) for k in range(40)]
    big.write_text(",".join(f"f{i}" for i in range(8)) + ",label\n" + "\n".join(rows))
    code, out, err = _run(
        capsys, "eval", "--model", str(model_file), "--target", str(tgt),
        "--baseline-gnb", "--source", str(big),
    )
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "GNB" in err and "variance" in err and out == ""


def test_eval_negative_label_is_a_data_error(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    header = ",".join(f"f{i}" for i in range(8)) + ",label\n"
    bad.write_text(header + "0.0," * 8 + "-1\n")
    code, _, err = _run(
        capsys, "eval", "--model", str(model_file), "--target", str(bad)
    )
    assert code == 3
    assert "non-negative" in err


@pytest.fixture
def empty_labeled(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(f"f{i}" for i in range(8)) + ",label\n")
    return path


def test_train_on_empty_source_is_a_data_error(empty_labeled, tmp_path, capsys):
    code, _, err = _run(
        capsys, "train", "--source", str(empty_labeled),
        "--model", str(tmp_path / "m.json"),
    )
    assert code == 3
    assert "labeled rows" in err
    assert not (tmp_path / "m.json").exists()


def test_train_on_source_missing_a_class_writes_no_model(tmp_path, capsys):
    # Class 1 has no row, so its memories could never be trained.
    src = tmp_path / "gap.csv"
    src.write_text("f0,f1,label\n1.0,2.0,0\n1.5,2.5,0\n3.0,4.0,2\n3.5,4.5,2\n")
    code, out, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "class 1" in err
    assert not (tmp_path / "m.json").exists()


def test_ablate_on_empty_source_is_a_data_error(task_files, empty_labeled, capsys):
    _, tgt = task_files
    code, _, err = _run(
        capsys, "ablate", "--source", str(empty_labeled), "--target", str(tgt),
        "--epochs", "1",
    )
    assert code == 3
    assert "labeled rows" in err


def test_config_value_that_fails_to_cast_is_a_config_error(
    task_files, tmp_path, capsys
):
    src, _ = task_files
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("hub = abc\n")
    code, _, err = _run(
        capsys, "train", "--config", str(cfgfile), "--source", str(src),
        "--model", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "hub" in err and "abc" in err


def test_config_file_defaults_overridden_by_flags(tmp_path, capsys):
    src = tmp_path / "source.csv"
    tgt = tmp_path / "target.csv"
    cfgfile = tmp_path / "run.cfg"
    # Comments, blank and blank-looking lines are skipped.
    cfgfile.write_text(
        "# a task\nclasses = 3  # three\n\ndim = 8\n"
        "   \nsamples-per-class = 5\nseed = 1\n"
    )
    code = main(
        ["synth", "--config", str(cfgfile), "--out-source", str(src),
         "--out-target", str(tgt), "--samples-per-class", "7"]
    )
    assert code == 0
    lines = src.read_text().splitlines()
    assert len(lines) == 1 + 3 * 7  # flag wins over config file


def test_config_line_without_equals_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("classes = 2\nseed 1\n")
    code, out, err = _run(
        capsys, "synth", "--config", str(cfgfile), "--out-source",
        str(tmp_path / "s.csv"), "--out-target", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert "line 2" in err and "key = value" in err
    assert out == ""
    assert not (tmp_path / "s.csv").exists()


def _saved_payload(path):
    return json.loads(path.read_text())["payload"]


def test_adapt_uses_the_update_rule_chosen_at_train(task_files, tmp_path, capsys):
    src, tgt = task_files
    model = tmp_path / "model.json"
    code, _, _ = _run(
        capsys, "train", "--source", str(src), "--model", str(model),
        "--hub", "10", "--bridging", "10", "--in-degree", "6", "--seed", "1",
        "--beta", "0.5", "--batch-size", "16",
    )
    assert code == 0
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    for out, flags in ((plain, []), (flagged, ["--beta", "0.5", "--batch-size", "16"])):
        code, _, _ = _run(
            capsys, "adapt", "--model", str(model), "--target", str(tgt),
            "--out", str(out), "--epochs", "2", *flags,
        )
        assert code == 0
    assert _saved_payload(plain)["memory"] == _saved_payload(flagged)["memory"]
    assert _saved_payload(plain)["hyper"]["batch_size"] == 16


def test_adapt_saves_its_update_rule(task_files, model_file, tmp_path, capsys):
    _, tgt = task_files
    out = tmp_path / "adapted.json"
    code, _, _ = _run(
        capsys, "adapt", "--model", str(model_file), "--target", str(tgt),
        "--out", str(out), "--epochs", "1", "--beta", "0.7",
    )
    assert code == 0
    hyper = _saved_payload(out)["hyper"]
    assert hyper["beta"] == 0.7
    assert hyper["batch_size"] == 64


def test_adapt_rejects_an_invalid_beta(task_files, model_file, capsys):
    _, tgt = task_files
    code, _, err = _run(
        capsys, "adapt", "--model", str(model_file), "--target", str(tgt),
        "--beta", "1.5",
    )
    assert code == 2
    assert "beta" in err


def test_train_on_all_negative_labels_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "neg.csv"
    src.write_text("f0,f1,label\n1.0,2.0,-1\n3.0,4.0,-1\n")
    code, _, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
    )
    assert code == 3
    assert "non-negative" in err


def test_train_on_a_label_of_max_classes_or_more_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "big.csv"
    src.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,4.0,{2**63 - 1}\n")
    code, _, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
    )
    assert code == 3
    assert "below 65536" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_with_non_finite_sigma1_is_a_config_error(task_files, tmp_path, capsys, value):
    # sigma1 is saved even with fuzzy off, and a document is strict JSON.
    src, _ = task_files
    code, _, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
        "--no-fuzzy", "--sigma1", value,
    )
    assert code == 2
    assert "sigma1" in err
    assert not (tmp_path / "m.json").exists()


def test_train_whose_memory_overflows_writes_no_model(tmp_path, capsys):
    # Rows of 1e307 are finite, but their memory sums overflow to inf.
    src = tmp_path / "huge.csv"
    src.write_text("f0,f1,label\n" + "1e307,1e307,0\n-1e307,1e307,1\n" * 8)
    code, _, err = _run(
        capsys, "train", "--source", str(src), "--model", str(tmp_path / "m.json"),
    )
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "NaN or infinite" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", ["ture", "maybe", ""])
def test_config_boolean_typo_is_a_config_error(task_files, tmp_path, capsys, value):
    src, _ = task_files
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"no_fuzzy = {value}\n")
    code, _, err = _run(
        capsys, "train", "--config", str(cfgfile), "--source", str(src),
        "--model", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert f"no_fuzzy = {value!r}" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "text, fuzzy", [("no_fuzzy = ON", False), ("no-fuzzy = off", True),
                    ("no_fuzzy = Yes", False), ("no_fuzzy = 0", True)]
)
def test_config_booleans(task_files, tmp_path, capsys, text, fuzzy):
    src, _ = task_files
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text + "\n")
    model = tmp_path / "m.json"
    code, _, _ = _run(
        capsys, "train", "--config", str(cfgfile), "--source", str(src),
        "--model", str(model), "--hub", "4", "--bridging", "4", "--in-degree", "3",
    )
    assert code == 0
    assert _saved_payload(model)["hyper"]["fuzzy_enabled"] is fuzzy


def test_config_file_not_utf8_is_a_config_error(task_files, tmp_path, capsys):
    src, _ = task_files
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"hub = \xff\xfe\n")
    code, _, err = _run(
        capsys, "train", "--config", str(cfgfile), "--source", str(src),
        "--model", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "UTF-8" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300"])
def test_predict_on_non_finite_feature_is_a_data_error(
    model_file, tmp_path, capsys, value
):
    bad = tmp_path / "bad.csv"
    header = ",".join(f"f{i}" for i in range(8)) + "\n"
    bad.write_text(header + "0.0," * 7 + "0.0\n" + "0.0," * 7 + value + "\n")
    code, out, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(bad)
    )
    assert code == 3
    assert "row 1" in err and "finite" in err
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "adapt"])
def test_overflowing_feature_is_a_data_error(
    model_file, tmp_path, capsys, command
):
    # 1e300 is finite, so the dataset accepts it; retrieval overflows.
    bad = tmp_path / "bad.csv"
    header = ",".join(f"f{i}" for i in range(8)) + ",label\n"
    bad.write_text(header + "0.0," * 8 + "0\n" + "0.0," * 7 + "1e300,1\n")
    argv = [command, "--model", str(model_file), "--target", str(bad)]
    if command == "adapt":
        argv += ["--out", str(tmp_path / "adapted.json")]
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert "row 1" in err and "finite" in err
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["predict", "eval", "adapt"])
def test_overflowing_memory_is_a_model_error(
    task_files, model_file, tmp_path, capsys, command
):
    # A document whose mu are all 1e300 loads (training on features near
    # 1e300 gives such mu) but overflows retrieval on every moderate row.
    import zlib

    _, tgt = task_files
    doc = json.loads(model_file.read_text())
    mu = doc["payload"]["memory"]["mu"]
    doc["payload"]["memory"]["mu"] = [[1e300] * len(row) for row in mu]
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["crc32"] = zlib.crc32(canonical.encode("utf-8"))
    model_file.write_text(json.dumps(doc))
    argv = [command, "--model", str(model_file), "--target", str(tgt)]
    if command == "adapt":
        argv += ["--out", str(tmp_path / "adapted.json")]
    code, out, err = _run(capsys, *argv)
    assert code == 4
    assert "row 0" in err and "mu too large" in err
    assert out == ""


def test_emnf_header_beyond_the_file_is_a_data_error(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.emnf"
    big = 2**32 - 1
    bad.write_bytes(b"EMNF" + struct.pack("<HHIII", 1, 0, big, big, 0))
    code, out, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(bad)
    )
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_dataset_not_utf8_is_a_data_error(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(",".join(f"f{i}" for i in range(8)).encode() + b"\n\xff\xfe\n")
    code, _, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(bad)
    )
    assert code == 3
    assert "UTF-8" in err


def _error_classes(cls=errors.EmnError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_library_error_has_one_exit_code(cls, monkeypatch, capsys):
    assert cls.__dict__.get("exit_code") in (2, 3, 4), cls.__name__

    def handler(args):
        raise cls("raised by the handler")

    monkeypatch.setattr(cli, "cmd_export_memory", handler)
    code, _, err = _run(capsys, "export-memory", "--model", "unused.json")
    assert code == cls.exit_code
    assert err == "error: raised by the handler\n"


def _assert_one_error_line(code, err):
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_model_path_a_directory_is_a_data_error(task_files, tmp_path, capsys):
    _, tgt = task_files
    code, out, err = _run(capsys, "predict", "--model", str(tmp_path), "--target", str(tgt))
    _assert_one_error_line(code, err)
    assert out == ""


def test_out_path_a_directory_is_a_data_error(task_files, model_file, tmp_path, capsys):
    _, tgt = task_files
    code, _, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(tgt),
        "--out", str(tmp_path),
    )
    _assert_one_error_line(code, err)


def test_snapshot_dir_an_existing_file_is_a_data_error(
    task_files, model_file, tmp_path, capsys
):
    _, tgt = task_files
    blocker = tmp_path / "snaps"
    blocker.write_text("a file, not a directory\n")
    adapted = tmp_path / "adapted.json"
    code, out, err = _run(
        capsys, "adapt", "--model", str(model_file), "--target", str(tgt),
        "--out", str(adapted), "--epochs", "1", "--snapshot-dir", str(blocker),
    )
    _assert_one_error_line(code, err)
    assert out == ""
    assert not adapted.exists()


@pytest.mark.parametrize(
    "labels", [["7", "-1"], ["0", "3"], ["0", "0.5"]], ids=["7 and -1", "3", "0.5"]
)
def test_adapt_on_held_out_labels_outside_the_rule_writes_nothing(
    model_file, tmp_path, capsys, labels
):
    # The model has 3 classes; eval refuses these labels, and so must adapt.
    tgt = tmp_path / "bad.csv"
    header = ",".join(f"f{i}" for i in range(8)) + ",label\n"
    tgt.write_text(header + "".join("0.0," * 8 + label + "\n" for label in labels))
    adapted, snaps = tmp_path / "adapted.json", tmp_path / "snaps"
    code, out, err = _run(
        capsys, "adapt", "--model", str(model_file), "--target", str(tgt),
        "--out", str(adapted), "--epochs", "1", "--snapshot-dir", str(snaps),
    )
    _assert_one_error_line(code, err)
    assert out == ""
    assert not adapted.exists() and not snaps.exists()


def test_export_memory_writes_to_standard_output(model_file, tmp_path, capsys):
    out_path = tmp_path / "memory.csv"
    _run(capsys, "export-memory", "--model", str(model_file), "--out", str(out_path))
    code, out, _ = _run(capsys, "export-memory", "--model", str(model_file))
    assert code == 0
    assert out == out_path.read_text()


def test_usage_errors_come_before_any_output(task_files, model_file, tmp_path, capsys):
    header_only = tmp_path / "empty.csv"
    header_only.write_text(",".join(f"f{i}" for i in range(8)) + "\n")
    out_path = tmp_path / "p.csv"
    code, _, err = _run(
        capsys, "predict", "--model", str(model_file), "--target", str(header_only),
        "--out", str(out_path), "--trace-out", str(tmp_path / "tr.csv"),
    )
    assert code == 2 and "--trace-out" in err
    code, _, err = _run(
        capsys, "eval", "--model", str(model_file), "--target", str(task_files[1]),
        "--out", str(out_path), "--baseline-gnb",
    )
    assert code == 2 and "--source" in err
    assert not out_path.exists()
    assert not (tmp_path / "tr.csv").exists()


# Each configurable option of each command: a value other than its default,
# and the flags every run of the command gets unless that option is tested.
CONFIGURABLE = {
    "synth": {
        "classes": "4", "dim": "5", "samples_per_class": "6", "seed": "3",
        "mean_scale": "0.5", "spread": "0.3", "shift": "0.4",
    },
    "train": {
        "hub": "7", "bridging": "5", "in_degree": "4", "rounds": "2",
        "batch_size": "16", "seed": "3", "beta": "0.5", "sigma1": "0.7",
        "no_fuzzy": True, "no_confidence": True,
    },
    "adapt": {"epochs": "3", "batch_size": "16", "seed": "3", "beta": "0.5"},
    "bench": {"repetitions": "2", "batch_size": "16", "seed": "3", "beta": "0.5"},
    "ablate": {
        "hub": "7", "bridging": "5", "in_degree": "4", "rounds": "2",
        "batch_size": "16", "epochs": "2", "seed": "3", "beta": "0.5",
        "sigma1": "0.7",
    },
}
BASE_FLAGS = {
    "train": {"hub": "10", "bridging": "10", "in_degree": "6", "seed": "1"},
    "adapt": {"epochs": "2"},
    "bench": {"repetitions": "1"},
    "ablate": {"hub": "10", "bridging": "10", "in_degree": "6", "epochs": "1"},
}


def _command_run(command, task_files, model_file, run_dir):
    """argv of one run of ``command`` writing into ``run_dir``, and a
    function reading back what it wrote (stdout given) minus timings."""
    src, tgt = (str(p) for p in task_files)
    run_dir.mkdir()

    def out(name):
        return str(run_dir / name)

    if command == "synth":
        argv = ["--out-source", out("a.csv"), "--out-target", out("b.csv")]
        files = ["a.csv", "b.csv"]
    elif command == "train":
        argv, files = ["--source", src, "--model", out("m.json")], ["m.json"]
    elif command == "adapt":
        argv = ["--model", str(model_file), "--target", tgt, "--out", out("m.json")]
        files = ["m.json"]
    elif command == "bench":
        argv = ["--model", str(model_file), "--target", tgt, "--out", out("report.csv"),
                "--json-out", out("r.json")]
        files = []
    else:
        argv = ["--source", src, "--target", tgt, "--out", out("report.csv")]
        files = ["report.csv"]

    def artifacts(stdout):
        got = {name: (run_dir / name).read_bytes() for name in files}
        if command == "adapt":  # the last column times the epoch
            stdout = [l if l.startswith("#") else l.rsplit(",", 1)[0]
                      for l in stdout.splitlines()]
        elif command == "bench":
            record = json.loads((run_dir / "r.json").read_text())
            stdout = [record["config"], record["sample_count"],
                      record["forward_passes_per_adapted_sample"]]
        return got, stdout

    return [command, *argv], artifacts


def _flags(options):
    argv = []
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [flag, value]
    return argv


@pytest.mark.parametrize("command", list(CONFIGURABLE))
def test_config_keys_are_the_configurable_options(command, task_files, model_file, tmp_path):
    argv, _ = _command_run(command, task_files, model_file, tmp_path / "run")
    assert set(cli.build_parser().parse_args(argv).configurable) == set(CONFIGURABLE[command])


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, options in CONFIGURABLE.items() for o in options],
)
def test_config_value_acts_like_its_flag(
    command, option, task_files, model_file, tmp_path, capsys
):
    value = CONFIGURABLE[command][option]
    base = {k: v for k, v in BASE_FLAGS.get(command, {}).items() if k != option}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{option} = {'yes' if value is True else value}\n")
    results = []
    for name, extra in (("flag", _flags({option: value})), ("file", ["--config", str(cfgfile)])):
        argv, artifacts = _command_run(command, task_files, model_file, tmp_path / name)
        code, out, err = _run(capsys, *argv, *_flags(base), *extra)
        assert (code, err) == (0, "")
        results.append(artifacts(out))
    assert results[0] == results[1]
    # The value is one that shows: the base run's artifacts differ.
    argv, artifacts = _command_run(command, task_files, model_file, tmp_path / "base")
    code, out, _ = _run(capsys, *argv, *_flags(BASE_FLAGS.get(command, {})))
    assert code == 0
    assert artifacts(out) != results[0]


@pytest.mark.parametrize("command", list(CONFIGURABLE))
def test_config_key_naming_no_option_is_a_config_error(
    command, task_files, model_file, tmp_path, capsys
):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("betta = 0.5\nseed = 3\n")
    model_bytes = model_file.read_bytes()
    run_dir = tmp_path / "run"
    argv, _ = _command_run(command, task_files, model_file, run_dir)
    code, out, err = _run(capsys, *argv, "--config", str(cfgfile))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "betta" in err and "seed" not in err.replace(str(cfgfile), "")
    assert out == ""
    assert list(run_dir.iterdir()) == []
    assert model_file.read_bytes() == model_bytes
