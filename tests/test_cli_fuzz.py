"""Property tests of the CLI exit codes on mutated input.

Whatever text ``emn predict``, ``eval``, ``train`` and ``adapt`` are given
as a CSV dataset, and whatever model document or EMNF dataset ``emn
predict`` is given, they exit with 0, 2, 3 or 4 and print no traceback;
``train`` and ``adapt`` write a document ``load_model`` reads when they exit
0, and none otherwise. So does every subcommand with any of its integer
options at -1 or 0.
"""

import argparse
import json
import struct
import zlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from emn.cli import build_parser, main
from emn.dataio import load_model

DIM = 4
NET = ["--hub", "4", "--bridging", "4", "--in-degree", "3"]
EXIT_CODES = {0, 2, 3, 4}
SPECIAL_FIELDS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e300", "-1e300", "1e309"]
ODD_FIELDS = ["", " ", "abc", "0x10", "1,5", "1e", "--1", "\x00"]
# Where float() and numpy's C reader disagree (a digit separator, non-ASCII
# digits, U+001F) or meet at an edge (surrounding Unicode or ASCII spaces).
READER_FIELDS = ["1_0", "\u0661", "\uff11", "\x1f1", "\u00a01.5", " 1.5 ", "1.5\u3000"]
# Integers on either side of the 64-bit range, for the label column.
BIG_FIELDS = [str(2**63 - 1), str(2**63), str(-(2**63) - 1), "9" * 30]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained model and a clean labeled target CSV to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    src, tgt = root / "source.csv", root / "target.csv"
    assert main(
        ["synth", "--out-source", str(src), "--out-target", str(tgt),
         "--classes", "3", "--dim", str(DIM), "--samples-per-class", "4",
         "--seed", "5"]
    ) == 0
    model = root / "model.json"
    assert main(
        ["train", "--source", str(src), "--model", str(model), *NET, "--seed", "1"]
    ) == 0
    return root, model, tgt.read_text(encoding="utf-8").splitlines()


@st.composite
def mutated_csv(draw, lines):
    """Bytes of a target CSV after one kind of mutation."""
    kinds = ["bytes", "truncate", "columns", "field", "special", "number", "reader"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))].encode()
    rows = [line.split(",") for line in lines]
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "columns":
        extra = draw(st.lists(st.sampled_from(["1.0", "label", "", "x"]), min_size=1, max_size=3))
        rows[r] += extra
    else:
        last = len(rows[r]) - 1  # the label column, half of the time
        c = draw(st.one_of(st.just(last), st.integers(0, last)))
        if kind == "number":
            wide = st.integers(-(10**30), 10**30).map(str)
            field = st.one_of(st.sampled_from(BIG_FIELDS), wide, st.floats().map(repr))
        elif kind == "reader":
            field = st.sampled_from(READER_FIELDS)
        else:
            pool = SPECIAL_FIELDS if kind == "special" else ODD_FIELDS
            field = st.one_of(st.sampled_from(pool), st.text(max_size=8))
        rows[r][c] = draw(field)
    return ("\n".join(",".join(row) for row in rows) + "\n").encode(
        "utf-8", errors="surrogatepass"
    )


def _csv_argv(command, model, csv, out):
    """``command`` on the CSV ``csv``; ``train`` and ``adapt`` write ``out``."""
    if command == "train":
        return ["train", "--source", str(csv), "--model", str(out), *NET]
    argv = [command, "--model", str(model), "--target", str(csv)]
    return argv + ["--out", str(out), "--epochs", "2"] if command == "adapt" else argv


@pytest.mark.parametrize("command", ["predict", "eval", "train", "adapt"])
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_csv_gives_a_documented_exit_code(workdir, capsys, command, data):
    root, model, lines = workdir
    target, out = root / "mutated.csv", root / "written.json"
    target.write_bytes(data.draw(mutated_csv(lines)))
    out.unlink(missing_ok=True)
    code = main(_csv_argv(command, model, target, out))
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
    if command in ("train", "adapt"):
        if code:
            assert not out.exists()
        else:
            load_model(out)


# ---------------------------------------------------------------------------
# Mutated model documents and EMNF datasets, fed to ``emn predict``


def _run_predict(capsys, model, target) -> int:
    code = main(["predict", "--model", str(model), "--target", str(target)])
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
    return code


def _near(value):
    """Values close to a JSON scalar: off by one, negated, of another type."""
    if isinstance(value, bool):
        return st.sampled_from([not value, 0, 1])
    if isinstance(value, (int, float)):
        return st.sampled_from(
            [0, -1, 1, -value, value + 1, value - 1, 2 * value, value + 0.5,
             float(value), 1e300, float("nan"), float("inf")]
        )
    return st.sampled_from(["", "x", str(value) + "x"])


ODD_VALUES = [None, True, False, "x", [], {}, 0, 0.5, -1]


@st.composite
def mutated_payload(draw, payload):
    """A model payload after one to three mutations: a scalar changed, a key
    or item deleted, or a value replaced by one of another type."""
    payload = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "delete", "type"]))
        parent, key, node = None, None, payload
        # Walk down from the root, choosing a child at each level; a changed
        # value is always a scalar.
        while isinstance(node, (dict, list)) and node and (
            parent is None or kind == "value" or draw(st.booleans())
        ):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(list(keys)))
            node = parent[key]
        if parent is None:
            continue
        if kind == "delete":
            parent.pop(key)
        elif kind == "type":
            parent[key] = draw(st.sampled_from(ODD_VALUES + [[node], {"v": node}]))
        elif not isinstance(node, (dict, list)):
            parent[key] = draw(_near(node))
    return payload


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_model_document_gives_a_documented_exit_code(workdir, capsys, data):
    root, model, _ = workdir
    payload = json.loads(model.read_text(encoding="utf-8"))["payload"]
    mutated = data.draw(mutated_payload(payload))
    canonical = json.dumps(mutated, sort_keys=True, separators=(",", ":"))
    path = root / "mutated.json"
    doc = {"payload": mutated, "crc32": zlib.crc32(canonical.encode("utf-8"))}
    path.write_text(json.dumps(doc), encoding="utf-8")
    _run_predict(capsys, path, root / "target.csv")


@st.composite
def mutated_emnf(draw, features, labels):
    """The kind of mutation and the EMNF bytes with a changed header field
    or a changed payload."""
    n, dim = features.shape
    header = {"version": 1, "flags": 1, "n": n, "dim": dim, "classes": 3}
    payload = features.astype("<f8").tobytes() + labels.astype("<i4").tobytes()
    kind = draw(st.sampled_from(["header", "truncate", "append", "bytes", "special"]))
    if kind == "header":
        field = draw(st.sampled_from(sorted(header)))
        if field in ("version", "flags"):
            header[field] = draw(st.integers(0, 2**16 - 1))
        else:
            near = st.sampled_from([n - 1, n + 1, dim - 1, dim + 1, 0, 2**31])
            header[field] = draw(st.one_of(near, st.integers(0, 2**32 - 1)))
    elif kind == "truncate":
        payload = payload[: draw(st.integers(0, len(payload)))]
    elif kind == "append":
        payload += draw(st.binary(min_size=1, max_size=40))
    else:
        at = draw(st.integers(0, features.size - 1)) * 8
        if kind == "special":
            cell = np.array(
                [draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, 1e308]))]
            ).astype("<f8").tobytes()
        else:
            cell = draw(st.binary(min_size=8, max_size=8))
        payload = payload[:at] + cell + payload[at + 8 :]
    return kind, b"EMNF" + struct.pack("<HHIII", *header.values()) + payload


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_emnf_gives_a_documented_exit_code(workdir, capsys, data):
    root, model, lines = workdir
    rows = [line.split(",") for line in lines[1:]]
    features = np.array([[float(v) for v in row[:DIM]] for row in rows])
    labels = np.array([int(row[DIM]) for row in rows])
    target = root / "mutated.emnf"
    kind, raw = data.draw(mutated_emnf(features, labels))
    target.write_bytes(raw)
    code = _run_predict(capsys, model, target)
    if kind == "append":  # bytes past the declared payload
        assert code == 3


# ---------------------------------------------------------------------------
# Every integer option of every subcommand at -1 and at 0


def _int_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, p in sub.choices.items():
        configurable = p.get_default("configurable") or {}
        for action in p._actions:
            if configurable.get(action.dest) is int:
                yield command, action.option_strings[0]


INT_OPTIONS = sorted(_int_options())


def _base_argv(command, root, model, tmp_path):
    """A small, valid invocation of ``command`` as an option -> value map."""
    src, tgt = str(root / "source.csv"), str(root / "target.csv")
    net = {"--hub": "4", "--bridging": "4", "--in-degree": "3"}
    return {
        "synth": {"--out-source": str(tmp_path / "s.csv"),
                  "--out-target": str(tmp_path / "t.csv"),
                  "--classes": "2", "--dim": "3", "--samples-per-class": "4"},
        "train": {"--source": src, "--model": str(tmp_path / "m.json"), **net},
        "adapt": {"--model": str(model), "--target": tgt,
                  "--out": str(tmp_path / "m.json"), "--epochs": "2"},
        "bench": {"--model": str(model), "--target": tgt, "--repetitions": "1"},
        "ablate": {"--source": src, "--target": tgt, "--epochs": "2", **net},
    }[command]


def test_every_subcommand_with_an_int_option_is_covered():
    assert {c for c, _ in INT_OPTIONS} == {"synth", "train", "adapt", "bench", "ablate"}


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("command, option", INT_OPTIONS)
def test_int_option_at_minus_one_or_zero_gives_a_documented_exit_code(
    workdir, tmp_path, capsys, command, option, value
):
    root, model, _ = workdir
    argv = _base_argv(command, root, model, tmp_path) | {option: value}
    code = main([command, *(item for pair in argv.items() for item in pair)])
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
