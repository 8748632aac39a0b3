import hashlib
import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from emn.adaptation import AdaptationConfig, adapt
from emn.dataio import (
    FeatureDataset,
    SynthConfig,
    _canonical,
    load_model,
    read_csv,
    read_dataset,
    read_emnf,
    save_model,
    synth_shifted_blobs,
    write_csv,
    write_dataset,
    write_emnf,
    write_memory_csv,
)
from emn.errors import (
    ConfigError,
    DimensionError,
    IntegrityError,
    LabelRangeError,
    MagicError,
    MissingLabelsError,
    NonFiniteError,
    ParseError,
    SchemaVersionError,
    TruncationError,
    VersionError,
)
from emn.inference import build_model, predict
from emn.memory import MAX_CLASSES, supervised_update
from emn.propagation import propagate_batch
from emn.topology import NetworkTopology, TopologyConfig
from oracles import reference_read_csv


class TestCsv:
    def test_basic_labeled_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.5,2.5,0\n3.0,4.0,1\n")
        ds = read_csv(path)
        assert ds.n_samples == 2 and ds.dim == 2
        assert ds.labels.tolist() == [0, 1]
        assert ds.features.tolist() == [[1.5, 2.5], [3.0, 4.0]]

    def test_unlabeled_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        assert read_csv(path).labels is None

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = FeatureDataset(rng.normal(size=(20, 5)) * 1e-7, rng.integers(0, 3, 20))
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path)

    @pytest.mark.parametrize("label", ["9" * 30, "-9223372036854775809"])
    def test_label_beyond_64_bits_names_line(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_names_row(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,{value},1\n")
        with pytest.raises(NonFiniteError, match="row 1"):
            read_csv(path)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"f0,f1\n1.0,\xe9\n")
        with pytest.raises(ParseError, match="UTF-8"):
            read_csv(path)

    def test_header_of_only_a_label_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label\n0\n")
        with pytest.raises(ParseError, match="no feature columns"):
            read_csv(path)

    def test_blank_data_line_is_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n\n3.0,4.0,1\n")
        ds = read_csv(path)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("f0,f1\n1,2\n3,4\n\n5,6\n7,8,9\n", 6),  # ragged, after a blank
            ("f0,f1\n1,2\n3,4\n5\n", 4),
            ("f0,f1,label\n1,2,0\n3,4,1\n5,abc,0\n", 4),
            ("f0,f1,label\n1,2,0\n\n\n3,,1\n", 5),
            ("f0\n1\n2\nx\n", 4),
        ],
    )
    def test_fault_after_line_two_names_its_own_line(self, tmp_path, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {lineno}:"):
            read_csv(path)

    @pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
    @pytest.mark.parametrize("header", ["f0,f1,label", "f0"])
    def test_whitespace_only_line_is_not_skipped(self, tmp_path, blank, header):
        row = "1.5,2.5,0" if header.endswith("label") else "1.5"
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{row}\n{blank}\n{row}\n")
        with pytest.raises(ParseError, match="line 3:"):
            read_csv(path)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,f1,label\r\n1.5,-2.5,0\r\n\r\n3e-3,4,2\r\n")
        ds = read_csv(path)
        assert ds.features.tolist() == [[1.5, -2.5], [3e-3, 4.0]]
        assert ds.labels.tolist() == [0, 2]

    @pytest.mark.parametrize("header, labeled", [("f0,f1,f2", False), ("f0,label", True)])
    def test_header_only_file_has_zero_rows(self, tmp_path, header, labeled):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n\n")
        ds = read_csv(path)
        dim = len(header.split(",")) - labeled
        assert ds.features.shape == (0, dim) and ds.features.dtype == np.float64
        if labeled:
            assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64
        else:
            assert ds.labels is None

    @pytest.mark.parametrize("labeled", [False, True])
    def test_one_column_file(self, tmp_path, labeled):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.5,3\n-2,0\n" if labeled else "f0\n1.5\n-2\n")
        ds = read_csv(path)
        assert ds.features.tolist() == [[1.5], [-2.0]]
        if labeled:
            assert ds.labels.tolist() == [3, 0]
        else:
            assert ds.labels is None

    def test_features_are_c_contiguous_float64(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,f2,label\n1,2,3,0\n4,5,6,1\n")
        features = read_csv(path).features
        assert features.dtype == np.float64 and features.flags.c_contiguous

    @pytest.mark.parametrize("label", ["1.0", "1e0", "0x1", " "])
    def test_label_that_is_not_an_int_literal_is_refused(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(ParseError, match="line 3:"):
            read_csv(path)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11", "1\x1f", "\x1f1"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_fields_float_reads_but_the_grammar_refuses(self, tmp_path, field, column):
        row = ["1.0", "2.0", "1"]
        row[column] = field
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{','.join(row)}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3:"):
            read_csv(path)

    @pytest.mark.parametrize("field", [" 1.5 ", "\u00a01.5", "1.5\u3000", "\t+1.5"])
    def test_surrounding_whitespace_reads_as_float_reads_it(self, tmp_path, field):
        path = tmp_path / "d.csv"
        label = field.replace("1.5", "7")
        path.write_text(f"f0,label\n{field},{label}\n", encoding="utf-8")
        ds = read_csv(path)
        assert ds.features.tolist() == [[1.5]] and ds.labels.tolist() == [7]


FINITE_BITS = st.integers(0, 2**64 - 1).filter(
    lambda b: (b >> 52) & 0x7FF != 0x7FF  # exponent not all ones: finite
)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5)),
    data=st.data(),
)
@example(shape=(1, len(EDGE_VALUES)), data=None)
def test_csv_round_trip_is_bit_exact(shape, data):
    n, dim = shape
    if data is None:
        features = np.array([EDGE_VALUES])
        labels = np.array([-(2**63)])
    else:
        bits = data.draw(st.lists(FINITE_BITS, min_size=n * dim, max_size=n * dim))
        features = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, dim)
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, dim - 1))
        for i, j in data.draw(st.lists(cells)):
            features[i, j] = data.draw(st.sampled_from(EDGE_VALUES))
        int64 = st.integers(-(2**63), 2**63 - 1)
        labels = np.array(data.draw(st.lists(int64, min_size=n, max_size=n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_csv(FeatureDataset(features, labels), path)
        back = read_csv(path)
    assert back.features.tobytes() == features.tobytes()
    assert back.labels.tolist() == labels.tolist()


# Fragments of fields: numbers, the spaces float() strips, and the
# characters where float() and numpy's C reader part ways.
FRAGMENTS = ["0", "7", "1.5", "-", "+", ".", "e", "e-3", "inf", "nan", "9" * 20, "_",
             " ", "\t", "\u00a0", "\u3000", "\x1f", "\u0661", "\uff11", "x", ""]
BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b"]


@st.composite
def csv_texts(draw):
    dim, labeled = draw(st.integers(1, 3)), draw(st.booleans())
    width = dim + labeled
    field = st.lists(st.sampled_from(FRAGMENTS), max_size=3).map("".join)
    good = st.one_of(st.integers(-5, 5).map(str), st.floats(allow_nan=False).map(repr))
    row = st.lists(st.one_of(good, field), min_size=width - 1, max_size=width + 1)
    lines = [",".join(draw(row)) for _ in range(draw(st.integers(0, 4)))]
    header = ",".join([f"f{i}" for i in range(dim)] + ["label"] * labeled)
    text = header
    for line in lines:
        text += draw(st.sampled_from(BREAKS)) + line
    return text + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=csv_texts())
def test_read_csv_agrees_with_the_per_field_reference(text):
    """Same bits, labels and failing line as ``float()`` and ``int()`` per
    field; where the text holds ``_`` or a non-ASCII digit, a ``ParseError``
    no later than the reference's bad line may stand in for its outcome."""
    narrowed = "_" in text or "\u0661" in text or "\uff11" in text
    want = reference_read_csv(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            got = read_csv(path)
        except ParseError as exc:
            lineno = int(str(exc).split(": line ")[1].split(":")[0])
            if narrowed:
                assert isinstance(want, tuple) or lineno <= want
            else:
                assert lineno == want
            return
        except NonFiniteError:
            got = None
    assert isinstance(want, tuple)
    features, labels = want
    dim = len(text.splitlines()[0].split(",")) - (labels is not None)
    try:
        expected = FeatureDataset(np.array(features).reshape(len(features), dim), labels)
    except NonFiniteError:
        assert got is None
        return
    assert got.features.tobytes() == expected.features.tobytes()
    assert got.features.flags.c_contiguous
    assert (got.labels is None) == (labels is None)
    if labels is not None:
        assert got.labels.tolist() == labels


class TestEmnf:
    def test_round_trip_labeled(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = FeatureDataset(rng.normal(size=(13, 4)), rng.integers(0, 5, 13))
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        back = read_emnf(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = FeatureDataset(np.random.default_rng(2).normal(size=(3, 2)))
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        assert read_emnf(path).labels is None

    @pytest.mark.parametrize("label", [2**31, -(2**31) - 1, 2**32 - 1])
    def test_label_outside_int32_is_a_label_range_error(self, tmp_path, label):
        ds = FeatureDataset(np.zeros((2, 3)), [0, label])
        path = tmp_path / "d.emnf"
        with pytest.raises(LabelRangeError):
            write_emnf(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "labels, class_count",
        [([-2, -5, -(2**31)], 0), ([2**31 - 1, -(2**31), 0], 2**31)],
    )
    def test_int32_labels_round_trip(self, tmp_path, labels, class_count):
        ds = FeatureDataset(np.zeros((3, 2)), labels)
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        assert struct.unpack("<I", path.read_bytes()[16:20]) == (class_count,)
        assert read_emnf(path).labels.tolist() == labels

    def test_round_trip_through_write_dataset(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = FeatureDataset(rng.normal(size=(6, 3)), rng.integers(0, 4, 6))
        path = tmp_path / "d.bin"
        write_dataset(ds, path, "emnf")
        assert path.read_bytes()[:4] == b"EMNF"
        back = read_dataset(path, "emnf")
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)

    @pytest.mark.parametrize("size", [0, 3, 4, 19])
    def test_file_shorter_than_magic_or_header(self, tmp_path, size):
        path = tmp_path / "d.emnf"
        write_emnf(FeatureDataset(np.ones((2, 2))), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(TruncationError, match="file ended"):
            read_emnf(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.emnf"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(MagicError):
            read_emnf(path)

    def test_bad_version(self, tmp_path):
        ds = FeatureDataset(np.zeros((1, 1)))
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            read_emnf(path)

    def test_non_finite_feature_names_row(self, tmp_path):
        path = tmp_path / "d.emnf"
        write_emnf(FeatureDataset(np.ones((4, 3))), path)
        raw = bytearray(path.read_bytes())
        raw[20 + 8 * 7 : 20 + 8 * 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteError, match="row 2"):
            read_emnf(path)

    def test_truncated_payload(self, tmp_path):
        ds = FeatureDataset(np.ones((4, 3)))
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncationError):
            read_emnf(path)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_header_claiming_one_row_too_many(self, tmp_path, labeled):
        ds = FeatureDataset(np.ones((4, 3)), np.zeros(4) if labeled else None)
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncationError):
            read_emnf(path)

    def test_overflowing_header_allocates_nothing(self, tmp_path):
        path = tmp_path / "d.emnf"
        big = 2**32 - 1
        path.write_bytes(b"EMNF" + struct.pack("<HHIII", 1, 1, big, big, 3) + bytes(64))
        with pytest.raises(TruncationError):
            read_emnf(path)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_header_declaring_fewer_rows_than_the_file_holds(self, tmp_path, labeled):
        # 4 rows of 3 features, declared as 1: 24 (+ 4 label) bytes.
        ds = FeatureDataset(np.ones((4, 3)), np.zeros(4) if labeled else None)
        path = tmp_path / "d.emnf"
        write_emnf(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        declared, held = (28, 112) if labeled else (24, 96)
        with pytest.raises(
            TruncationError,
            match=f"declares {declared} payload bytes, the file holds {held}",
        ):
            read_emnf(path)

    def test_trailing_byte_is_refused(self, tmp_path):
        path = tmp_path / "d.emnf"
        write_emnf(FeatureDataset(np.ones((2, 2)), np.zeros(2)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncationError, match="declares 40 .* holds 41"):
            read_emnf(path)

    def test_labeled_file_read_as_unlabeled_is_refused(self, tmp_path):
        # Clearing flag bit 0 leaves the 4-byte labels past the payload.
        path = tmp_path / "d.emnf"
        write_emnf(FeatureDataset(np.ones((4, 3)), np.zeros(4)), path)
        raw = bytearray(path.read_bytes())
        raw[6:8] = struct.pack("<H", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncationError, match="declares 96 .* holds 112"):
            read_emnf(path)

    @pytest.mark.parametrize("flags", [0x2, 0x3, 0x7, 0x8000])
    def test_unknown_flag_bits_are_refused(self, tmp_path, flags):
        path = tmp_path / "d.emnf"
        write_emnf(FeatureDataset(np.ones((4, 3)), np.zeros(4)), path)
        raw = bytearray(path.read_bytes())
        raw[6:8] = struct.pack("<H", flags)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError, match=f"flags {flags:#x}"):
            read_emnf(path)


class TestSynth:
    def test_counts_and_determinism(self):
        cfg = SynthConfig(class_count=4, dim=6, samples_per_class=10, seed=3)
        s1, t1 = synth_shifted_blobs(cfg)
        s2, t2 = synth_shifted_blobs(cfg)
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(t1.features, t2.features)
        for ds in (s1, t1):
            assert ds.n_samples == 40
            for k in range(4):
                assert (ds.labels == k).sum() == 10

    def test_shift_norm_applied(self):
        cfg = SynthConfig(dim=8, samples_per_class=50, shift_vector_norm=2.5, seed=4)
        src, tgt = synth_shifted_blobs(cfg)
        # same draw order: the target is source-like plus the fixed shift
        zero = SynthConfig(dim=8, samples_per_class=50, shift_vector_norm=0.0, seed=4)
        src0, tgt0 = synth_shifted_blobs(zero)
        assert np.array_equal(src.features, src0.features)
        diff = tgt.features - tgt0.features
        norms = np.linalg.norm(diff, axis=1)
        np.testing.assert_allclose(norms, 2.5, rtol=1e-9)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            synth_shifted_blobs(SynthConfig(class_count=1))
        with pytest.raises(ConfigError):
            synth_shifted_blobs(SynthConfig(within_class_spread=0.0))


def _trained_model(seed=0):
    model = build_model(TopologyConfig(5, 3, 3, 4, seed=seed), 2)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, 40)
    signals = propagate_batch(model.topology, X, model.hyper.rounds)
    supervised_update(model.store, signals, y)
    return model


class TestModelDocument:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = _trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        x = np.random.default_rng(9).normal(size=5)
        a = predict(model, x)
        b = predict(back, x)
        assert a.label == b.label
        assert np.array_equal(a.posterior, b.posterior)

    def test_round_trip_exact_parameters(self, tmp_path):
        model = _trained_model(seed=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(model.store.mu, back.store.mu)
        assert np.array_equal(model.store.sigma, back.store.sigma)
        for wa, wb in zip(model.topology.weights, back.topology.weights):
            assert np.array_equal(wa, wb)

    def test_document_text_is_canonical_json(self, tmp_path):
        # The file holds the canonical text of the document and a newline,
        # so its bytes do not depend on how the writer calls the encoder.
        save_model(_trained_model(seed=3), tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        assert text == _canonical(json.loads(text)) + "\n"

    def test_document_in_default_json_layout_still_loads(self, tmp_path):
        # Earlier versions wrote json's default text, payload key first.
        model = _trained_model(seed=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({"payload": doc["payload"], "crc32": doc["crc32"]}))
        back = load_model(path)
        assert np.array_equal(model.store.mu, back.store.mu)
        assert np.array_equal(model.store.sigma, back.store.sigma)
        for wa, wb in zip(model.topology.weights, back.topology.weights):
            assert np.array_equal(wa, wb)

    def test_saved_bytes_survive_a_load_and_a_hand_built_copy(self, tmp_path):
        model = _trained_model(seed=4)
        t = model.topology
        hand = replace(
            model,
            topology=NetworkTopology(
                t.config,
                [p.astype(np.int32) for p in t.predecessors],
                [w.copy() for w in t.weights],
            ),
            store=model.store.copy(),
        )
        path = tmp_path / "model.json"

        def digest(m):
            save_model(m, path)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        saved = digest(model)
        assert digest(load_model(path)) == saved
        assert digest(hand) == saved

    def test_unknown_schema_version(self, tmp_path):
        model = _trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["schema_version"] = 42
        import zlib, json as j

        doc["crc32"] = zlib.crc32(
            j.dumps(doc["payload"], sort_keys=True, separators=(",", ":")).encode()
        )
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_model(path)

    def test_tampered_payload(self, tmp_path):
        model = _trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["class_count"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError):
            load_model(path)


# A payload value that ``_resave`` writes as the literal 1e999, which parses
# as inf.
OVERFLOW = "<1e999>"


def _resave(path, mutate):
    """Apply ``mutate`` to a saved document's payload and re-checksum it
    over the lax canonical text of what a reader parses (NaN and Infinity
    allowed), in the default json layout."""
    import zlib

    doc = json.loads(path.read_text())
    mutate(doc["payload"])
    text = json.dumps(doc["payload"]).replace(json.dumps(OVERFLOW), "1e999")
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode("utf-8"))
    path.write_text(f'{{"payload": {text}, "crc32": {crc}}}')


def _set_edge(node, slot, value):
    def mutate(payload):
        payload["topology"]["edges"][node][slot] = value

    return mutate


def _set_weight(value):
    def mutate(payload):
        payload["topology"]["weights"][-1][0] = value

    return mutate


def _set_memory(name, value):
    def mutate(payload):
        payload["memory"][name][1][0] = value

    return mutate


STRUCTURE_FAULTS = {
    "negative edge id": _set_edge(-1, 0, -3),
    "edge id past the end": _set_edge(-1, 0, 999),
    "edge list short": lambda p: p["topology"]["edges"].pop(),
    "weight list short": lambda p: p["topology"]["weights"].pop(),
    "edges and weights misaligned": lambda p: p["topology"]["weights"][-1].pop(),
    "mu short a node": lambda p: p["memory"]["mu"].pop(),
    "sigma short a class": lambda p: [row.pop() for row in p["memory"]["sigma"]],
    "initialized flat": lambda p: p["memory"].update(initialized=[1, 1]),
    "class count off": lambda p: p.update(class_count=3),
    "beta out of range": lambda p: p["hyper"].update(beta=5.0),
    "topology config invalid": lambda p: p["topology"]["config"].update(hub_count=0),
    "memory missing": lambda p: p.pop("memory"),
    "edges missing": lambda p: p["topology"].pop("edges"),
    "hyper key unknown": lambda p: p["hyper"].update(gamma=1.0),
    "hyper value not a number": lambda p: p["hyper"].update(beta="high"),
    "class count fractional": lambda p: p.update(class_count=2.0),
    "sigma negative": lambda p: p["memory"]["sigma"][0].__setitem__(0, -1.0),
    "sigma infinite": lambda p: p["memory"]["sigma"][0].__setitem__(0, float("inf")),
    "mu not a number": lambda p: p["memory"]["mu"][1].__setitem__(1, float("nan")),
    "edge id fractional": _set_edge(-1, 0, 0.5),
    "edge id a float": _set_edge(-1, 0, 1.0),
    "edge id a boolean": _set_edge(-1, 0, True),
    "edge id beyond 64 bits": _set_edge(-1, 0, 2**70),
    "edge list not a list": lambda p: p["topology"]["edges"].__setitem__(-1, 3),
    "rounds a float": lambda p: p["hyper"].update(rounds=3.5),
    "rounds infinite": lambda p: p["hyper"].update(rounds=float("inf")),
    "feature dim a float": lambda p: p["topology"]["config"].update(feature_dim=5.0),
    "hub count a float": lambda p: p["topology"]["config"].update(hub_count=3.0),
    "fuzzy flag a string": lambda p: p["hyper"].update(fuzzy_enabled="no"),
    "sigma1 not a number": lambda p: p["hyper"].update(sigma1=float("nan")),
    "weight huge": _set_weight(1e300),
    "weight not a number": _set_weight(float("nan")),
    "weight beyond 1": _set_weight(1.5),
    "rounds beyond the cap": lambda p: p["hyper"].update(rounds=10**9),
    "sigma too large to score": lambda p: p["memory"]["sigma"][0].__setitem__(0, 1e308),
    "batch divisor unknown": lambda p: p["hyper"].update(batch_divisor="x"),
    "batch divisor not a string": lambda p: p["hyper"].update(batch_divisor=1),
    "schema 1 divisor flag": lambda p: p["hyper"].update(confidence_normalized=True),
    "mu a string": _set_memory("mu", "1.5"),
    "sigma a boolean": _set_memory("sigma", True),
    "initialized a string": _set_memory("initialized", "x"),
    "initialized 2": _set_memory("initialized", 2),
    "initialized a fraction": _set_memory("initialized", 0.5),
    "initialized a boolean": _set_memory("initialized", True),
    "weight a string": _set_weight("0.25"),
    "mu 1e999": _set_memory("mu", OVERFLOW),
    "metadata value a list": lambda p: p.update(metadata={"note": [1, 2]}),
    "metadata value a number": lambda p: p.update(metadata={"note": 3}),
    "metadata a list": lambda p: p.update(metadata=["ab"]),
    "metadata value 1e999": lambda p: p.update(metadata={"note": OVERFLOW}),
}


@pytest.mark.parametrize("fault", sorted(STRUCTURE_FAULTS))
def test_structurally_bad_document_is_an_integrity_error(tmp_path, fault):
    path = tmp_path / "model.json"
    save_model(_trained_model(), path)
    load_model(path)
    _resave(path, STRUCTURE_FAULTS[fault])
    with pytest.raises(IntegrityError):
        load_model(path)


@pytest.mark.parametrize(
    "data", [b"not json\n", b"", b'["payload"]', b"\xff\xfe\x00model"]
)
def test_non_document_is_an_integrity_error(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    with pytest.raises(IntegrityError):
        load_model(path)


def test_schema_version_must_be_a_json_integer(tmp_path):
    path = tmp_path / "model.json"
    for version in (True, 2.0, "2"):
        save_model(_trained_model(), path)
        _resave(path, lambda p: p.update(schema_version=version))
        with pytest.raises(SchemaVersionError):
            load_model(path)


def _schema1(flags: dict):
    """A payload mutation that rewrites a schema-2 payload as schema 1 with
    ``flags`` as its divisor flags."""

    def mutate(payload):
        payload["schema_version"] = 1
        del payload["hyper"]["batch_divisor"]
        payload["hyper"].update(flags)

    return mutate


def _flags(normalized, literal):
    return {"confidence_normalized": normalized, "literal_batch_divisor": literal}


# Schema-1 divisor flags (an absent one is false) and the divisor they map to.
SCHEMA1_FLAGS = [
    (_flags(False, False), "class"),
    (_flags(False, True), "batch"),
    (_flags(True, False), "confidence"),
    (_flags(True, True), "confidence"),
    ({}, "class"),
    ({"literal_batch_divisor": True}, "batch"),
]


@pytest.mark.parametrize(
    "flags, divisor", SCHEMA1_FLAGS,
    ids=["n0-l0", "n0-l1", "n1-l0", "n1-l1", "absent", "l1-only"],
)
def test_schema1_document_adapts_like_schema2_with_its_divisor(tmp_path, flags, divisor):
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for path in (v1, v2):
        save_model(_trained_model(seed=5), path)
    _resave(v1, _schema1(flags))
    _resave(v2, lambda p: p["hyper"].update(batch_divisor=divisor))
    old, new = load_model(v1), load_model(v2)
    assert old.hyper == old.store.hyper == new.hyper
    assert old.hyper.batch_divisor == divisor
    X = np.random.default_rng(6).normal(size=(60, 5)) + 0.5
    for model in (old, new):
        adapt(model, X, AdaptationConfig(epochs=2, shuffle_seed=7))
    assert np.array_equal(old.store.mu, new.store.mu)
    assert np.array_equal(old.store.sigma, new.store.sigma)
    # Re-saved, the schema-1 model is the schema-2 document, byte for byte.
    save_model(old, v1)
    save_model(new, v2)
    assert v1.read_bytes() == v2.read_bytes()
    assert json.loads(v1.read_text())["payload"]["schema_version"] == 2


@pytest.mark.parametrize("value", [1, 0, "true", None, [True]])
@pytest.mark.parametrize("name", ["confidence_normalized", "literal_batch_divisor"])
def test_schema1_divisor_flag_must_be_a_json_bool(tmp_path, name, value):
    path = tmp_path / "model.json"
    save_model(_trained_model(), path)
    _resave(path, _schema1({name: value}))
    with pytest.raises(IntegrityError, match=name):
        load_model(path)


def test_schema1_document_holding_batch_divisor_is_refused(tmp_path):
    path = tmp_path / "model.json"
    save_model(_trained_model(), path)
    _resave(path, lambda p: p.update(schema_version=1))
    with pytest.raises(IntegrityError, match="batch_divisor"):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_memory_is_not_saved(tmp_path, value):
    model = _trained_model()
    model.store.sigma[1, 0] = value
    path = tmp_path / "model.json"
    with pytest.raises(NonFiniteError):
        save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "token, value",
    [("NaN", np.nan), ("Infinity", np.inf), ("-Infinity", -np.inf), ("1e999", OVERFLOW)],
    ids=["NaN", "Infinity", "-Infinity", "1e999"],
)
def test_document_that_is_not_strict_json_is_refused(tmp_path, token, value):
    # Even a checksum over the lax encoding does not make it a document.
    path = tmp_path / "model.json"
    save_model(_trained_model(), path)
    _resave(path, lambda p: p["memory"]["mu"][0].__setitem__(0, value))
    assert token in path.read_text()
    with pytest.raises(IntegrityError, match="strict JSON"):
        load_model(path)


@pytest.mark.parametrize("value", ["NaN", "1e999", "0"])
def test_document_with_a_third_key_is_refused(tmp_path, value):
    path = tmp_path / "model.json"
    save_model(_trained_model(), path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    path.write_text(text[:-2] + f',"extra":{value}}}\n')
    with pytest.raises(IntegrityError, match="not a model document"):
        load_model(path)


def test_document_nested_too_deep_is_an_integrity_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(IntegrityError, match="strict JSON"):
        load_model(path)


def test_uninitialized_pairs_still_load(tmp_path):
    model = build_model(TopologyConfig(5, 3, 3, 4, seed=0), 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert not back.store.initialized.any()


def test_memory_csv_layout(tmp_path):
    model = _trained_model()
    path = tmp_path / "memory.csv"
    write_memory_csv(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,class,mu,sigma"
    assert len(lines) == 1 + model.store.node_count * model.class_count
    for line in lines[1:]:
        for field in line.split(","):
            float(field)


def test_dataset_dimension_checks():
    with pytest.raises(DimensionError):
        FeatureDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(DimensionError):
        FeatureDataset(np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(value):
    features = np.zeros((5, 3))
    features[3, 1] = value
    features[4, 0] = value
    with pytest.raises(NonFiniteError, match="row 3"):
        FeatureDataset(features)
    FeatureDataset(np.full((2, 3), 1e300))  # large but finite is accepted


@pytest.mark.parametrize(
    "labels",
    [[0.5, 1.7], [True, False], ["1", "0"], [0.0, np.nan], np.array([0, 2**63], np.uint64)],
    ids=["fractions", "bools", "strings", "nan", "uint64 2**63"],
)
def test_dataset_refuses_non_integer_labels(labels):
    # A cast to int64 would truncate these to [0, 1], [1, 0], [1, 0], ...
    with pytest.raises(LabelRangeError, match="labels must be integers"):
        FeatureDataset(np.zeros((2, 2)), labels)


def test_dataset_reads_integral_float_labels_as_integers():
    ds = FeatureDataset(np.zeros((2, 2)), [0.0, 2.0])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 2]
    assert FeatureDataset(np.zeros((0, 2)), []).labels.dtype == np.int64


@pytest.mark.parametrize("labels", [[-1, -1], [-1, 0, 2]])
def test_label_class_count_rejects_negative_labels(labels):
    ds = FeatureDataset(np.zeros((len(labels), 2)), labels)
    with pytest.raises(LabelRangeError):
        ds.label_class_count()


@pytest.mark.parametrize("labels, missing", [([0, 2], 1), ([1, 1], 0), ([3, 0, 1], 2)])
def test_label_class_count_requires_a_row_of_every_class(labels, missing):
    # A class without a row would keep untrained memories that every
    # prediction refuses.
    ds = FeatureDataset(np.zeros((len(labels), 2)), labels)
    with pytest.raises(MissingLabelsError, match=f"class {missing}$"):
        ds.label_class_count()


@pytest.mark.parametrize("labels", [[0, MAX_CLASSES], [2**63 - 1]])
def test_label_class_count_rejects_labels_of_max_classes_or_more(labels):
    # Largest label + 1 classes would be allocated for every memory node.
    ds = FeatureDataset(np.zeros((len(labels), 2)), labels)
    with pytest.raises(LabelRangeError, match="below"):
        ds.label_class_count()
