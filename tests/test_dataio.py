import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from emn.dataio import (
    FeatureDataset,
    SynthConfig,
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
    NonFiniteError,
    ParseError,
    SchemaVersionError,
    TruncationError,
    VersionError,
)
from emn.inference import build_model, predict
from emn.memory import supervised_update
from emn.propagation import propagate_batch
from emn.topology import NetworkTopology, TopologyConfig


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

    def test_document_text_is_default_json(self, tmp_path):
        # The file holds json's default text of the document and a newline,
        # so its bytes do not depend on how the writer calls the encoder.
        save_model(_trained_model(seed=3), tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)) + "\n"

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


def _resave(path, mutate):
    """Apply ``mutate`` to a saved document's payload and re-checksum it."""
    import zlib

    doc = json.loads(path.read_text())
    mutate(doc["payload"])
    canonical = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["crc32"] = zlib.crc32(canonical.encode("utf-8"))
    path.write_text(json.dumps(doc))


def _set_edge(node, slot, value):
    def mutate(payload):
        payload["topology"]["edges"][node][slot] = value

    return mutate


def _set_weight(value):
    def mutate(payload):
        payload["topology"]["weights"][-1][0] = value

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


@pytest.mark.parametrize("labels", [[-1, -1], [-1, 0, 2]])
def test_label_class_count_rejects_negative_labels(labels):
    ds = FeatureDataset(np.zeros((len(labels), 2)), labels)
    with pytest.raises(LabelRangeError):
        ds.label_class_count()
