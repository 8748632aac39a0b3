"""Dataset formats, synthetic domain-shift generation, model documents.

Formats:
  - CSV datasets: header "f0,...,f{d-1}[,label]", UTF-8, LF endings.
  - EMNF binary datasets: magic "EMNF", little-endian, version 1.
  - Model documents: JSON with a CRC-32 checksum over the canonical
    payload; floats round-trip at full 64-bit precision.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from emn.errors import (
    ConfigError,
    DimensionError,
    IntegrityError,
    LabelRangeError,
    MagicError,
    MissingLabelsError,
    ParseError,
    SchemaVersionError,
    TruncationError,
    VersionError,
)
from emn.inference import EmnModel, check_finite_rows
from emn.memory import HyperParams, MemoryStore, log_likelihood
from emn.topology import NetworkTopology, TopologyConfig

EMNF_MAGIC = b"EMNF"
EMNF_VERSION = 1
_EMNF_HEADER = struct.Struct("<HHIII")  # version, flags, rows, dim, class count
MODEL_SCHEMA_VERSION = 1
_INT32, _INT64 = np.iinfo(np.int32), np.iinfo(np.int64)


@dataclass
class FeatureDataset:
    features: np.ndarray  # n x dim, float64
    labels: np.ndarray | None = None  # int64 or None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DimensionError("features must be a 2-D matrix")
        check_finite_rows(self.features, "features must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise DimensionError("label count must equal sample count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def label_class_count(self) -> int:
        """Largest label + 1: the class count a labeled training set implies."""
        if self.labels is None or not self.labels.size:
            raise MissingLabelsError("training requires labeled rows")
        if self.labels.min() < 0:
            raise LabelRangeError("labels must be non-negative")
        return int(self.labels.max()) + 1


# ---------------------------------------------------------------------------
# CSV datasets


def write_csv(dataset: FeatureDataset, path) -> None:
    cols = [f"f{i}" for i in range(dataset.dim)]
    rows = dataset.features.tolist()
    if dataset.labels is not None:
        cols.append("label")
        for row, label in zip(rows, dataset.labels.tolist()):
            row.append(label)  # repr of an int is its str
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def read_csv(path) -> FeatureDataset:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    has_label = bool(header) and header[-1] == "label"
    dim = len(header) - (1 if has_label else 0)
    if dim < 1:
        raise ParseError(f"{path}: line 1: no feature columns in header")
    features, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(parts)}"
            )
        try:
            features.append([float(v) for v in parts[:dim]])
            if has_label:
                labels.append(int(parts[dim]))
                if not _INT64.min <= labels[-1] <= _INT64.max:
                    raise ValueError(f"label {parts[dim]!r} does not fit in 64 bits")
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    feats = np.array(features, dtype=np.float64).reshape(len(features), dim)
    return FeatureDataset(feats, np.array(labels, dtype=np.int64) if has_label else None)


# ---------------------------------------------------------------------------
# EMNF binary datasets


def write_emnf(dataset: FeatureDataset, path) -> None:
    labels = dataset.labels
    has_labels = labels is not None
    class_count = 0
    if has_labels and labels.size:
        if labels.min() < _INT32.min or labels.max() > _INT32.max:
            raise LabelRangeError("EMNF labels must fit in 32 signed bits")
        class_count = max(0, int(labels.max()) + 1)
    with open(path, "wb") as f:
        f.write(EMNF_MAGIC)
        f.write(
            _EMNF_HEADER.pack(
                EMNF_VERSION, int(has_labels), dataset.n_samples, dataset.dim, class_count
            )
        )
        f.write(np.ascontiguousarray(dataset.features, dtype="<f8").tobytes())
        if has_labels:
            f.write(np.ascontiguousarray(labels, dtype="<i4").tobytes())


def _read_exact(f, size: int, what: str) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise TruncationError(f"file ended while reading {what}")
    return data


def read_emnf(path) -> FeatureDataset:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic bytes")
        if magic != EMNF_MAGIC:
            raise MagicError(f"bad magic bytes {magic!r}")
        version, flags, n, dim, _class_count = _EMNF_HEADER.unpack(
            _read_exact(f, _EMNF_HEADER.size, "header")
        )
        if version != EMNF_VERSION:
            raise VersionError(f"unsupported EMNF version {version}")
        # Read what the file holds, never what the untrusted header claims.
        payload = f.read()
    size = 8 * n * dim + (4 * n if flags & 1 else 0)
    if len(payload) < size:
        raise TruncationError(
            f"header declares {size} payload bytes, the file holds {len(payload)}"
        )
    feats = np.frombuffer(payload, dtype="<f8", count=n * dim).reshape(n, dim)
    labels = None
    if flags & 1:
        labels = np.frombuffer(payload, "<i4", count=n, offset=8 * n * dim)
        labels = labels.astype(np.int64)
    return FeatureDataset(feats.astype(np.float64), labels)


def _format(path, fmt: str | None) -> str:
    """``fmt``, or the format the path's extension names when omitted."""
    return fmt or ("emnf" if str(path).endswith(".emnf") else "csv")


def read_dataset(path, fmt: str | None = None) -> FeatureDataset:
    """Read CSV or EMNF; format inferred from the extension when omitted."""
    return read_emnf(path) if _format(path, fmt) == "emnf" else read_csv(path)


def write_dataset(dataset: FeatureDataset, path, fmt: str | None = None) -> None:
    if _format(path, fmt) == "emnf":
        write_emnf(dataset, path)
    else:
        write_csv(dataset, path)


# ---------------------------------------------------------------------------
# Synthetic shifted-blobs task


@dataclass(frozen=True)
class SynthConfig:
    class_count: int = 3
    dim: int = 20
    samples_per_class: int = 200
    class_mean_scale: float = 1.0
    within_class_spread: float = 1.0
    shift_vector_norm: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 2:
            raise ConfigError("class_count must be >= 2")
        if self.dim < 1 or self.samples_per_class < 1:
            raise ConfigError("dim and samples_per_class must be positive")
        if self.class_mean_scale <= 0 or self.within_class_spread <= 0:
            raise ConfigError("scales must be positive")
        if self.shift_vector_norm < 0:
            raise ConfigError("shift_vector_norm must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def synth_shifted_blobs(cfg: SynthConfig) -> tuple[FeatureDataset, FeatureDataset]:
    """Gaussian blobs; the target domain is the source translated by a
    fixed random vector of the configured norm. Draw order: class means,
    shift direction, source noise, target noise."""
    rng = np.random.default_rng(cfg.seed)
    means = rng.normal(0.0, cfg.class_mean_scale, size=(cfg.class_count, cfg.dim))
    direction = rng.normal(size=cfg.dim)
    norm = np.linalg.norm(direction)
    shift = (
        direction / norm * cfg.shift_vector_norm if cfg.shift_vector_norm > 0 else 0.0
    )
    labels = np.repeat(np.arange(cfg.class_count), cfg.samples_per_class)

    def draw(translate) -> FeatureDataset:
        noise = rng.normal(
            0.0,
            cfg.within_class_spread,
            size=(cfg.class_count * cfg.samples_per_class, cfg.dim),
        )
        feats = means[labels] + noise + translate
        return FeatureDataset(feats, labels.copy())

    source = draw(0.0)
    target = draw(shift)
    return source, target


# ---------------------------------------------------------------------------
# Model documents


def _model_payload(model: EmnModel) -> dict:
    t = model.topology
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "class_count": model.class_count,
        "hyper": asdict(model.hyper),
        "topology": {
            "config": asdict(t.config),
            "edges": [p.tolist() for p in t.predecessors],
            "weights": [w.tolist() for w in t.weights],
        },
        "memory": {
            "mu": model.store.mu.tolist(),
            "sigma": model.store.sigma.tolist(),
            "initialized": model.store.initialized.astype(int).tolist(),
        },
        "metadata": dict(model.metadata),
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_model(model: EmnModel, path) -> None:
    payload = _model_payload(model)
    checksum = zlib.crc32(_canonical(payload).encode("utf-8"))
    doc = {"payload": payload, "crc32": checksum}
    # One dumps call: json.dump streams through the pure-Python encoder.
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_model(path) -> EmnModel:
    """Read a model document. Any document that is not a checksummed,
    well-formed model raises a model error: ``IntegrityError`` or
    ``SchemaVersionError``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise IntegrityError(f"{path}: not a model document: {exc}") from None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict):
        raise IntegrityError(f"{path}: not a model document")
    if zlib.crc32(_canonical(payload).encode("utf-8")) != doc.get("crc32"):
        raise IntegrityError(f"{path}: checksum mismatch")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionError(f"{path}: unknown schema version {version}")
    try:
        return _model_from_payload(payload, path)
    except KeyError as exc:
        raise IntegrityError(f"{path}: missing key {exc}") from None
    except (ConfigError, DimensionError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityError(f"{path}: {exc}") from None


def _config(cls, values: dict, path):
    """``cls(**values)``, each value a JSON value of its field's type (an
    integer may stand for a float); annotations are postponed, so a field's
    type is its name."""
    allowed = {"int": (int,), "float": (int, float), "bool": (bool,)}
    for f in fields(cls):
        if f.name in values and type(values[f.name]) not in allowed[f.type]:
            raise IntegrityError(f"{path}: {f.name} must be a JSON {f.type}")
    return cls(**values)


def _model_from_payload(payload: dict, path) -> EmnModel:
    tcfg = _config(TopologyConfig, payload["topology"]["config"], path)
    hyper = _config(HyperParams, payload["hyper"], path)
    edges = payload["topology"]["edges"]
    # JSON integers only: a cast would turn 0.5 or true into edge 0.
    if not {type(e) for p in edges for e in p} <= {int}:
        raise IntegrityError(f"{path}: edge ids must be JSON integers")
    topology = NetworkTopology(
        tcfg,
        [np.array(p, dtype=np.int64) for p in edges],
        [np.array(w, dtype=np.float64) for w in payload["topology"]["weights"]],
    )
    class_count = payload["class_count"]
    if type(class_count) is not int or class_count < 1:
        raise IntegrityError(f"{path}: class_count must be a positive integer")
    mem = payload["memory"]
    store = MemoryStore(
        np.array(mem["mu"], dtype=np.float64),
        np.array(mem["sigma"], dtype=np.float64),
        np.array(mem["initialized"], dtype=bool),
        hyper,
    )
    # Uninitialized pairs load; retrieval refuses them with NotTrainedError.
    mu, sigma = store.mu, store.sigma
    if not (np.isfinite(mu).all() and (np.isfinite(sigma) & (sigma >= 0.0)).all()):
        raise IntegrityError(f"{path}: memory mu must be finite, sigma finite and >= 0")
    # A pair that scores its own mu non-finitely scores every signal -inf.
    with np.errstate(over="ignore"):
        if not np.isfinite(log_likelihood(hyper, mu, sigma, mu)).all():
            raise IntegrityError(f"{path}: memory sigma too large to score a signal")
    return EmnModel(
        topology, store, class_count, hyper, dict(payload.get("metadata", {}))
    )


# ---------------------------------------------------------------------------
# CSV exports for inspection


def write_memory_csv(model: EmnModel, out) -> None:
    """Memory snapshot: one row per (node, class), to a path or a text stream."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            return write_memory_csv(model, f)
    mu, sigma = model.store.mu.tolist(), model.store.sigma.tolist()
    out.write("node_id,class,mu,sigma\n")
    for i, nid in enumerate(model.topology.memory_node_ids.tolist()):
        for k in range(model.class_count):
            out.write(f"{nid},{k},{mu[i][k]!r},{sigma[i][k]!r}\n")


def write_trace_csv(trace, path) -> None:
    """Activation trace: one row per activated node per round."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("round,node_id,output\n")
        for rt in trace.rounds:
            outputs = rt.outputs.tolist()
            for nid in rt.activated.tolist():
                f.write(f"{rt.round_index},{nid},{outputs[nid]!r}\n")
