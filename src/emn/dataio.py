"""Dataset formats, synthetic domain-shift generation, model documents.

Formats:
  - CSV datasets: header "f0,...,f{d-1}[,label]", UTF-8; lines split as
    ``str.splitlines`` splits them, and empty lines are skipped. A feature
    field is an ASCII decimal float as ``float()`` reads it (``1.5``,
    ``-2e-3``, ``inf``, ``nan``; surrounding whitespace allowed), without
    ``_`` digit separators or non-ASCII digits; a label is an ``int()``
    literal within int64 that is also such a float. numpy's ``loadtxt``
    parses every field with the routine ``float()`` uses, so values are
    bit-identical to ``float()``'s. Any other line is a ``ParseError``
    naming its 1-based line.
  - EMNF binary datasets: magic "EMNF", little-endian, version 1. Flag
    bit 0 marks labels and no other bit is defined; the payload is exactly
    the size the header declares.
  - Model documents: strict JSON (no ``NaN`` or ``Infinity``) with a CRC-32
    checksum over the canonical payload; floats round-trip at full 64-bit
    precision. Schema 2 is written; schema 1, which held the batch divisor
    as two flags, is read through ``_schema1_hyper``.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

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
from emn.inference import EmnModel, check_finite_rows
from emn.memory import MAX_CLASSES, HyperParams, MemoryStore, log_likelihood
from emn.topology import NetworkTopology, TopologyConfig, split_views

EMNF_MAGIC = b"EMNF"
EMNF_VERSION = 1
_EMNF_HEADER = struct.Struct("<HHIII")  # version, flags, rows, dim, class count
_EMNF_LABELED = 1  # the one defined flag bit
MODEL_SCHEMA_VERSION = 2
_INT32 = np.iinfo(np.int32)


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
        if self.labels.max() >= MAX_CLASSES:
            raise LabelRangeError(f"labels must be below {MAX_CLASSES} (MAX_CLASSES)")
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
    rows = [line for line in lines[1:] if line]
    try:
        features, labels = _csv_rows(rows, dim, has_label)
    except (ValueError, OverflowError) as exc:
        # Only now look for the first data line that fails on its own.
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            try:
                _csv_rows([line], dim, has_label)
            except (ValueError, OverflowError) as line_exc:
                # The row loadtxt names is the one row of this call.
                msg = str(line_exc).replace(" at row 0,", " in")
                raise ParseError(f"{path}: line {lineno}: {msg}") from None
        raise ParseError(f"{path}: {exc}") from None
    return FeatureDataset(features, labels)


def _csv_rows(rows: list[str], dim: int, has_label: bool):
    """C-contiguous float64 features and int64 labels (None without a label
    column) of non-empty data lines; ``ValueError`` or ``OverflowError`` when
    a line is not ``dim + has_label`` fields of the grammar in the module
    docstring."""
    if not rows:  # loadtxt warns on empty input
        return np.empty((0, dim)), np.empty(0, np.int64) if has_label else None
    width = dim + has_label
    if rows[0].count(",") != width - 1:
        raise ValueError(f"expected {width} fields, got {rows[0].count(',') + 1}")
    # loadtxt strips U+001F as whitespace; float() and int() refuse it.
    if any("\x1f" in row for row in rows):
        raise ValueError("U+001F in a field")
    # Every column is parsed, so loadtxt refuses any later change of width.
    table = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    if not has_label:
        return table, None
    labels = np.array([int(row.rpartition(",")[2]) for row in rows], dtype=np.int64)
    return np.ascontiguousarray(table[:, :dim]), labels


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
        if flags & ~_EMNF_LABELED:
            raise VersionError(f"unsupported EMNF flags {flags:#x}")
        # Read what the file holds, never what the untrusted header claims.
        payload = f.read()
    labeled = bool(flags & _EMNF_LABELED)
    size = 8 * n * dim + (4 * n if labeled else 0)
    if len(payload) != size:
        raise TruncationError(
            f"header declares {size} payload bytes, the file holds {len(payload)}"
        )
    feats = np.frombuffer(payload, dtype="<f8", count=n * dim).reshape(n, dim)
    labels = None
    if labeled:
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
    """Write a model document; ``NonFiniteError`` before the file is opened
    when a value has no strict JSON form (NaN or infinite memory)."""
    payload = _model_payload(model)
    checksum = zlib.crc32(_canonical(payload).encode("utf-8"))
    doc = {"payload": payload, "crc32": checksum}
    # One dumps call: json.dump streams through the pure-Python encoder.
    try:
        text = json.dumps(doc, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteError(f"{path}: model holds a NaN or infinite value") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def load_model(path) -> EmnModel:
    """Read a model document of schema 1 or 2. Any document that is not a
    checksummed, well-formed model raises a model error: ``IntegrityError``
    or ``SchemaVersionError``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_constant=_refuse_constant)
    except ValueError as exc:  # not UTF-8, not JSON, or not strict JSON
        raise IntegrityError(f"{path}: not a model document: {exc}") from None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict):
        raise IntegrityError(f"{path}: not a model document")
    if zlib.crc32(_canonical(payload).encode("utf-8")) != doc.get("crc32"):
        raise IntegrityError(f"{path}: checksum mismatch")
    version = payload.get("schema_version")
    if type(version) is not int or version not in (1, MODEL_SCHEMA_VERSION):
        raise SchemaVersionError(f"{path}: unknown schema version {version}")
    try:
        if version == 1:
            payload = {**payload, "hyper": _schema1_hyper(payload["hyper"], path)}
        return _model_from_payload(payload, path)
    except KeyError as exc:
        raise IntegrityError(f"{path}: missing key {exc}") from None
    except (ConfigError, DimensionError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityError(f"{path}: {exc}") from None


def _config(cls, values: dict, path):
    """``cls(**values)``, each value a JSON value of its field's type (an
    integer may stand for a float); annotations are postponed, so a field's
    type is its name."""
    allowed = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}
    for f in fields(cls):
        if f.name in values and type(values[f.name]) not in allowed[f.type]:
            raise IntegrityError(f"{path}: {f.name} must be a JSON {f.type}")
    return cls(**values)


def _schema1_hyper(hyper: dict, path) -> dict:
    """A schema-1 ``hyper`` in schema-2 terms. Its two divisor flags (each
    false when absent) become one ``batch_divisor``: ``confidence_normalized``
    wins, as the schema-1 update rule let it, then ``literal_batch_divisor``;
    neither set is ``class``."""
    if "batch_divisor" in hyper:
        raise IntegrityError(f"{path}: batch_divisor is not a schema 1 field")
    hyper = dict(hyper)
    flags = {
        name: hyper.pop(name, False)
        for name in ("confidence_normalized", "literal_batch_divisor")
    }
    for name, value in flags.items():
        if type(value) is not bool:
            raise IntegrityError(f"{path}: {name} must be a JSON bool")
    hyper["batch_divisor"] = (
        "confidence" if flags["confidence_normalized"]
        else "batch" if flags["literal_batch_divisor"]
        else "class"
    )
    return hyper


def _model_from_payload(payload: dict, path) -> EmnModel:
    tcfg = _config(TopologyConfig, payload["topology"]["config"], path)
    hyper = _config(HyperParams, payload["hyper"], path)
    edges, weights = payload["topology"]["edges"], payload["topology"]["weights"]
    ids = list(chain.from_iterable(edges))
    # JSON integers only: a cast would turn 0.5 or true into edge 0.
    if not set(map(type, ids)) <= {int}:
        raise IntegrityError(f"{path}: edge ids must be JSON integers")
    # One conversion per dtype; the topology copies the views once more.
    topology = NetworkTopology(
        tcfg,
        split_views(np.array(ids, dtype=np.int64), [len(p) for p in edges]),
        split_views(
            np.array(list(chain.from_iterable(weights)), dtype=np.float64),
            [len(w) for w in weights],
        ),
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
