"""Network-level prediction: confidence-weighted fusion of node posteriors.

Every memory-bearing node votes with its class posterior, weighted by the
likelihood of its observed memory signal under its own predicted class.
The fused posterior is the convex combination of node posteriors; ties in
the argmax break toward the lowest class index.

One kernel serves every caller: ``batch_node_votes`` retrieves the node
votes of a chunk of rows and ``fused_posteriors_from_signals`` fuses them
chunk by chunk. ``predict_batch``, pseudo labels, evaluation and
adaptation all read their posteriors and labels from it. The kernel works
class-major (classes x nodes x rows) and keeps the summation order of the
row-major softmax/argmax formulation in ``tests/oracles.py``, so both give
the same bits. Labels and predictions refuse a non-finite row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from emn.errors import ConfigError, DimensionError, IntegrityError, NonFiniteError
from emn.errors import as_array
from emn.memory import (
    CONFIDENCE_FLOOR,
    HyperParams,
    MemoryStore,
    init_memory,
    store_log_likelihoods,
)
from emn.propagation import propagate_batch
from emn.topology import NetworkTopology, TopologyConfig, build_topology


@dataclass
class EmnModel:
    topology: NetworkTopology
    store: MemoryStore
    class_count: int
    hyper: HyperParams
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.store.node_count != self.topology.memory_node_count:
            raise DimensionError(
                "memory store size does not match hub+bridging node count"
            )
        if self.store.class_count != self.class_count:
            raise DimensionError("store class count does not match model")
        if self.store.hyper != self.hyper:
            raise ConfigError("store hyperparameters do not match model")


@dataclass(frozen=True)
class Prediction:
    label: int
    posterior: np.ndarray


# (row, node, class) cells retrieved per chunk of rows; bounds the
# transient memory of retrieval and fusion.
_CHUNK_CELLS = 1 << 16


def build_model(
    topo_cfg: TopologyConfig,
    class_count: int,
    hyper: HyperParams | None = None,
    metadata: dict[str, str] | None = None,
) -> EmnModel:
    """Fresh untrained model from a topology config."""
    hyper = hyper or HyperParams()
    topology = build_topology(topo_cfg)
    store = init_memory(topology.memory_node_count, class_count, hyper)
    return EmnModel(topology, store, class_count, hyper, metadata or {})


def _fuse(posteriors: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """Convex combination over nodes; posteriors B x nodes x C.

    The weights are normalised over a contiguous rows x nodes copy of the
    confidences, so the normaliser sums pairwise over nodes. With at least
    2 rows and 2 classes, einsum sums over nodes in order straight on the
    class-major (C x nodes x B) posteriors, as it does on the row-major
    layout; with 1 row or 1 class it does not give the same bits there, so
    those fuse on a contiguous rows x nodes x classes copy. Either way the
    result does not depend on the caller's layout.
    """
    confidences = np.ascontiguousarray(confidences)
    weights = confidences / confidences.sum(axis=1, keepdims=True)
    B, _, C = posteriors.shape
    if B >= 2 and C >= 2:
        class_major = np.ascontiguousarray(posteriors.transpose(2, 1, 0))
        return np.einsum("nb,cnb->cb", weights.T, class_major).T
    return np.einsum("bn,bnc->bc", weights, np.ascontiguousarray(posteriors))


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sum over the leading class axis in numpy's pairwise order, so that it
    equals ``sum(axis=-1)`` of the classes-last layout bit for bit:
    sequential below 8 classes; up to 128, 8 accumulators over the blocks of
    8 summed as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in
    order; above 128, the sum of two halves. A reduction over the leading
    axis adds slab after slab, which is the sequential order."""
    n = e.shape[0]
    if n < 8:
        return e.sum(axis=0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _class_sum(e[:half]) + _class_sum(e[half:])
    blocks = n - n % 8
    r = e[:8]
    for lo in range(8, blocks, 8):
        r = r + e[lo : lo + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for k in range(blocks, n):
        total += e[k]
    return total


def batch_node_votes(model: EmnModel, signals: np.ndarray):
    """Posteriors, labels, and confidences for every node of every row.

    Computed on classes x nodes x rows arrays, so every reduction over
    classes is an elementwise pass across class slabs; returned as
    B x nodes x C, B x nodes and B x nodes views. A node's posterior is the
    softmax of its class log likelihoods, its label the first class at the
    maximum posterior (0 when every class is NaN, as ``np.argmax``), and its
    confidence the likelihood of its label, floored.
    """
    log_lik = store_log_likelihoods(model.store, signals).transpose(2, 1, 0)
    posteriors = log_lik - log_lik.max(axis=0)
    np.exp(posteriors, posteriors)
    posteriors /= _class_sum(posteriors)
    # The first class not below the maximum; NaN != NaN, so all-NaN gives 0.
    labels = (posteriors != posteriors.max(axis=0)).argmin(axis=0)
    if model.hyper.confidence_enabled:
        cells = labels.size
        flat = labels.reshape(-1) * cells + np.arange(cells)
        picked = log_lik.reshape(-1)[flat].reshape(labels.shape)
        confidences = np.maximum(np.exp(picked), CONFIDENCE_FLOOR)
    else:
        confidences = np.ones(labels.shape)
    return posteriors.transpose(2, 1, 0), labels.T, confidences.T


def _row_chunks(model: EmnModel, signals: np.ndarray):
    """Row slices of at most ``_CHUNK_CELLS`` cells; rows fuse independently.
    An empty batch is one empty slice, so retrieval still checks the store."""
    step = max(1, _CHUNK_CELLS // max(1, signals.shape[1] * model.class_count))
    return (slice(lo, lo + step) for lo in range(0, max(1, signals.shape[0]), step))


def fused_posteriors_from_signals(model: EmnModel, signals: np.ndarray) -> np.ndarray:
    """Fused posterior rows (B x C) from precomputed memory signals."""
    fused = np.empty((signals.shape[0], model.class_count))
    for rows in _row_chunks(model, signals):
        posteriors, _, confidences = batch_node_votes(model, signals[rows])
        fused[rows] = _fuse(posteriors, confidences)
    return fused


def check_finite_rows(rows: np.ndarray, problem: str) -> None:
    """Raise ``NonFiniteError`` naming the first row that holds NaN or inf."""
    if not np.isfinite(rows).all():
        bad = int((~np.isfinite(rows).all(axis=1)).argmax())
        raise NonFiniteError(f"row {bad}: {problem}")


def feature_signals(model: EmnModel, X) -> np.ndarray:
    """Memory signals of a 2-D batch of finite feature rows."""
    X = as_array(X, "features", np.float64)
    if X.ndim != 2:
        raise DimensionError(f"expected a 2-D batch, got shape {X.shape}")
    check_finite_rows(X, "features must be finite")
    return propagate_batch(model.topology, X, model.hyper.rounds)


def _checked_fused(model: EmnModel, signals: np.ndarray) -> np.ndarray:
    """Fused posteriors; a row whose posterior is not finite is an error,
    not a label, so the kernel's overflow warnings say nothing more. The
    fault is the model's (exit 4) when that row's signals square to finite
    values and the memory mu do not; otherwise the features overflow
    retrieval (exit 3)."""
    with np.errstate(over="ignore", invalid="ignore"):
        fused = fused_posteriors_from_signals(model, signals)
        if np.isfinite(fused).all():
            return fused
        bad = int((~np.isfinite(fused).all(axis=1)).argmax())
        moderate = np.isfinite(np.square(signals[bad])).all()
        if moderate and not np.isfinite(np.square(model.store.mu)).all():
            raise IntegrityError(f"row {bad}: fused posterior is not finite; mu too large")
    raise NonFiniteError(f"row {bad}: fused posterior is not finite; features too large")


def labels_from_signals(model: EmnModel, signals: np.ndarray) -> np.ndarray:
    """Fused predicted labels from precomputed memory signals."""
    fused = _checked_fused(model, signals)
    return np.argmax(fused, axis=1).astype(np.int64)


def predict_batch(model: EmnModel, X) -> list[Prediction]:
    """Rowwise prediction; order preserved, model left untouched."""
    fused = _checked_fused(model, feature_signals(model, X))
    # A copy, so a kept Prediction does not pin the whole matrix.
    return [Prediction(int(np.argmax(row)), row.copy()) for row in fused]


def predict(model: EmnModel, x) -> Prediction:
    x = np.atleast_1d(as_array(x, "features", np.float64))
    if x.ndim != 1:
        raise DimensionError("predict expects a single feature vector")
    return predict_batch(model, x[None, :])[0]
