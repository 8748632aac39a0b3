"""Network-level prediction: confidence-weighted fusion of node posteriors.

Every memory-bearing node votes with its class posterior, weighted by the
likelihood of its observed memory signal under its own predicted class.
The fused posterior is the convex combination of node posteriors; ties in
the argmax break toward the lowest class index.

One kernel serves every caller: ``batch_node_votes`` retrieves the node
votes of a chunk of rows and ``fused_posteriors_from_signals`` fuses them
chunk by chunk. ``predict_batch``, pseudo labels, evaluation and
adaptation all read their posteriors and labels from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from emn.errors import DimensionError, NotTrainedError
from emn.memory import (
    CONFIDENCE_FLOOR,
    HyperParams,
    MemoryStore,
    init_memory,
    softmax,
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

    @property
    def trained(self) -> bool:
        return self.store.fully_initialized


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
    """Convex combination over nodes; posteriors B x nodes x C."""
    weights = confidences / confidences.sum(axis=1, keepdims=True)
    return np.einsum("bn,bnc->bc", weights, posteriors)


def batch_node_votes(model: EmnModel, signals: np.ndarray):
    """Posteriors, labels, and confidences for every node of every row."""
    log_lik = store_log_likelihoods(model.store, signals)  # B x nodes x C
    posteriors = softmax(log_lik, axis=2)
    labels = np.argmax(posteriors, axis=2)
    picked = np.take_along_axis(log_lik, labels[:, :, None], axis=2)[:, :, 0]
    confidences = np.maximum(np.exp(picked), CONFIDENCE_FLOOR)
    if not model.hyper.confidence_enabled:
        confidences = np.ones_like(confidences)
    return posteriors, labels, confidences


def _row_chunks(model: EmnModel, signals: np.ndarray):
    """Row slices of at most ``_CHUNK_CELLS`` cells; rows fuse independently."""
    step = max(1, _CHUNK_CELLS // max(1, signals.shape[1] * model.class_count))
    return (slice(lo, lo + step) for lo in range(0, signals.shape[0], step))


def fused_posteriors_from_signals(model: EmnModel, signals: np.ndarray) -> np.ndarray:
    """Fused posterior rows (B x C) from precomputed memory signals."""
    fused = np.empty((signals.shape[0], model.class_count))
    for rows in _row_chunks(model, signals):
        posteriors, _, confidences = batch_node_votes(model, signals[rows])
        fused[rows] = _fuse(posteriors, confidences)
    return fused


def labels_from_signals(model: EmnModel, signals: np.ndarray) -> np.ndarray:
    """Fused predicted labels from precomputed memory signals."""
    fused = fused_posteriors_from_signals(model, signals)
    return np.argmax(fused, axis=1).astype(np.int64)


def predict_batch(model: EmnModel, X) -> list[Prediction]:
    """Rowwise prediction; order preserved, model left untouched."""
    if not model.trained:
        raise NotTrainedError("model has uninitialized memory units")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"expected a 2-D batch, got shape {X.shape}")
    signals = propagate_batch(model.topology, X, model.hyper.rounds)
    fused = fused_posteriors_from_signals(model, signals)
    # A copy, so a kept Prediction does not pin the whole matrix.
    return [Prediction(int(np.argmax(row)), row.copy()) for row in fused]


def predict(model: EmnModel, x) -> Prediction:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise DimensionError("predict expects a single feature vector")
    return predict_batch(model, x[None, :])[0]
