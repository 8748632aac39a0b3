"""Per-node, per-class Gaussian memory storage and retrieval.

Each memory-bearing node keeps one (mu, sigma) pair per class. sigma is
the exponentially averaged mean absolute deviation of memory signals and
is substituted wherever the variance-like denominator appears in the
class density and its blurred variant.

Supervised and reinforced memorization (``emn.adaptation``) share one
batch EMA with temperature ``HyperParams.beta``: supervised rows weigh 1,
reinforced rows their confidence. The first update of a (node, class)
pair takes the batch statistics as they are. Both run through one loop
over shuffled batches of ``HyperParams.batch_size`` rows.
Retrieval works in log space: ``_log_terms`` is the one dispatch between
the blurred and the plain class density, used both by
``store_log_likelihoods`` (every node and class of a batch of rows, the
input of fusion in ``emn.inference``) and, through ``log_likelihood``, by
the reinforced update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emn.errors import (
    ConfigError,
    DimensionError,
    LabelRangeError,
    NotTrainedError,
)

CONFIDENCE_FLOOR = float(np.finfo(np.float64).tiny)
MAX_ROUNDS = 1000  # bounds the work a model document can ask of propagation

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class HyperParams:
    beta: float = 0.9
    sigma1: float = 1.0
    batch_size: int = 64
    rounds: int = 3
    fuzzy_enabled: bool = True
    confidence_enabled: bool = True
    confidence_normalized: bool = False
    literal_batch_divisor: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        if self.fuzzy_enabled and not 0.0 < self.sigma1 < np.inf:
            raise ConfigError(f"sigma1 must be positive and finite, got {self.sigma1}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ConfigError(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}")


@dataclass
class MemoryStore:
    mu: np.ndarray  # nodes x classes
    sigma: np.ndarray  # nodes x classes
    initialized: np.ndarray  # nodes x classes, bool
    hyper: HyperParams

    @property
    def node_count(self) -> int:
        return self.mu.shape[0]

    @property
    def class_count(self) -> int:
        return self.mu.shape[1]

    def copy(self) -> "MemoryStore":
        return MemoryStore(
            self.mu.copy(),
            self.sigma.copy(),
            self.initialized.copy(),
            self.hyper,
        )

    @property
    def fully_initialized(self) -> bool:
        return bool(self.initialized.all())


def init_memory(
    node_count: int, class_count: int, hyper: HyperParams | None = None
) -> MemoryStore:
    if node_count < 1:
        raise ConfigError(f"node_count must be >= 1, got {node_count}")
    if class_count < 1:
        raise ConfigError(f"class_count must be >= 1, got {class_count}")
    hyper = hyper or HyperParams()
    shape = (node_count, class_count)
    return MemoryStore(
        mu=np.zeros(shape),
        sigma=np.zeros(shape),
        initialized=np.zeros(shape, dtype=bool),
        hyper=hyper,
    )


def _check_batch(store: MemoryStore, signals: np.ndarray, labels: np.ndarray):
    signals = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels)
    if signals.ndim != 2 or signals.shape[1] != store.node_count:
        raise DimensionError(
            f"expected signals with {store.node_count} columns, got {signals.shape}"
        )
    if labels.shape != (signals.shape[0],):
        raise DimensionError("labels must align with signal rows")
    check_label_range(labels, store.class_count)
    return signals, labels.astype(np.int64)


def check_label_range(labels: np.ndarray, class_count: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise LabelRangeError(f"labels must lie in [0, {class_count})")


def _ema_update(store: MemoryStore, k: int, rows, weights, divisor) -> None:
    """Move class k's mu toward the weighted mean of ``rows`` and its sigma
    toward their weighted mean absolute deviation about the new mu; sums are
    divided by ``divisor``, and a node whose divisor is 0 stays untouched."""
    beta = store.hyper.beta
    touch = divisor > 0.0
    safe_div = np.where(touch, divisor, 1.0)
    init = store.initialized[:, k]
    mean = (weights * rows).sum(axis=0) / safe_div
    mu = np.where(init, beta * store.mu[:, k] + (1.0 - beta) * mean, mean)
    mad = (weights * np.abs(rows - mu)).sum(axis=0) / safe_div
    sigma = np.where(init, beta * store.sigma[:, k] + (1.0 - beta) * mad, mad)
    store.mu[:, k] = np.where(touch, mu, store.mu[:, k])
    store.sigma[:, k] = np.where(touch, sigma, store.sigma[:, k])
    store.initialized[:, k] |= touch


def supervised_update(store: MemoryStore, signals, labels) -> None:
    """EMA update from a labeled batch: each row of its class weighs 1."""
    signals, labels = _check_batch(store, signals, labels)
    for k in np.unique(labels):
        rows = signals[labels == k]  # B_k x nodes
        _ema_update(store, k, rows, 1.0, float(rows.shape[0]))


def batched_updates(update, store: MemoryStore, signals, labels, seed: int) -> None:
    """``update`` over shuffled batches of ``store.hyper.batch_size`` rows:
    the one batch loop of training and adaptation."""
    order = np.random.default_rng(seed).permutation(signals.shape[0])
    B = store.hyper.batch_size
    for lo in range(0, signals.shape[0], B):
        idx = order[lo : lo + B]
        update(store, signals[idx], labels[idx])


def _log_terms(hyper: HyperParams, sigma):
    """Per (node, class) ``(offset, scale)`` of the class log likelihood
    ``offset - (m_hat - mu)**2 / scale``: blurred when fuzzy is on, else the
    plain density with sigma as the variance term, floored at the smallest
    positive normal so degenerate (zero-spread) memories stay finite."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if hyper.fuzzy_enabled:
        sigma1 = hyper.sigma1
        denom = 2.0 * sigma + sigma1
        return 0.5 * np.log(sigma1) - np.log(2.0) - 0.5 * np.log(denom), denom
    sigma = np.maximum(sigma, CONFIDENCE_FLOOR)
    return -0.5 * (_LOG_2PI + np.log(sigma)), 2.0 * sigma


def log_likelihood(hyper: HyperParams, mu, sigma, m_hat):
    """Class log likelihood of memory signals: blurred when fuzzy is on."""
    offset, scale = _log_terms(hyper, sigma)
    mu, m_hat = (np.asarray(a, dtype=np.float64) for a in (mu, m_hat))
    out = offset - (m_hat - mu) ** 2 / scale
    return out if out.ndim else float(out)


def store_log_likelihoods(store: MemoryStore, signals: np.ndarray) -> np.ndarray:
    """Class log likelihoods of every node for a batch of rows.

    Computed in place in one C-contiguous classes x nodes x rows buffer, so
    reductions over classes run across whole slabs; returned as its
    rows x nodes x classes view.
    """
    if not store.fully_initialized:
        raise NotTrainedError("memory store has uninitialized (node, class) pairs")
    # Contiguous copies of signals.T, mu.T and sigma.T: every pass below
    # then runs unit-stride.
    m = np.ascontiguousarray(np.transpose(signals), dtype=np.float64)
    offset, scale = _log_terms(store.hyper, store.sigma.T.copy()[:, :, None])
    out = np.empty((store.class_count, store.node_count, m.shape[1]))
    np.subtract(m, store.mu.T.copy()[:, :, None], out)
    np.square(out, out)
    np.divide(out, scale, out)
    np.subtract(offset, out, out)
    return out.transpose(2, 1, 0)
