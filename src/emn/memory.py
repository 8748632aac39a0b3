"""Per-node, per-class Gaussian memory storage and retrieval.

Each memory-bearing node keeps one (mu, sigma) pair per class. sigma is
the exponentially averaged mean absolute deviation of memory signals and
is substituted wherever the variance-like denominator appears in the
class density and its blurred variant.

Updates are batch EMAs with temperature beta; the first update of a
(node, class) pair bypasses the EMA since no prior statistics exist.
Retrieval works in log space: ``log_likelihood`` is the one dispatch
between the blurred and the plain class density, used both by
``store_log_likelihoods`` (every node and class of a batch of rows, the
input of fusion in ``emn.inference``) and by the reinforced update.
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

    def validate(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        if self.fuzzy_enabled and self.sigma1 <= 0.0:
            raise ConfigError(f"sigma1 must be positive, got {self.sigma1}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")


@dataclass
class MemoryStore:
    mu: np.ndarray  # nodes x classes
    sigma: np.ndarray  # nodes x classes
    initialized: np.ndarray  # nodes x classes, bool
    class_count: int
    hyper: HyperParams

    @property
    def node_count(self) -> int:
        return self.mu.shape[0]

    def copy(self) -> "MemoryStore":
        return MemoryStore(
            self.mu.copy(),
            self.sigma.copy(),
            self.initialized.copy(),
            self.class_count,
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
    hyper.validate()
    shape = (node_count, class_count)
    return MemoryStore(
        mu=np.zeros(shape),
        sigma=np.zeros(shape),
        initialized=np.zeros(shape, dtype=bool),
        class_count=class_count,
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
    if labels.size and (labels.min() < 0 or labels.max() >= store.class_count):
        raise LabelRangeError(
            f"labels must lie in [0, {store.class_count})"
        )
    return signals, labels.astype(np.int64)


def supervised_update(
    store: MemoryStore, signals, labels, beta: float | None = None
) -> None:
    """EMA update of (mu, sigma) from a labeled batch of memory signals.

    mu moves toward the per-class batch mean; sigma toward the batch mean
    absolute deviation about the updated mu. Classes absent from the batch
    are untouched.
    """
    signals, labels = _check_batch(store, signals, labels)
    beta = store.hyper.beta if beta is None else beta
    for k in np.unique(labels):
        rows = signals[labels == k]  # B_k x nodes
        mean_k = rows.mean(axis=0)
        init = store.initialized[:, k]
        mu_new = np.where(init, beta * store.mu[:, k] + (1.0 - beta) * mean_k, mean_k)
        mad = np.abs(rows - mu_new).mean(axis=0)
        sigma_new = np.where(init, beta * store.sigma[:, k] + (1.0 - beta) * mad, mad)
        store.mu[:, k] = mu_new
        store.sigma[:, k] = sigma_new
        store.initialized[:, k] = True


def log_fuzzy_likelihood(mu, sigma, sigma1: float, m_hat):
    """ln of the Gaussian-blurred class likelihood (bounded above by 0.5),
    without forming the underflowing exponential."""
    if sigma1 <= 0.0:
        raise ConfigError(f"sigma1 must be positive, got {sigma1}")
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    denom = 2.0 * sigma + sigma1
    out = (
        0.5 * np.log(sigma1)
        - np.log(2.0)
        - 0.5 * np.log(denom)
        - ((m_hat - mu) ** 2) / denom
    )
    return out if out.ndim else float(out)


def log_plain_likelihood(mu, sigma, m_hat):
    """Log of the unblurred class density; sigma acts as the variance term.

    sigma is floored at the smallest positive normal so degenerate
    (zero-spread) memories stay finite.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), CONFIDENCE_FLOOR)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    out = -0.5 * (_LOG_2PI + np.log(sigma)) - ((m_hat - mu) ** 2) / (2.0 * sigma)
    return out if out.ndim else float(out)


def log_likelihood(hyper: HyperParams, mu, sigma, m_hat):
    """Class log likelihood of memory signals: blurred when fuzzy is on."""
    if hyper.fuzzy_enabled:
        return log_fuzzy_likelihood(mu, sigma, hyper.sigma1, m_hat)
    return log_plain_likelihood(mu, sigma, m_hat)


def softmax(log_values: np.ndarray, axis: int = -1) -> np.ndarray:
    e = log_values - log_values.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def store_log_likelihoods(store: MemoryStore, signals: np.ndarray) -> np.ndarray:
    """Vectorized class log likelihoods: B x nodes x classes."""
    if not store.fully_initialized:
        raise NotTrainedError("memory store has uninitialized (node, class) pairs")
    m = np.asarray(signals, dtype=np.float64)[:, :, None]
    return log_likelihood(store.hyper, store.mu[None], store.sigma[None], m)
