"""Per-node, per-class Gaussian memory: storage, retrieval, memorization.

Each memory-bearing node keeps one (mu, sigma) pair per class. sigma is
the exponentially averaged mean absolute deviation of memory signals and
is substituted wherever the variance-like denominator appears in the
class density and its blurred variant. ``log_likelihood`` is the one
statement of the class log likelihood, used by ``store_log_likelihoods``
(every node and class of a batch of rows, the input of fusion in
``emn.inference``), by ``reinforced_update`` and by ``sound``.

``sound`` is the one rule for what a store may hold: sigma >= 0, and every
(node, class) pair scores its own mu finitely, which needs mu and sigma
finite and sigma small enough not to overflow the density's scale. A
``MemoryStore`` is checked when built (``ConfigError``), and each batch
update checks the block it is about to write (``NonFiniteError``, the store
left untouched), so only a direct write into the arrays can break the rule.

A label is the index of the class a row trains or is scored against.
``integer_labels`` (integers, never a truncating cast) and
``check_label_range`` ([0, class_count)) are the one label rule, applied to
datasets, both updates, evaluation and adaptation's held-out labels.

``supervised_update`` and ``reinforced_update`` (driven by the epoch loop
of ``emn.adaptation``) share one batch EMA with temperature
``HyperParams.beta``: supervised rows weigh 1, reinforced rows their
confidence, and ``HyperParams.batch_divisor`` names what a reinforced
class's sums are divided by. The first update of a (node, class) pair
takes the batch statistics as they are. Both run through one loop over
shuffled batches of ``HyperParams.batch_size`` rows, and each batch is one
update for all its classes: ``_ClassBlocks`` sorts it stably by label, the
arithmetic runs over the whole batch, and only the per-class column sums
are taken block by block, in the order and on the block shape of a loop
over classes (the reference in ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emn.errors import (
    ConfigError,
    DimensionError,
    LabelRangeError,
    NonFiniteError,
    NotTrainedError,
    as_array,
    check_field_kinds,
)

CONFIDENCE_FLOOR = float(np.finfo(np.float64).tiny)
MAX_ROUNDS = 1000  # bounds the work a model document can ask of propagation
MAX_CLASSES = 1 << 16  # bounds the memory a class count can ask of init_memory
# What a reinforced class's weighted sums are divided by: its row count in
# the batch, the batch's row count, or its summed confidence.
BATCH_DIVISORS = ("class", "batch", "confidence")

_LOG_2PI = float(np.log(2.0 * np.pi))
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class HyperParams:
    beta: float = 0.9
    sigma1: float = 1.0
    batch_size: int = 64
    rounds: int = 3
    fuzzy_enabled: bool = True
    confidence_enabled: bool = True
    batch_divisor: str = "class"

    def __post_init__(self) -> None:
        check_field_kinds(self)
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        # Only the blurred density reads sigma1, but every document holds it.
        if not -np.inf < self.sigma1 < np.inf:
            raise ConfigError(f"sigma1 must be finite, got {self.sigma1}")
        if self.fuzzy_enabled and not self.sigma1 > 0.0:
            raise ConfigError(f"sigma1 must be positive with fuzzy on, got {self.sigma1}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ConfigError(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}")
        if self.batch_divisor not in BATCH_DIVISORS:
            raise ConfigError(
                f"batch_divisor must be one of {', '.join(BATCH_DIVISORS)}, "
                f"got {self.batch_divisor!r}"
            )


@dataclass
class MemoryStore:
    mu: np.ndarray  # nodes x classes
    sigma: np.ndarray  # nodes x classes
    initialized: np.ndarray  # nodes x classes, bool
    hyper: HyperParams

    def __post_init__(self) -> None:
        shape = self.mu.shape
        if len(shape) != 2 or not self.sigma.shape == self.initialized.shape == shape:
            raise DimensionError("mu, sigma and initialized must share one 2-D shape")
        if not sound(self.hyper, self.mu, self.sigma):
            raise ConfigError(
                "memory mu must be finite, and sigma >= 0 and small enough to score a signal"
            )

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
    if not 1 <= class_count <= MAX_CLASSES:
        raise ConfigError(f"class_count must be in [1, {MAX_CLASSES}], got {class_count}")
    hyper = hyper or HyperParams()
    shape = (node_count, class_count)
    return MemoryStore(
        mu=np.zeros(shape),
        sigma=np.zeros(shape),
        initialized=np.zeros(shape, dtype=bool),
        hyper=hyper,
    )


def _check_batch(store: MemoryStore, signals: np.ndarray, labels: np.ndarray):
    signals = as_array(signals, "signals", np.float64)
    labels = as_array(labels, "labels")
    if signals.ndim != 2 or signals.shape[1] != store.node_count:
        raise DimensionError(
            f"expected signals with {store.node_count} columns, got {signals.shape}"
        )
    if labels.shape != (signals.shape[0],):
        raise DimensionError("labels must align with signal rows")
    labels = integer_labels(labels)
    check_label_range(labels, store.class_count)
    return signals, labels


def integer_labels(values) -> np.ndarray:
    """``values`` as int64 labels: an integer array, or a float array whose
    values are finite, integral and within int64. Any other array (bool,
    string, object, or a uint64 value above the int64 maximum) raises
    ``LabelRangeError`` rather than being truncated; a ragged list raises
    ``DimensionError``."""
    labels = as_array(values, "labels")
    kind = labels.dtype.kind
    if kind == "f":
        bound = np.float64(2.0**63)  # int64 holds [-bound, bound); NaN fails all
        ok = ((labels >= -bound) & (labels < bound) & (np.trunc(labels) == labels)).all()
    elif kind == "u":
        ok = not labels.size or labels.max() <= _INT64_MAX
    else:
        ok = kind == "i"
    if not ok:
        raise LabelRangeError("labels must be integers")
    return labels.astype(np.int64, copy=False)


def check_label_range(labels: np.ndarray, class_count: int) -> None:
    """The one label rule: every label lies in [0, class_count)."""
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise LabelRangeError(f"labels must be non-negative and below {class_count}")


class _ClassBlocks:
    """A batch sorted stably by label, so each class present is one
    contiguous block of rows in batch order."""

    def __init__(self, signals: np.ndarray, labels: np.ndarray):
        counts = np.bincount(labels)
        self.classes = np.flatnonzero(counts)  # present classes, ascending
        self.counts = counts[self.classes]
        self.rows = signals[np.argsort(labels, kind="stable")]
        # Each sorted row's position in classes.
        self.index = np.repeat(np.arange(self.classes.size), self.counts)
        ends = np.cumsum(self.counts).tolist()
        self._bounds = list(zip([0] + ends[:-1], ends))

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Classes x nodes column sums of ``values`` (aligned with ``rows``):
        one ``sum(axis=0)`` per block, so each class's rows add in batch
        order on the same block shape as a per-class loop."""
        return np.array([values[lo:hi].sum(axis=0) for lo, hi in self._bounds])


def _ema_update(store: MemoryStore, blocks: _ClassBlocks, weights, divisor) -> None:
    """Move each batch class's mu toward the weighted mean of its rows and
    its sigma toward their weighted mean absolute deviation about the new
    mu. ``weights`` is 1.0 or aligned with ``blocks.rows``; sums are divided
    by ``divisor`` (broadcast to classes x nodes), and a (node, class) pair
    whose divisor is 0 stays untouched. The new block is checked before
    anything is written: an update that overflows the ``sound`` rule raises
    ``NonFiniteError`` and leaves the store as it was."""
    beta = store.hyper.beta
    k = blocks.classes
    old_mu, old_sigma = store.mu[:, k].T, store.sigma[:, k].T  # classes x nodes
    touch = np.broadcast_to(divisor > 0.0, old_mu.shape)
    safe_div = np.where(touch, divisor, 1.0)
    init = store.initialized[:, k].T
    with np.errstate(over="ignore", invalid="ignore"):
        mean = blocks.sums(weights * blocks.rows) / safe_div
        mu = np.where(init, beta * old_mu + (1.0 - beta) * mean, mean)
        mad = blocks.sums(weights * np.abs(blocks.rows - mu[blocks.index])) / safe_div
        sigma = np.where(init, beta * old_sigma + (1.0 - beta) * mad, mad)
    mu, sigma = np.where(touch, mu, old_mu), np.where(touch, sigma, old_sigma)
    if not sound(store.hyper, mu, sigma):
        raise NonFiniteError(
            "memory update overflows: a new mu or sigma is NaN or infinite, "
            "or too large to score a signal"
        )
    store.mu[:, k] = mu.T
    store.sigma[:, k] = sigma.T
    store.initialized[:, k] |= touch.T


def supervised_update(store: MemoryStore, signals, labels) -> None:
    """EMA update from a labeled batch: each row of its class weighs 1."""
    signals, labels = _check_batch(store, signals, labels)
    if labels.size:
        blocks = _ClassBlocks(signals, labels)
        _ema_update(store, blocks, 1.0, blocks.counts[:, None])


def reinforced_update(store: MemoryStore, signals, pseudo_labels) -> None:
    """Confidence-weighted EMA update driven by pseudo labels.

    Per node and per pseudo class, each sample contributes with weight
    equal to the likelihood of its memory signal under that class (1 when
    confidence weighting is disabled), and the sums are divided as
    ``HyperParams.batch_divisor`` names. Only (node, pseudo-class) pairs
    present in the batch are touched; every class updates in one pass.
    """
    if not store.fully_initialized:
        raise NotTrainedError("reinforced updates require a trained store")
    signals, labels = _check_batch(store, signals, pseudo_labels)
    if not labels.size:
        return
    hyper = store.hyper
    blocks = _ClassBlocks(signals, labels)
    if hyper.confidence_enabled:
        k = blocks.classes[blocks.index]  # each sorted row's pseudo class
        mu, sigma = store.mu[:, k].T, store.sigma[:, k].T
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(log_likelihood(hyper, mu, sigma, blocks.rows))
    else:
        e = np.ones_like(blocks.rows)

    if hyper.batch_divisor == "confidence":
        divisor = blocks.sums(e)  # 0 when no row carries confidence
    elif hyper.batch_divisor == "batch":
        divisor = float(signals.shape[0])
    else:
        divisor = blocks.counts[:, None]
    _ema_update(store, blocks, e, divisor)


def batched_updates(update, store: MemoryStore, signals, labels, seed: int) -> None:
    """``update`` over shuffled batches of ``store.hyper.batch_size`` rows:
    the one batch loop of training and adaptation."""
    order = np.random.default_rng(seed).permutation(signals.shape[0])
    B = store.hyper.batch_size
    for lo in range(0, signals.shape[0], B):
        idx = order[lo : lo + B]
        update(store, signals[idx], labels[idx])


def log_likelihood(hyper: HyperParams, mu, sigma, m_hat):
    """Class log likelihood of memory signals, ``offset - (m_hat - mu)**2 /
    scale``: blurred when fuzzy is on, else the plain density with sigma as
    the variance term, floored at the smallest positive normal so degenerate
    (zero-spread) memories stay finite. Computed in place in the buffer that
    ``m_hat - mu`` allocates, widened first only where sigma broadcasts
    wider; a float for 0-d inputs."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if hyper.fuzzy_enabled:
        sigma1 = hyper.sigma1
        scale = 2.0 * sigma + sigma1
        offset = 0.5 * np.log(sigma1) - np.log(2.0) - 0.5 * np.log(scale)
    else:
        sigma = np.maximum(sigma, CONFIDENCE_FLOOR)
        offset, scale = -0.5 * (_LOG_2PI + np.log(sigma)), 2.0 * sigma
    out = np.subtract(m_hat, mu, dtype=np.float64)
    if out.shape != sigma.shape or not out.ndim:
        shape = np.broadcast(out, sigma).shape
        if out.shape != shape or not out.ndim:  # sigma is wider, or 0-d values
            out = np.full(shape, out)
    np.square(out, out)
    np.divide(out, scale, out)
    np.subtract(offset, out, out)
    return out if out.ndim else float(out)


def sound(hyper: HyperParams, mu, sigma) -> bool:
    """Whether memories (mu, sigma) of one shape may be stored: sigma >= 0
    and every pair scores its own mu finitely. A NaN or infinite mu or
    sigma fails the score, and so does a sigma whose scale overflows (a
    pair that scores its own mu -inf scores every signal -inf)."""
    with np.errstate(all="ignore"):
        return bool(
            (sigma >= 0.0).all()
            and np.isfinite(log_likelihood(hyper, mu, sigma, mu)).all()
        )


def store_log_likelihoods(store: MemoryStore, signals: np.ndarray) -> np.ndarray:
    """Class log likelihoods of every node for a batch of rows.

    Computed in place in one C-contiguous classes x nodes x rows buffer, so
    reductions over classes run across whole slabs; returned as its
    rows x nodes x classes view.
    """
    if not store.fully_initialized:
        raise NotTrainedError("memory store has uninitialized (node, class) pairs")
    # Contiguous copies of signals.T, mu.T and sigma.T: every pass of
    # log_likelihood then runs unit-stride.
    m = np.ascontiguousarray(np.transpose(signals), dtype=np.float64)
    mu, sigma = (a.T.copy()[:, :, None] for a in (store.mu, store.sigma))
    return log_likelihood(store.hyper, mu, sigma, m).transpose(2, 1, 0)
