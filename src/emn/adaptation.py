"""Self-supervised reinforced memorization on an unlabeled target domain.

Each epoch regenerates pseudo labels from the current model, shuffles the
target set, and applies confidence-weighted EMA updates batch by batch.
Only forward propagation is involved; there is no gradient anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emn.errors import ConfigError, NotTrainedError
from emn.inference import EmnModel, labels_from_signals
from emn.memory import MemoryStore, _check_batch, log_likelihood
from emn.propagation import propagate_batch


@dataclass(frozen=True)
class AdaptationConfig:
    epochs: int = 16
    batch_size: int = 64
    beta: float = 0.9
    shuffle_seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError("beta must be in [0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    pseudo_label_agreement: float  # vs previous epoch; NaN for the first
    accuracy: float | None  # vs held-out labels, when provided
    per_sample_update_seconds: float
    snapshot_path: str | None = None


@dataclass
class AdaptationHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def best_epoch(self) -> EpochRecord | None:
        scored = [r for r in self.records if r.accuracy is not None]
        return max(scored, key=lambda r: r.accuracy) if scored else None


def pseudo_label(model: EmnModel, X_target) -> np.ndarray:
    """Predicted labels over the target rows, as an int vector."""
    if not model.trained:
        raise NotTrainedError("model has uninitialized memory units")
    signals = propagate_batch(model.topology, X_target, model.hyper.rounds)
    return labels_from_signals(model, signals)


def reinforced_update(
    store: MemoryStore, signals, pseudo_labels, beta: float | None = None
) -> None:
    """Confidence-weighted EMA update driven by pseudo labels.

    Per node and per pseudo class, each sample contributes with weight
    equal to the likelihood of its memory signal under that class (1 when
    confidence weighting is disabled). Only (node, pseudo-class) pairs
    present in the batch are touched.
    """
    if not store.fully_initialized:
        raise NotTrainedError("reinforced updates require a trained store")
    signals, labels = _check_batch(store, signals, pseudo_labels)
    hyper = store.hyper
    beta = hyper.beta if beta is None else beta
    for k in np.unique(labels):
        rows = signals[labels == k]  # B_k x nodes
        if hyper.confidence_enabled:
            mu, sigma = store.mu[None, :, k], store.sigma[None, :, k]
            e = np.exp(log_likelihood(hyper, mu, sigma, rows))
        else:
            e = np.ones_like(rows)

        if hyper.confidence_normalized:
            divisor = e.sum(axis=0)
        elif hyper.literal_batch_divisor:
            divisor = float(signals.shape[0])
        else:
            divisor = float(rows.shape[0])
        divisor = np.broadcast_to(np.asarray(divisor, dtype=np.float64), (rows.shape[1],))
        touch = divisor > 0.0  # zero total confidence carries no information

        safe_div = np.where(touch, divisor, 1.0)
        weighted_mean = (e * rows).sum(axis=0) / safe_div
        mu_new = beta * store.mu[:, k] + (1.0 - beta) * weighted_mean
        weighted_mad = (e * np.abs(rows - mu_new)).sum(axis=0) / safe_div
        sigma_new = beta * store.sigma[:, k] + (1.0 - beta) * weighted_mad
        store.mu[:, k] = np.where(touch, mu_new, store.mu[:, k])
        store.sigma[:, k] = np.where(touch, sigma_new, store.sigma[:, k])


def adapt(
    model: EmnModel,
    X_target,
    cfg: AdaptationConfig,
    held_out_labels=None,
    snapshot_dir: str | Path | None = None,
) -> AdaptationHistory:
    """Run reinforced memorization for cfg.epochs; mutates model in place."""
    cfg.validate()
    if not model.trained:
        raise NotTrainedError("adapt requires a trained model")
    X_target = np.asarray(X_target, dtype=np.float64)
    n = X_target.shape[0]
    held_out = None if held_out_labels is None else np.asarray(held_out_labels)
    if snapshot_dir is not None:
        snapshot_dir = Path(snapshot_dir)
        snapshot_dir.mkdir(parents=True, exist_ok=True)

    # Memory signals are a pure function of the topology and the inputs,
    # so each target sample is propagated exactly once for the whole run;
    # pseudo labels and updates reuse the cached signals.
    signals = (
        propagate_batch(model.topology, X_target, model.hyper.rounds)
        if n
        else np.empty((0, model.topology.memory_node_count))
    )

    history = AdaptationHistory()
    prev_pseudo: np.ndarray | None = None
    for epoch in range(cfg.epochs):
        pseudo = labels_from_signals(model, signals) if n else np.empty(0, np.int64)
        if prev_pseudo is not None and n:
            agreement = float(np.mean(pseudo == prev_pseudo))
        else:
            agreement = float("nan")
        prev_pseudo = pseudo

        start = time.perf_counter()
        if n:
            order = np.random.default_rng(cfg.shuffle_seed ^ epoch).permutation(n)
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                reinforced_update(model.store, signals[idx], pseudo[idx], cfg.beta)
        elapsed = time.perf_counter() - start

        accuracy = None
        if held_out is not None and n:
            preds = labels_from_signals(model, signals)
            accuracy = float(np.mean(preds == held_out))

        snapshot_path = None
        if snapshot_dir is not None:
            from emn.dataio import write_memory_csv

            path = snapshot_dir / f"memory_epoch_{epoch:03d}.csv"
            write_memory_csv(model, path)
            snapshot_path = str(path)

        history.records.append(
            EpochRecord(
                epoch=epoch,
                pseudo_label_agreement=agreement,
                accuracy=accuracy,
                per_sample_update_seconds=(elapsed / n) if n else 0.0,
                snapshot_path=snapshot_path,
            )
        )
    return history
