"""Self-supervised reinforced memorization on an unlabeled target domain.

Each epoch regenerates pseudo labels from the current model, shuffles the
target set, and applies confidence-weighted EMA updates batch by batch.
The update, ``reinforced_update``, lives in ``emn.memory`` next to
supervised memorization's rule, which it reuses with pseudo labels for
true labels and confidence weights for unit weights; this module keeps
the epoch loop. ``beta`` and the batch size are the model's
``HyperParams``. Only forward propagation is involved; there is no
gradient anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emn.dataio import write_memory_csv
from emn.errors import ConfigError, DimensionError, as_array, check_field_kinds
from emn.inference import EmnModel, feature_signals, labels_from_signals
from emn.memory import batched_updates, check_label_range, integer_labels
from emn.memory import reinforced_update


@dataclass(frozen=True)
class AdaptationConfig:
    epochs: int = 16
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_field_kinds(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.shuffle_seed < 0:
            raise ConfigError("shuffle_seed must be non-negative")


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
    return labels_from_signals(model, feature_signals(model, X_target))


def adapt(
    model: EmnModel,
    X_target,
    cfg: AdaptationConfig,
    held_out_labels=None,
    snapshot_dir: str | Path | None = None,
) -> AdaptationHistory:
    """Run reinforced memorization for cfg.epochs with the model's beta and
    batch size; mutates model in place. Held-out labels, which only score
    each epoch, must be shaped (rows,) (``DimensionError``) and be integers
    in [0, class_count) (``LabelRangeError``); both are checked before the
    store, the snapshot directory or any file is touched."""
    signals = feature_signals(model, X_target)
    return _adapt(model, signals, cfg, held_out_labels, snapshot_dir)


def _adapt(model, signals, cfg, held_out_labels, snapshot_dir) -> AdaptationHistory:
    """``adapt`` on the target's memory signals, a pure function of the
    topology and the rows: pseudo labels and updates reuse them all run."""
    n = signals.shape[0]
    held_out = None
    if held_out_labels is not None:
        held_out = as_array(held_out_labels, "held-out labels")
        if held_out.shape != (n,):
            raise DimensionError(f"held-out labels must be shaped ({n},)")
        held_out = integer_labels(held_out)
        check_label_range(held_out, model.class_count)

    # The labels after epoch e's update are both its held-out predictions
    # and epoch e+1's pseudo labels (same store, same signals), so the
    # kernel runs once before the loop and once per epoch after that, the
    # last epoch only when its labels are scored. The first pass also
    # refuses an untrained store before anything is written.
    history = AdaptationHistory()
    pseudo = labels_from_signals(model, signals)
    if snapshot_dir is not None:
        snapshot_dir = Path(snapshot_dir)
        snapshot_dir.mkdir(parents=True, exist_ok=True)
    prev_pseudo: np.ndarray | None = None
    for epoch in range(cfg.epochs):
        agreement = float("nan")
        if prev_pseudo is not None and n:
            agreement = float(np.mean(pseudo == prev_pseudo))

        start = time.perf_counter()
        batched_updates(
            reinforced_update, model.store, signals, pseudo, cfg.shuffle_seed ^ epoch
        )
        elapsed = time.perf_counter() - start

        prev_pseudo = pseudo
        if held_out is not None or epoch + 1 < cfg.epochs:
            pseudo = labels_from_signals(model, signals)
        accuracy = None
        if held_out is not None and n:
            accuracy = float(np.mean(pseudo == held_out))

        snapshot_path = None
        if snapshot_dir is not None:
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
