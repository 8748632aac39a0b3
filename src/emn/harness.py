"""Evaluation metrics, timing benchmark, ablation runner, GNB baseline."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from emn import propagation
from emn.adaptation import AdaptationConfig, AdaptationHistory, _adapt, adapt, pseudo_label
from emn.dataio import FeatureDataset
from emn.errors import (
    ConfigError,
    DimensionError,
    MissingLabelsError,
    NonFiniteError,
    UsageError,
    check_field_kinds,
    check_kind,
)
from emn.inference import EmnModel, check_finite_rows, labels_from_signals, predict_batch
from emn.memory import HyperParams, batched_updates, check_label_range, log_likelihood
from emn.memory import init_memory, supervised_update
from emn.propagation import propagate_batch
from emn.topology import TopologyConfig, build_topology


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # C x C, rows = truth, cols = prediction
    per_class_accuracy: np.ndarray


def _report(dataset: FeatureDataset, class_count: int, predict) -> EvalReport:
    """Accuracy and confusion matrix of ``predict`` (features -> labels) on
    a dataset whose labels must lie in [0, class_count)."""
    labels = dataset.labels
    if labels is None:
        raise MissingLabelsError("evaluation requires labels")
    check_label_range(labels, class_count)
    preds = predict(dataset.features)
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    totals = confusion.sum(axis=1)
    per_class = np.where(totals > 0, np.diag(confusion) / np.maximum(totals, 1), 0.0)
    accuracy = float(np.trace(confusion) / max(1, dataset.n_samples))
    return EvalReport(accuracy, confusion, per_class)


def evaluate(model: EmnModel, dataset: FeatureDataset) -> EvalReport:
    """Accuracy and confusion matrix of the model on a labeled dataset."""
    return _report(dataset, model.class_count, lambda X: pseudo_label(model, X))


@dataclass(frozen=True)
class BenchConfig:
    """Repetitions of one timed epoch of ``adapt`` with this shuffle seed
    (beta and batch size are the timed model's)."""

    repetitions: int = 5
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_field_kinds(self)
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.shuffle_seed < 0:
            raise ConfigError("shuffle_seed must be non-negative")


@dataclass
class BenchReport:
    per_sample_inference_seconds: float  # median over repetitions
    per_sample_adaptation_seconds: float
    sample_count: int
    repetitions: int
    forward_passes_per_adapted_sample: float
    backward_passes: int  # structurally zero; no gradient path exists
    config: BenchConfig
    hyper: HyperParams  # the timed model's, whose beta and batch size adapt uses

    def to_dict(self) -> dict:
        """The scalar fields in declaration order, then the timed config."""
        skip = ("config", "hyper")
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}
        out["config"] = {
            "repetitions": self.config.repetitions,
            "batch_size": self.hyper.batch_size,
            "beta": self.hyper.beta,
            "shuffle_seed": self.config.shuffle_seed,
        }
        return out


def bench(
    model: EmnModel, target: FeatureDataset, cfg: BenchConfig | None = None
) -> BenchReport:
    """Median per-sample timings of one adaptation epoch vs one inference
    pass, on a copy of the model. Monotonic clock; absolute times are
    hardware-dependent and never asserted."""
    cfg = cfg or BenchConfig()
    n = target.n_samples
    if n == 0:
        raise UsageError("bench requires a non-empty dataset")

    acfg = AdaptationConfig(epochs=1, shuffle_seed=cfg.shuffle_seed)
    inference_times = []
    adaptation_times = []
    for _ in range(cfg.repetitions):  # at least one
        start = time.perf_counter()
        predict_batch(model, target.features)
        inference_times.append((time.perf_counter() - start) / n)

        scratch = replace(model, store=model.store.copy(), metadata=dict(model.metadata))
        start = time.perf_counter()
        with propagation.forward_rows() as adapted_rows:
            adapt(scratch, target.features, acfg)
        adaptation_times.append((time.perf_counter() - start) / n)

    return BenchReport(
        per_sample_inference_seconds=statistics.median(inference_times),
        per_sample_adaptation_seconds=statistics.median(adaptation_times),
        sample_count=n,
        repetitions=cfg.repetitions,
        forward_passes_per_adapted_sample=adapted_rows[0] / n,
        backward_passes=0,
        config=cfg,
        hyper=model.hyper,
    )


# ---------------------------------------------------------------------------
# Gaussian naive Bayes reference baseline (raw features, uniform priors)


@dataclass
class GnbModel:
    mu: np.ndarray  # C x dim
    var: np.ndarray  # C x dim
    class_count: int

    _VAR_FLOOR = 1e-12


# GNB scores a row by the plain Gaussian density, memory's fuzzy-off one.
_GNB_DENSITY = HyperParams(fuzzy_enabled=False)


def baseline_gnb_train(dataset: FeatureDataset) -> GnbModel:
    """Per-class feature means and variances (floored at ``_VAR_FLOOR``);
    ``NonFiniteError`` when one of them overflows. Every class has a row
    (``label_class_count``)."""
    C = dataset.label_class_count()
    mu = np.empty((C, dataset.dim))
    var = np.empty((C, dataset.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(C):
            rows = dataset.features[dataset.labels == k]
            mu[k] = rows.mean(axis=0)
            var[k] = np.maximum(rows.var(axis=0), GnbModel._VAR_FLOOR)
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise NonFiniteError("GNB baseline: class mean or variance is not finite")
    return GnbModel(mu, var, C)


def baseline_gnb_eval(model: GnbModel, dataset: FeatureDataset) -> EvalReport:
    """Accuracy of the GNB labels; ``NonFiniteError`` naming the first row
    whose class scores are not all finite."""
    if dataset.dim != model.mu.shape[1]:
        raise DimensionError("feature dimension mismatch")

    def predict(X):
        with np.errstate(over="ignore"):
            scores = log_likelihood(_GNB_DENSITY, model.mu, model.var, X[:, None, :])
            scores = scores.sum(axis=2)
        check_finite_rows(scores, "GNB baseline score is not finite")
        return np.argmax(scores, axis=1)

    return _report(dataset, model.class_count, predict)


# ---------------------------------------------------------------------------
# Training and ablation pipeline


def train_supervised(
    model: EmnModel, source: FeatureDataset, shuffle_seed: int = 0
) -> None:
    """One shuffled pass of batched supervised memory updates. A batch whose
    update overflows raises ``NonFiniteError`` and writes nothing; the
    batches before it stay applied."""
    if source.labels is None:
        raise MissingLabelsError("supervised training requires labels")
    check_kind("shuffle_seed", shuffle_seed, "int")
    if shuffle_seed < 0:
        raise ConfigError("shuffle_seed must be non-negative")
    check_label_range(source.labels, model.class_count)
    # Rows propagate independently, so the source is propagated once and
    # each shuffled batch slices its signals.
    signals = propagate_batch(model.topology, source.features, model.hyper.rounds)
    batched_updates(supervised_update, model.store, signals, source.labels, shuffle_seed)


@dataclass
class AblationVariant:
    name: str
    fuzzy_enabled: bool
    confidence_enabled: bool
    source_report: EvalReport
    target_before: EvalReport
    target_after: EvalReport
    target_best: float
    history: AdaptationHistory
    delta_vs_base: float = 0.0


def run_ablation(
    source: FeatureDataset,
    target: FeatureDataset,
    topo_cfg: TopologyConfig,
    base_hyper: HyperParams | None = None,
    adapt_cfg: AdaptationConfig | None = None,
    train_seed: int = 0,
) -> list[AblationVariant]:
    """Controlled comparison of {base, base+G, base+G+C}: identical seeds,
    only the fuzzy / confidence flags differ. Signals depend only on the
    topology, the rounds and the rows, so the variants share one topology
    and each dataset is propagated once."""
    if source.labels is None or target.labels is None:
        raise MissingLabelsError("ablation requires labeled source and target")
    check_kind("train_seed", train_seed, "int")
    if train_seed < 0:
        raise ConfigError("train_seed must be non-negative")
    base_hyper = base_hyper or HyperParams()
    adapt_cfg = adapt_cfg or AdaptationConfig()
    C = source.label_class_count()
    topology = build_topology(topo_cfg)
    src_signals = propagate_batch(topology, source.features, base_hyper.rounds)
    tgt_signals = propagate_batch(topology, target.features, base_hyper.rounds)
    variants = [
        ("base", False, False),
        ("base+G", True, False),
        ("base+G+C", True, True),
    ]
    out: list[AblationVariant] = []
    for name, fuzzy, conf in variants:
        hyper = replace(base_hyper, fuzzy_enabled=fuzzy, confidence_enabled=conf)
        store = init_memory(topology.memory_node_count, C, hyper)
        model = EmnModel(topology, store, C, hyper)
        batched_updates(supervised_update, store, src_signals, source.labels, train_seed)

        def score(dataset, signals):
            return _report(dataset, C, lambda _: labels_from_signals(model, signals))

        source_report = score(source, src_signals)
        before = score(target, tgt_signals)
        history = _adapt(model, tgt_signals, adapt_cfg, target.labels, None)
        after = score(target, tgt_signals)
        best = history.best_epoch()
        out.append(
            AblationVariant(
                name=name,
                fuzzy_enabled=fuzzy,
                confidence_enabled=conf,
                source_report=source_report,
                target_before=before,
                target_after=after,
                target_best=best.accuracy if best else after.accuracy,
                history=history,
            )
        )
    base_acc = out[0].target_after.accuracy
    for v in out:
        v.delta_vs_base = v.target_after.accuracy - base_acc
    return out
