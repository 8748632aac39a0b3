import copy

import numpy as np
import pytest

from emn import adaptation
from emn.adaptation import (
    AdaptationConfig,
    adapt,
    pseudo_label,
    reinforced_update,
)
from emn.errors import ConfigError, DimensionError, LabelRangeError, NotTrainedError
from emn.inference import EmnModel, build_model, labels_from_signals, predict_batch
from emn.memory import HyperParams, batched_updates, init_memory, supervised_update
from emn.propagation import propagate_batch
from emn.topology import TopologyConfig


def _trained_model(seed=0, dim=6, classes=3, **hyper_kwargs):
    hyper = HyperParams(**hyper_kwargs)
    model = build_model(TopologyConfig(dim, 4, 4, 3, seed=seed), classes, hyper)
    rng = np.random.default_rng(seed + 1)
    means = rng.normal(size=(classes, dim)) * 2
    X = means.repeat(30, axis=0) + rng.normal(size=(classes * 30, dim)) * 0.3
    y = np.arange(classes).repeat(30)
    signals = propagate_batch(model.topology, X, hyper.rounds)
    supervised_update(model.store, signals, y)
    return model, X, y


def _full_store(nodes=3, classes=2, **hyper_kwargs):
    store = init_memory(nodes, classes, HyperParams(**hyper_kwargs))
    store.mu[:] = 1.0
    store.sigma[:] = 1.0
    store.initialized[:] = True
    return store


class TestReinforcedUpdate:
    def test_unit_confidence_matches_supervised(self):
        rng = np.random.default_rng(0)
        signals = np.abs(rng.normal(size=(10, 3)))
        labels = rng.integers(0, 2, size=10)
        a = _full_store(confidence_enabled=False)
        b = _full_store(confidence_enabled=False)
        reinforced_update(a, signals, labels)
        supervised_update(b, signals, labels)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma, b.sigma)

    def test_zero_confidence_shrinks(self):
        # signals so far from mu that every confidence underflows to 0
        store = _full_store(nodes=2, classes=2)
        reinforced_update(store, np.full((3, 2), 1e6), np.zeros(3, dtype=int))
        assert np.all(store.mu[:, 0] == 0.9 * 1.0)
        assert np.all(store.sigma[:, 0] == 0.9 * 1.0)
        # class 1 absent from the batch: untouched
        assert np.all(store.mu[:, 1] == 1.0)

    def test_single_sample_fixture(self):
        # beta=0.9, mu=1.0, one sample m=2.0; hand-computed confidence
        # E = 0.5*exp(-1) with sigma=0, sigma1=1; mu <- 0.9*mu + 0.1*E*m.
        # (With E pinned at 0.5 the same arithmetic gives exactly 1.0.)
        assert 0.9 * 1.0 + 0.1 * (0.5 * 2.0) == 1.0
        store = _full_store(nodes=1, classes=1, sigma1=1.0)
        store.sigma[:] = 0.0
        store.mu[:] = 1.0
        reinforced_update(store, np.array([[2.0]]), np.array([0]))
        e = 0.5 * np.exp(-1.0)
        assert store.mu[0, 0] == pytest.approx(0.9 + 0.1 * e * 2.0, rel=1e-12)

    def test_only_pseudo_class_touched(self):
        rng = np.random.default_rng(4)
        store = _full_store(nodes=4, classes=3)
        before_mu = store.mu.copy()
        before_sigma = store.sigma.copy()
        signals = np.abs(rng.normal(size=(5, 4)))
        reinforced_update(store, signals, np.full(5, 1))
        assert np.array_equal(store.mu[:, [0, 2]], before_mu[:, [0, 2]])
        assert np.array_equal(store.sigma[:, [0, 2]], before_sigma[:, [0, 2]])
        assert not np.array_equal(store.mu[:, 1], before_mu[:, 1])

    def test_requires_trained_store(self):
        store = init_memory(2, 2)
        with pytest.raises(NotTrainedError):
            reinforced_update(store, np.zeros((1, 2)), np.array([0]))

    def test_batch_divisor(self):
        # one labeled sample in a batch of 2: the "batch" divisor uses B=2
        lit = _full_store(nodes=1, classes=2, confidence_enabled=False,
                          batch_divisor="batch")
        per = _full_store(nodes=1, classes=2, confidence_enabled=False)
        signals = np.array([[2.0], [4.0]])
        labels = np.array([0, 1])
        reinforced_update(lit, signals, labels)
        reinforced_update(per, signals, labels)
        assert lit.mu[0, 0] == pytest.approx(0.9 + 0.1 * 2.0 / 2.0, abs=1e-15)
        assert per.mu[0, 0] == pytest.approx(0.9 + 0.1 * 2.0, abs=1e-15)


class TestPseudoLabel:
    def test_matches_predict_batch(self):
        model, X, _ = _trained_model()
        labels = pseudo_label(model, X[:20])
        preds = predict_batch(model, X[:20])
        assert labels.tolist() == [p.label for p in preds]

    def test_empty_target(self):
        model, _, _ = _trained_model()
        assert pseudo_label(model, np.empty((0, 6))).size == 0

    def test_saturated_class_consistency(self):
        model, X, y = _trained_model(seed=9)
        labels = pseudo_label(model, X)
        assert (labels == y).mean() > 0.9


class TestAdapt:
    def test_empty_target_is_noop(self):
        model, _, _ = _trained_model(seed=1)
        mu = model.store.mu.copy()
        sigma = model.store.sigma.copy()
        history = adapt(model, np.empty((0, 6)), AdaptationConfig(epochs=1))
        assert len(history) == 1
        assert np.array_equal(model.store.mu, mu)
        assert np.array_equal(model.store.sigma, sigma)

    def test_deterministic(self):
        cfg = AdaptationConfig(epochs=3, shuffle_seed=5)
        runs = []
        for _ in range(2):
            model, X, y = _trained_model(seed=2, batch_size=16)
            history = adapt(model, X, cfg, held_out_labels=y)
            runs.append((model.store.mu.copy(), model.store.sigma.copy(), history))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert [r.accuracy for r in runs[0][2].records] == [
            r.accuracy for r in runs[1][2].records
        ]

    def test_history_record_count_and_fields(self):
        model, X, y = _trained_model(seed=3, batch_size=32)
        cfg = AdaptationConfig(epochs=4, shuffle_seed=1)
        history = adapt(model, X, cfg, held_out_labels=y)
        assert len(history) == 4
        assert np.isnan(history.records[0].pseudo_label_agreement)
        for rec in history.records[1:]:
            assert 0.0 <= rec.pseudo_label_agreement <= 1.0
        for rec in history.records:
            assert rec.accuracy is not None
            assert rec.per_sample_update_seconds >= 0.0
        assert history.best_epoch() is not None

    def test_snapshots_written(self, tmp_path):
        model, X, _ = _trained_model(seed=4, batch_size=32)
        cfg = AdaptationConfig(epochs=2)
        history = adapt(model, X, cfg, snapshot_dir=tmp_path)
        for rec in history.records:
            assert rec.snapshot_path is not None
            with open(rec.snapshot_path) as f:
                assert f.readline().strip() == "node_id,class,mu,sigma"

    def test_one_epoch_truth_labels_equals_supervised(self):
        # confidence off, pseudo labels identical to ground truth:
        # one adapt epoch must equal one pass of batched supervised updates
        model, X, y = _trained_model(seed=9, confidence_enabled=False, batch_size=16)
        assert (pseudo_label(model, X) == y).all()  # saturated on blobs
        twin = EmnModel(
            model.topology, model.store.copy(), model.class_count, model.hyper
        )
        cfg = AdaptationConfig(epochs=1, shuffle_seed=3)
        adapt(model, X, cfg)

        signals = propagate_batch(twin.topology, X, twin.hyper.rounds)
        order = np.random.default_rng(cfg.shuffle_seed ^ 0).permutation(len(X))
        for lo in range(0, len(X), twin.hyper.batch_size):
            idx = order[lo : lo + twin.hyper.batch_size]
            supervised_update(twin.store, signals[idx], y[idx])
        assert np.array_equal(model.store.mu, twin.store.mu)
        assert np.array_equal(model.store.sigma, twin.store.sigma)

    def test_invalid_config(self):
        model, X, _ = _trained_model(seed=5)
        with pytest.raises(ConfigError):
            adapt(model, X, AdaptationConfig(epochs=0))

    def test_requires_trained_model(self):
        model = build_model(TopologyConfig(4, 2, 2, 2, seed=0), 2)
        with pytest.raises(NotTrainedError):
            adapt(model, np.zeros((1, 4)), AdaptationConfig(epochs=1))

    @pytest.mark.parametrize("rows", [0, 5])
    def test_untrained_model_is_refused_before_anything_is_written(
        self, tmp_path, rows
    ):
        model = build_model(TopologyConfig(4, 2, 2, 2, seed=0), 2)
        model.store.initialized[0, 0] = True
        before = model.store.copy()
        snaps = tmp_path / "snaps"
        with pytest.raises(NotTrainedError):
            adapt(model, np.ones((rows, 4)), AdaptationConfig(epochs=2), None, snaps)
        assert not snaps.exists()
        for name in ("mu", "sigma", "initialized"):
            assert np.array_equal(getattr(model.store, name), getattr(before, name))

    @staticmethod
    def _refused_before_anything_is_written(tmp_path, held_out, error):
        model, X, _ = _trained_model(seed=6)
        before = model.store.copy()
        snaps = tmp_path / "snaps"
        with pytest.raises(error):
            adapt(model, X[:60], AdaptationConfig(epochs=2), held_out, snaps)
        assert not snaps.exists()
        for name in ("mu", "sigma", "initialized"):
            assert np.array_equal(getattr(model.store, name), getattr(before, name))

    @pytest.mark.parametrize("shape", [(5,), (61,), (60, 1), ()])
    def test_misshaped_held_out_labels_are_refused_before_anything_is_written(
        self, tmp_path, shape
    ):
        self._refused_before_anything_is_written(
            tmp_path, np.zeros(shape, int), DimensionError
        )

    @pytest.mark.parametrize(
        "last",
        [3, -1, 2**40, 0.5, np.nan, True],
        ids=["class count", "negative", "huge", "fraction", "nan", "bool"],
    )
    def test_held_out_labels_outside_the_label_rule_are_refused_before_anything_is_written(
        self, tmp_path, last
    ):
        # The model has 3 classes; one bad label among 59 zeros.
        held_out = np.zeros(60, dtype=np.asarray(last).dtype)
        held_out[-1] = last
        self._refused_before_anything_is_written(tmp_path, held_out, LabelRangeError)

    def test_integral_float_held_out_labels_score_as_integers(self):
        model, X, y = _trained_model(seed=6)
        twin = EmnModel(model.topology, model.store.copy(), model.class_count, model.hyper)
        cfg = AdaptationConfig(epochs=3)
        want = adapt(model, X, cfg, y)
        got = adapt(twin, X, cfg, y.astype(np.float64))
        assert [r.accuracy for r in got.records] == [r.accuracy for r in want.records]
        assert np.array_equal(twin.store.mu, model.store.mu)


def _reference_adapt(model, X, cfg, held_out):
    """The adapt loop that labels at the start of every epoch and again,
    for the accuracy, at its end; returns (agreement, accuracy) per epoch."""
    signals = propagate_batch(model.topology, X, model.hyper.rounds)
    records, prev = [], None
    for epoch in range(cfg.epochs):
        pseudo = labels_from_signals(model, signals)
        agreement = float("nan") if prev is None else float(np.mean(pseudo == prev))
        prev = pseudo
        batched_updates(
            reinforced_update, model.store, signals, pseudo, cfg.shuffle_seed ^ epoch
        )
        accuracy = None
        if held_out is not None:
            accuracy = float(np.mean(labels_from_signals(model, signals) == held_out))
        records.append((agreement, accuracy))
    return records


@pytest.mark.parametrize("labeled", [True, False], ids=["held-out", "unlabeled"])
def test_adapt_labels_once_per_epoch_plus_one(monkeypatch, labeled):
    model, X, y = _trained_model(seed=11, batch_size=16)
    X = X + np.random.default_rng(11).normal(size=X.shape) * 1.5  # labels drift
    held_out = y if labeled else None
    cfg = AdaptationConfig(epochs=5, shuffle_seed=2)
    twin = EmnModel(model.topology, model.store.copy(), model.class_count, model.hyper)
    want = _reference_adapt(twin, X, cfg, held_out)

    calls = []

    def counted(m, signals):
        calls.append(1)
        return labels_from_signals(m, signals)

    monkeypatch.setattr(adaptation, "labels_from_signals", counted)
    history = adapt(model, X, cfg, held_out_labels=held_out)
    assert len(calls) == cfg.epochs + (1 if labeled else 0)
    got = [(r.pseudo_label_agreement, r.accuracy) for r in history.records]
    np.testing.assert_array_equal(
        np.array(got, dtype=float), np.array(want, dtype=float)
    )
    assert any(a < 1.0 for a, _ in got[1:])  # the labels did move
    assert np.array_equal(model.store.mu, twin.store.mu)
    assert np.array_equal(model.store.sigma, twin.store.sigma)
