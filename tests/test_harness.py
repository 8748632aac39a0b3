from dataclasses import replace

import numpy as np
import pytest

from emn import propagation
from emn.adaptation import AdaptationConfig, adapt
from emn.dataio import FeatureDataset, SynthConfig, synth_shifted_blobs
from emn.errors import (
    ClassCountMismatch,
    ConfigError,
    DimensionError,
    LabelRangeError,
    MissingLabelsError,
    UsageError,
)
from emn.harness import (
    BenchConfig,
    baseline_gnb_eval,
    baseline_gnb_train,
    bench,
    evaluate,
    run_ablation,
    train_supervised,
)
from emn.inference import build_model
from emn.memory import HyperParams, supervised_update
from emn.propagation import propagate_batch
from emn.topology import TopologyConfig


def _task(seed=0):
    cfg = SynthConfig(
        class_count=3,
        dim=8,
        samples_per_class=40,
        class_mean_scale=0.3,
        within_class_spread=0.05,
        shift_vector_norm=0.1,
        seed=seed,
    )
    return synth_shifted_blobs(cfg)


def _hard_task(seed):
    """Overlapping classes and a real shift, so no accuracy saturates."""
    cfg = SynthConfig(
        class_count=3,
        dim=8,
        samples_per_class=40,
        class_mean_scale=0.1,
        within_class_spread=0.15,
        shift_vector_norm=0.4,
        seed=seed,
    )
    return synth_shifted_blobs(cfg)


def _scores(history):
    """Per-epoch label-derived fields; update timings are left out."""
    return [(r.epoch, repr(r.pseudo_label_agreement), r.accuracy) for r in history.records]


def _trained(seed=0, **hyper_kwargs):
    src, tgt = _task(seed)
    hyper = HyperParams(**hyper_kwargs)
    model = build_model(TopologyConfig(8, 10, 10, 6, seed=seed), 3, hyper)
    train_supervised(model, src, shuffle_seed=seed)
    return model, src, tgt


class TestTrainSupervised:
    def test_matches_per_batch_propagation(self):
        src, _ = _task(3)
        model, _, _ = _trained(3)
        expected = build_model(TopologyConfig(8, 10, 10, 6, seed=3), 3)
        order = np.random.default_rng(3).permutation(src.n_samples)
        B = expected.hyper.batch_size
        for lo in range(0, src.n_samples, B):
            idx = order[lo : lo + B]
            signals = propagate_batch(
                expected.topology, src.features[idx], expected.hyper.rounds
            )
            supervised_update(expected.store, signals, src.labels[idx])
        assert np.array_equal(model.store.mu, expected.store.mu)
        assert np.array_equal(model.store.sigma, expected.store.sigma)
        assert np.array_equal(model.store.initialized, expected.store.initialized)

    def test_unlabeled_source_is_refused(self):
        src, _ = _task(3)
        model = build_model(TopologyConfig(8, 10, 10, 6, seed=3), 3)
        with pytest.raises(MissingLabelsError, match="requires labels"):
            train_supervised(model, FeatureDataset(src.features))
        assert not model.store.initialized.any()

    def test_negative_seed_is_refused_before_propagation(self):
        src, _ = _task(3)
        model = build_model(TopologyConfig(8, 10, 10, 6, seed=3), 3)
        with propagation.forward_rows() as rows, pytest.raises(ConfigError):
            train_supervised(model, src, shuffle_seed=-1)
        assert rows == [0]
        assert not model.store.initialized.any()


class TestEvaluate:
    def test_well_separated_perfect(self):
        model, src, _ = _trained()
        report = evaluate(model, src)
        assert report.accuracy > 0.95
        assert report.confusion.sum() == src.n_samples
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / src.n_samples
        )

    def test_confusion_row_sums(self):
        model, src, tgt = _trained(1)
        report = evaluate(model, tgt)
        for k in range(3):
            assert report.confusion[k].sum() == (tgt.labels == k).sum()

    def test_all_wrong_labels(self):
        model, src, _ = _trained(2)
        from emn.adaptation import pseudo_label

        preds = pseudo_label(model, src.features)
        wrong = (preds + 1) % 3  # guaranteed disagreement everywhere
        report = evaluate(model, FeatureDataset(src.features, wrong))
        assert report.accuracy == 0.0

    def test_requires_labels(self):
        model, src, _ = _trained(3)
        with pytest.raises(MissingLabelsError):
            evaluate(model, FeatureDataset(src.features))

    def test_class_count_mismatch(self):
        model, src, _ = _trained(4)
        bad = FeatureDataset(src.features, np.full(src.n_samples, 5))
        with pytest.raises(ClassCountMismatch):
            evaluate(model, bad)

    def test_negative_label_rejected(self):
        # -1 would otherwise be counted as class C-1
        model, src, _ = _trained(4)
        labels = src.labels.copy()
        labels[0] = -1
        with pytest.raises(LabelRangeError):
            evaluate(model, FeatureDataset(src.features, labels))


class TestBench:
    def test_report_structure_and_ratio(self):
        model, _, tgt = _trained(5)
        report = bench(model, tgt, BenchConfig(repetitions=3))
        assert report.repetitions == 3
        assert report.per_sample_inference_seconds > 0
        assert report.per_sample_adaptation_seconds > 0
        assert report.forward_passes_per_adapted_sample == 1.0
        assert report.backward_passes == 0
        assert report.sample_count == tgt.n_samples

    def test_times_one_epoch_of_its_adaptation_config(self):
        model, _, tgt = _trained(5, batch_size=16, beta=0.5)
        report = bench(model, tgt, BenchConfig(repetitions=1, shuffle_seed=3))
        assert report.forward_passes_per_adapted_sample == 1.0
        assert report.to_dict()["config"] == {
            "repetitions": 1, "batch_size": 16, "beta": 0.5, "shuffle_seed": 3
        }

    def test_empty_dataset_rejected(self):
        model, _, _ = _trained(6)
        with pytest.raises(UsageError):
            bench(model, FeatureDataset(np.empty((0, 8))), BenchConfig())

    def test_model_untouched(self):
        model, _, tgt = _trained(7)
        mu = model.store.mu.copy()
        bench(model, tgt, BenchConfig(repetitions=1))
        assert np.array_equal(model.store.mu, mu)


class TestGnbBaseline:
    def test_separable_classes_perfect(self):
        feats = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = np.array([0, 0, 1, 1])
        ds = FeatureDataset(feats, labels)
        model = baseline_gnb_train(ds)
        assert baseline_gnb_eval(model, ds).accuracy == 1.0

    def test_identical_distributions_chance(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(3000, 4))
        labels = rng.integers(0, 3, 3000)
        ds = FeatureDataset(feats, labels)
        model = baseline_gnb_train(ds)
        acc = baseline_gnb_eval(model, ds).accuracy
        assert abs(acc - 1 / 3) < 0.1

    def test_empty_dataset(self):
        src, _ = _task(9)
        model = baseline_gnb_train(src)
        empty = FeatureDataset(np.empty((0, src.dim)), np.empty(0, dtype=int))
        report = baseline_gnb_eval(model, empty)
        assert report.accuracy == 0.0
        assert report.confusion.sum() == 0
        with pytest.raises(MissingLabelsError):
            baseline_gnb_train(empty)

    def test_negative_label_rejected(self):
        src, _ = _task(9)
        labels = src.labels.copy()
        labels[-1] = -1
        with pytest.raises(LabelRangeError):
            baseline_gnb_eval(
                baseline_gnb_train(src), FeatureDataset(src.features, labels)
            )

    def test_wrong_dimension_rejected(self):
        src, _ = _task(9)
        with pytest.raises(DimensionError, match="dimension"):
            baseline_gnb_eval(
                baseline_gnb_train(src), FeatureDataset(src.features[:, :-1], src.labels)
            )

    def test_deterministic(self):
        src, _ = _task(9)
        a = baseline_gnb_train(src)
        b = baseline_gnb_train(src)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.var, b.var)


class TestAblation:
    def test_variant_flags_and_deltas(self):
        src, tgt = _task(10)
        variants = run_ablation(
            src,
            tgt,
            TopologyConfig(8, 10, 10, 6, seed=10),
            HyperParams(batch_size=32),
            AdaptationConfig(epochs=2, shuffle_seed=10),
            train_seed=10,
        )
        flags = [(v.fuzzy_enabled, v.confidence_enabled) for v in variants]
        assert flags == [(False, False), (True, False), (True, True)]
        assert [v.name for v in variants] == ["base", "base+G", "base+G+C"]
        assert variants[0].delta_vs_base == 0.0
        for v in variants:
            assert 0.0 <= v.target_after.accuracy <= 1.0
            assert v.delta_vs_base == pytest.approx(
                v.target_after.accuracy - variants[0].target_after.accuracy
            )

    @pytest.mark.parametrize(
        "topo, hyper",
        [
            (TopologyConfig(8, 10, 10, 6, seed=5), HyperParams(batch_size=32, beta=0.5)),
            (
                TopologyConfig(8, 10, 0, 1, seed=6),
                HyperParams(batch_divisor="confidence", rounds=2),
            ),
        ],
    )
    def test_equals_the_unshared_public_pipeline(self, topo, hyper):
        src, tgt = _hard_task(topo.seed)
        acfg = AdaptationConfig(epochs=3, shuffle_seed=topo.seed)
        variants = run_ablation(src, tgt, topo, hyper, acfg, train_seed=topo.seed)
        for v in variants:
            variant_hyper = replace(
                hyper, fuzzy_enabled=v.fuzzy_enabled, confidence_enabled=v.confidence_enabled
            )
            model = build_model(topo, 3, variant_hyper)
            train_supervised(model, src, shuffle_seed=topo.seed)
            expected = [evaluate(model, src), evaluate(model, tgt)]
            history = adapt(model, tgt.features, acfg, held_out_labels=tgt.labels)
            expected.append(evaluate(model, tgt))
            got = [v.source_report, v.target_before, v.target_after]
            for a, b in zip(got, expected):
                assert a.accuracy == b.accuracy
                assert np.array_equal(a.confusion, b.confusion)
                assert np.array_equal(a.per_class_accuracy, b.per_class_accuracy)
            assert _scores(v.history) == _scores(history)
            assert v.target_best == history.best_epoch().accuracy

    def test_negative_train_seed_is_refused_before_propagation(self):
        src, tgt = _task(0)
        with propagation.forward_rows() as rows, pytest.raises(ConfigError):
            run_ablation(src, tgt, TopologyConfig(8, 10, 10, 6), train_seed=-1)
        assert rows == [0]

    def test_propagates_each_dataset_once(self):
        src, tgt = _hard_task(7)
        src = FeatureDataset(src.features[:90], src.labels[:90])
        with propagation.forward_rows() as rows:
            run_ablation(
                src, tgt, TopologyConfig(8, 10, 10, 6, seed=7),
                adapt_cfg=AdaptationConfig(epochs=2),
            )
        assert rows == [90 + tgt.n_samples]

    def test_requires_labeled_source_and_target(self):
        src, tgt = _task(8)
        with pytest.raises(MissingLabelsError, match="labeled source and target"):
            run_ablation(src, FeatureDataset(tgt.features), TopologyConfig(8, 4, 4, 3))
