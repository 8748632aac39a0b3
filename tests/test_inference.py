import numpy as np
import pytest

from emn.adaptation import AdaptationConfig, adapt, pseudo_label
from emn.dataio import FeatureDataset
from emn.errors import (
    ConfigError,
    DimensionError,
    IntegrityError,
    NonFiniteError,
    NotTrainedError,
)
from emn.harness import evaluate
from emn.inference import (
    EmnModel,
    _fuse,
    batch_node_votes,
    build_model,
    fused_posteriors_from_signals,
    labels_from_signals,
    predict,
    predict_batch,
)
from emn.memory import HyperParams, init_memory, supervised_update
from emn.propagation import propagate_batch
from emn.topology import TopologyConfig


def _trained_model(seed=0, dim=6, classes=3, **hyper_kwargs):
    hyper = HyperParams(**hyper_kwargs)
    model = build_model(TopologyConfig(dim, 4, 4, 3, seed=seed), classes, hyper)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(classes * 20, dim)) + rng.normal(
        size=(classes, dim)
    ).repeat(20, axis=0)
    y = np.arange(classes).repeat(20)
    signals = propagate_batch(model.topology, X, hyper.rounds)
    supervised_update(model.store, signals, y)
    return model, X, y


def test_fusion_fixture():
    posteriors = np.array([[[0.8, 0.2], [0.4, 0.6]]])
    confidences = np.array([[0.3, 0.1]])
    fused = _fuse(posteriors, confidences)
    np.testing.assert_allclose(fused[0], [0.7, 0.3], rtol=1e-12)
    assert int(np.argmax(fused[0])) == 0


def test_single_node_fusion_is_identity():
    posteriors = np.array([[[0.15, 0.85]]])
    fused = _fuse(posteriors, np.array([[0.2]]))
    np.testing.assert_allclose(fused[0], [0.15, 0.85], rtol=1e-12)


def test_identical_posteriors_fuse_to_themselves():
    p = np.array([0.3, 0.5, 0.2])
    posteriors = np.tile(p, (1, 5, 1))
    fused = _fuse(posteriors, np.array([[0.5, 0.01, 3.0, 0.2, 1.0]]))
    np.testing.assert_allclose(fused[0], p, rtol=1e-12)


def test_fused_posterior_is_convex_combination():
    model, X, _ = _trained_model()
    signals = propagate_batch(model.topology, X[:10], model.hyper.rounds)
    node_posteriors, _, _ = batch_node_votes(model, signals)
    fused = fused_posteriors_from_signals(model, signals)
    preds = predict_batch(model, X[:10])
    for p, f, node_post in zip(preds, fused, node_posteriors):
        assert np.array_equal(p.posterior, f)
        assert abs(p.posterior.sum() - 1.0) < 1e-12
        assert np.all(p.posterior >= node_post.min(axis=0) - 1e-12)
        assert np.all(p.posterior <= node_post.max(axis=0) + 1e-12)
        assert p.label == int(np.argmax(p.posterior))


def test_confidence_scale_invariance():
    posteriors = np.random.default_rng(0).dirichlet(np.ones(3), size=(2, 6))
    rng = np.random.default_rng(1)
    conf = rng.uniform(0.01, 1.0, size=(posteriors.shape[0], posteriors.shape[1]))
    base = _fuse(posteriors, conf)
    # power-of-two scaling is exact in floating point
    for s in (0.5, 2.0, 4.0):
        assert np.array_equal(_fuse(posteriors, conf * s), base)


def test_node_permutation_invariance():
    rng = np.random.default_rng(2)
    posteriors = rng.dirichlet(np.ones(4), size=(3, 8))
    conf = rng.uniform(0.01, 1.0, size=(3, 8))
    perm = rng.permutation(8)
    np.testing.assert_allclose(
        _fuse(posteriors, conf),
        _fuse(posteriors[:, perm], conf[:, perm]),
        rtol=1e-12,
    )


def test_predict_batch_rowwise_and_order():
    model, X, _ = _trained_model(seed=3)
    batch = predict_batch(model, X[:5])
    for b in range(5):
        single = predict(model, X[b])
        assert single.label == batch[b].label
        assert np.array_equal(single.posterior, batch[b].posterior)


def test_predict_batch_posteriors_are_own_rows():
    # a kept Prediction must not pin the whole fused batch matrix
    model, X, _ = _trained_model(seed=3)
    batch = predict_batch(model, X[:4])
    for p in batch:
        assert p.posterior.base is None
        assert p.posterior.shape == (3,)


def test_batch_spanning_row_chunks_matches_rowwise():
    # 100 memory nodes x 3 classes: a 500-row batch is retrieved and fused
    # in several chunks of rows.
    model = build_model(TopologyConfig(6, 50, 50, 30, seed=2), 3)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(500, 6)) + np.arange(3).repeat(167)[:500, None]
    signals = propagate_batch(model.topology, X, model.hyper.rounds)
    supervised_update(model.store, signals, np.arange(3).repeat(167)[:500])
    batch = predict_batch(model, X)
    fused = fused_posteriors_from_signals(model, signals)
    for b in range(500):
        assert np.array_equal(batch[b].posterior, fused[b])
    for b in (0, 217, 218, 499):
        single = predict(model, X[b])
        assert single.label == batch[b].label
        assert np.array_equal(single.posterior, batch[b].posterior)


def test_empty_batch():
    model, _, _ = _trained_model(seed=4)
    assert predict_batch(model, np.empty((0, 6))) == []


def test_predict_read_only_and_deterministic():
    model, X, _ = _trained_model(seed=5)
    mu_before = model.store.mu.copy()
    a = predict(model, X[0])
    b = predict(model, X[0])
    assert a.label == b.label
    assert np.array_equal(a.posterior, b.posterior)
    assert np.array_equal(model.store.mu, mu_before)


def test_untrained_model_rejected():
    model = build_model(TopologyConfig(4, 2, 2, 2, seed=0), 2)
    with pytest.raises(NotTrainedError):
        predict(model, np.zeros(4))


def test_untrained_model_rejected_on_an_empty_batch():
    # Retrieval checks the store even when there is no row to retrieve.
    model = build_model(TopologyConfig(4, 2, 2, 2, seed=0), 2)
    with pytest.raises(NotTrainedError):
        predict_batch(model, np.empty((0, 4)))


def test_dimension_error():
    model, X, _ = _trained_model(seed=6)
    with pytest.raises(DimensionError):
        predict(model, np.zeros(7))
    with pytest.raises(DimensionError, match="single feature vector"):
        predict(model, X[:1])
    for row in (np.zeros(6), np.array([0.0] * 5 + [np.nan])):
        with pytest.raises(DimensionError, match="2-D batch"):
            predict_batch(model, row)


def test_uniform_fusion_when_confidence_disabled():
    model, X, _ = _trained_model(seed=7, confidence_enabled=False)
    signals = propagate_batch(model.topology, X[:3], model.hyper.rounds)
    node_posteriors, _, confidences = batch_node_votes(model, signals)
    fused = fused_posteriors_from_signals(model, signals)
    for f, node_post in zip(fused, node_posteriors):
        np.testing.assert_allclose(f, node_post.mean(axis=0), rtol=1e-9)
    assert np.all(confidences == 1.0)


def test_store_size_mismatch_rejected():
    from emn.topology import build_topology

    topology = build_topology(TopologyConfig(4, 2, 2, 2, seed=0))
    store = init_memory(5, 2)
    with pytest.raises(DimensionError):
        EmnModel(topology, store, 2, HyperParams())


def test_model_and_store_must_share_hyperparameters():
    model, _, _ = _trained_model()
    other = model.store.copy()
    other.hyper = HyperParams(beta=0.5)
    with pytest.raises(ConfigError, match="hyperparameters"):
        EmnModel(model.topology, other, model.class_count, model.hyper)
    EmnModel(model.topology, model.store.copy(), model.class_count, HyperParams())


# A finite 1e300 passes the feature check and overflows retrieval instead.
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, 1e300]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", SPECIAL_VALUES, ids=str)
def test_non_finite_row_is_a_data_error_at_every_entry_point(value):
    model, X, y = _trained_model(seed=8)
    X, y = X[:5].copy(), y[:5]
    X[3, 2] = value
    mu_before = model.store.mu.copy()
    calls = {
        "predict_batch": lambda: predict_batch(model, X),
        "pseudo_label": lambda: pseudo_label(model, X),
        "adapt": lambda: adapt(model, X, AdaptationConfig(epochs=2)),
        "adapt held-out": lambda: adapt(model, X, AdaptationConfig(epochs=2), y),
        "evaluate": lambda: evaluate(model, FeatureDataset(X, y)),
    }
    for call in calls.values():
        with pytest.raises(NonFiniteError, match="row 3"):
            call()
    with pytest.raises(NonFiniteError, match="row 0"):
        predict(model, X[3])
    assert np.array_equal(model.store.mu, mu_before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", SPECIAL_VALUES, ids=str)
def test_non_finite_signal_row_is_a_data_error(value):
    # labels_from_signals checks the fused posterior; the fusion kernel
    # itself returns it unchecked.
    model, X, _ = _trained_model(seed=9)
    signals = propagate_batch(model.topology, X[:4], model.hyper.rounds)
    signals[2] = value
    assert not np.isfinite(fused_posteriors_from_signals(model, signals)[2]).all()
    with pytest.raises(NonFiniteError, match="row 2"):
        labels_from_signals(model, signals)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_memory_is_a_model_error():
    # Every mu at 1e300 overflows retrieval on moderate rows: the model's
    # fault. A row whose own signals overflow stays the data's fault.
    model, X, _ = _trained_model(seed=10)
    model.store.mu[:] = 1e300
    signals = propagate_batch(model.topology, X[:4], model.hyper.rounds)
    with pytest.raises(IntegrityError, match="row 0: .*mu too large"):
        labels_from_signals(model, signals)
    signals[0] = -1e300
    with pytest.raises(NonFiniteError, match="row 0: .*features too large"):
        labels_from_signals(model, signals)
