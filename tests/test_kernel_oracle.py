"""The class-major retrieval and fusion kernel against the row-major oracle.

``store_log_likelihoods``, ``batch_node_votes`` and
``fused_posteriors_from_signals`` must equal their ``oracles`` references
bit for bit, NaN payload signs included, for class counts on either side
of numpy's pairwise-sum thresholds (8 accumulators from 8 classes, halves
above 128). Fusion is checked on 1 and 2 rows and on a single class too,
on either side of its rule for the class-major path (2 rows, 2 classes).
"""

import numpy as np
import pytest

from emn import inference
from emn.inference import batch_node_votes, build_model, fused_posteriors_from_signals
from emn.memory import HyperParams, store_log_likelihoods
from emn.topology import TopologyConfig
from oracles import (
    reference_fused_posteriors,
    reference_log_likelihoods,
    reference_node_votes,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CLASS_COUNTS = (1, 2, 3, 7, 8, 9, 10, 16, 17, 129, 300)


def _model(C, fuzzy, confidence):
    """A 12-node model with random memories, two tied nodes and, for the
    plain density, a zero-spread node (class 1, or 0 when C = 1)."""
    hyper = HyperParams(fuzzy_enabled=fuzzy, confidence_enabled=confidence)
    model = build_model(TopologyConfig(4, 6, 6, 3, seed=C), C, hyper)
    rng = np.random.default_rng(C)
    store = model.store
    store.mu[:] = rng.normal(size=store.mu.shape) * 2.0
    store.sigma[:] = rng.uniform(0.05, 2.0, size=store.sigma.shape)
    store.mu[0], store.sigma[0] = 0.5, 0.3  # every class ties
    store.mu[1, 1:] = store.mu[1, 0] + 20.0  # classes 0 and C-1 tie
    store.mu[1, -1], store.sigma[1, -1] = store.mu[1, 0], store.sigma[1, 0]
    store.sigma[2, min(1, C - 1)] = 0.0
    store.initialized[:] = True
    return model


def _signals(model, rows, seed=0):
    """Rows near the memories, then one row per special value, placed in a
    single node and across a whole row."""
    rng = np.random.default_rng(seed)
    N = model.store.node_count
    signals = rng.normal(size=(rows, N)) * 2.5
    signals[:, 1] = model.store.mu[1, 0]
    specials = []
    for value in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        one = rng.normal(size=N)
        one[3] = value
        specials += [one, np.full(N, value)]
    return signals, np.array(specials)


def _same(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _check_votes(model, signals):
    _same(
        store_log_likelihoods(model.store, signals),
        reference_log_likelihoods(model.store, signals),
    )
    for got, want in zip(
        batch_node_votes(model, signals), reference_node_votes(model, signals)
    ):
        _same(got, want)


@pytest.mark.parametrize("confidence", [True, False], ids=["conf", "noconf"])
@pytest.mark.parametrize("fuzzy", [True, False], ids=["fuzzy", "plain"])
@pytest.mark.parametrize("C", CLASS_COUNTS)
def test_node_votes_match_oracle(C, fuzzy, confidence):
    model = _model(C, fuzzy, confidence)
    signals, specials = _signals(model, 40)
    for batch in (signals[:0], signals[:1], signals, specials, specials[5:6]):
        _check_votes(model, batch)


@pytest.mark.parametrize("confidence", [True, False], ids=["conf", "noconf"])
@pytest.mark.parametrize("fuzzy", [True, False], ids=["fuzzy", "plain"])
@pytest.mark.parametrize("C", CLASS_COUNTS)
def test_fused_posteriors_match_oracle(C, fuzzy, confidence):
    model = _model(C, fuzzy, confidence)
    N = model.store.node_count
    step = inference._CHUNK_CELLS // (N * C)
    signals, specials = _signals(model, step + 1, seed=C)
    mixed = np.concatenate([signals[: step - 3], specials])  # specials span the border
    batches = (signals[:0], signals[:1], signals[:2], signals[:step], signals, mixed)
    for batch in batches:
        _same(
            fused_posteriors_from_signals(model, batch),
            reference_fused_posteriors(model, batch),
        )


def test_ties_vote_for_the_lowest_class():
    model = _model(10, True, True)
    signals, _ = _signals(model, 5)
    _, labels, _ = batch_node_votes(model, signals)
    assert np.all(labels[:, 0] == 0)  # every class of node 0 is the same
    assert np.all(labels[:, 1] == 0)  # classes 0 and 9 tie at the top


def test_all_nan_node_votes_zero():
    model = _model(9, True, True)
    _, specials = _signals(model, 1)
    posteriors, labels, _ = batch_node_votes(model, specials)
    assert np.isnan(posteriors[0, 3]).all()
    assert labels[0, 3] == 0


@pytest.mark.parametrize("C", (3, 10))
def test_class_major_buffers_are_c_contiguous(C):
    # A K-order result of ``signals.T - mu.T`` would keep rows innermost;
    # the bits stay right but every class reduction runs strided.
    model = _model(C, True, True)
    signals, _ = _signals(model, 65)
    log_lik = store_log_likelihoods(model.store, signals)
    assert log_lik.shape == (65, model.store.node_count, C)
    assert log_lik.transpose(2, 1, 0).flags.c_contiguous
    posteriors, labels, confidences = batch_node_votes(model, signals)
    assert posteriors.transpose(2, 1, 0).flags.c_contiguous
    assert labels.T.flags.c_contiguous and confidences.T.flags.c_contiguous
