"""Supervised and reinforced memory updates against the per-class oracle.

``supervised_update`` and ``reinforced_update`` update every class of a
batch in one pass; they must leave mu, sigma and the initialized mask
exactly as the one-class-at-a-time loop in ``oracles`` does, sign bits
included, for every combination of the fuzzy and confidence flags and
the batch divisor. The node counts include 1, where numpy sums a
one-column block pairwise rather than row after row.
"""

import itertools

import numpy as np
import pytest

from emn.adaptation import reinforced_update
from emn.memory import BATCH_DIVISORS, HyperParams, init_memory, supervised_update
from oracles import reference_reinforced_update, reference_supervised_update

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NODE_COUNTS = (1, 2, 3, 100)
CLASS_COUNTS = (1, 2, 3, 10, 40)
BATCH_ROWS = (1, 2, 9, 64, 200)
# (fuzzy_enabled, confidence_enabled, index into BATCH_DIVISORS)
FLAGS = list(itertools.product((True, False), (True, False), range(len(BATCH_DIVISORS))))
FLAG_IDS = [f"f{int(f)}-c{int(c)}-{BATCH_DIVISORS[d]}" for f, c, d in FLAGS]


def _hyper(flags):
    fuzzy, confidence, divisor = flags
    return HyperParams(
        fuzzy_enabled=fuzzy,
        confidence_enabled=confidence,
        batch_divisor=BATCH_DIVISORS[divisor],
    )


def _store(nodes, C, hyper, rng, partial=False):
    """Random memories with one zero-spread pair; ``partial`` leaves about
    half the pairs uninitialized (zero, as ``init_memory`` makes them)."""
    store = init_memory(nodes, C, hyper)
    store.mu[:] = rng.normal(size=store.mu.shape) * 2.0
    store.sigma[:] = rng.uniform(0.05, 2.0, size=store.sigma.shape)
    store.sigma[0, 0] = 0.0
    store.initialized[:] = True
    if partial:
        store.initialized[:] = rng.random(store.mu.shape) < 0.5
        store.mu[~store.initialized] = 0.0
        store.sigma[~store.initialized] = 0.0
    return store


def _batches(rows, nodes, C, rng):
    """A random batch; one whose labels skip class 0 (when C > 1); and one
    with a -0.0 node, a 1e300 signal and a -0.0 row."""
    signals = rng.normal(size=(rows, nodes)) * 2.5
    yield signals, rng.integers(0, C, size=rows)
    yield signals, rng.integers(min(1, C - 1), C, size=rows)
    special = signals.copy()
    special[:, 0] = -0.0
    special[0, -1] = 1e300
    special[-1] = -0.0
    yield special, rng.integers(0, C, size=rows)


def _same(got, want):
    assert np.array_equal(got.mu, want.mu, equal_nan=True)
    assert np.array_equal(np.signbit(got.mu), np.signbit(want.mu))
    assert np.array_equal(got.sigma, want.sigma, equal_nan=True)
    assert np.array_equal(np.signbit(got.sigma), np.signbit(want.sigma))
    assert np.array_equal(got.initialized, want.initialized)


def _cases(flags, seed):
    """Every node count, class count and batch size, on data drawn afresh
    for each combination (seeded with integers only)."""
    hyper = _hyper(flags)
    rng = np.random.default_rng((seed, *flags))
    for nodes, C, rows in itertools.product(NODE_COUNTS, CLASS_COUNTS, BATCH_ROWS):
        for signals, labels in _batches(rows, nodes, C, rng):
            yield hyper, nodes, C, rng, signals, labels


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
def test_supervised_update_matches_oracle(flags):
    # A partly initialized store holds both first updates and EMA steps.
    for hyper, nodes, C, rng, signals, labels in _cases(flags, seed=1):
        got = _store(nodes, C, hyper, rng, partial=True)
        want = got.copy()
        supervised_update(got, signals, labels)
        reference_supervised_update(want, signals, labels)
        _same(got, want)


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
def test_reinforced_update_matches_oracle(flags):
    for hyper, nodes, C, rng, signals, labels in _cases(flags, seed=2):
        got = _store(nodes, C, hyper, rng)
        want = got.copy()
        reinforced_update(got, signals, labels)
        reference_reinforced_update(want, signals, labels)
        _same(got, want)

