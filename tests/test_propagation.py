import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from emn import propagation
from emn.errors import ConfigError, DimensionError
from emn.propagation import propagate, propagate_batch, propagate_trace
from emn.topology import NetworkTopology, TopologyConfig, build_topology
from oracles import reference_propagate


def test_hand_traced_fixture(tiny_topology):
    sig = propagate(tiny_topology, [1.0, 2.0], 3)
    assert sig.tolist() == [0.4, 0.6]
    assert tiny_topology.memory_node_ids.tolist() == [2, 3]


def test_hand_traced_hidden_state(tiny_topology):
    # after round 2 the bridging node holds -0.4 and never activates again
    _, trace = propagate_trace(tiny_topology, [1.0, 2.0], 3)
    assert trace.rounds[0].activated.tolist() == [2, 3]
    assert trace.rounds[1].activated.size == 0
    assert trace.rounds[2].activated.size == 0
    ref = reference_propagate(tiny_topology, [1.0, 2.0], 3)
    assert ref.tolist() == [0.0, 0.0, 0.4, 0.6]


def test_zero_input(tiny_topology):
    assert propagate(tiny_topology, [0.0, 0.0], 3).tolist() == [0.0, 0.0]
    _, trace = propagate_trace(tiny_topology, [0.0, 0.0], 3)
    assert all(r.activated.size == 0 for r in trace.rounds)


def test_scaled_input(tiny_topology):
    assert propagate(tiny_topology, [2.0, 4.0], 3).tolist() == [0.8, 1.2]


def test_trace_length_is_round_count(tiny_topology):
    for T in (1, 2, 5):
        _, trace = propagate_trace(tiny_topology, [1.0, 2.0], T)
        assert len(trace.rounds) == T


def test_batch_matches_rowwise(tiny_topology):
    X = np.array([[1.0, 2.0], [2.0, 4.0]])
    out = propagate_batch(tiny_topology, X, 3)
    assert out.tolist() == [[0.4, 0.6], [0.8, 1.2]]
    for b in range(2):
        assert np.array_equal(out[b], propagate(tiny_topology, X[b], 3))


def test_empty_batch(tiny_topology):
    out = propagate_batch(tiny_topology, np.empty((0, 2)), 3)
    assert out.shape == (0, 2)


def test_batch_row_permutation(tiny_topology):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 2))
    perm = rng.permutation(7)
    out = propagate_batch(tiny_topology, X, 3)
    out_perm = propagate_batch(tiny_topology, X[perm], 3)
    assert np.array_equal(out[perm], out_perm)


def test_dimension_and_round_errors(tiny_topology):
    with pytest.raises(DimensionError):
        propagate(tiny_topology, [1.0, 2.0, 3.0], 3)
    with pytest.raises(DimensionError):
        propagate_batch(tiny_topology, np.zeros((2, 3)), 3)
    with pytest.raises(ConfigError):
        propagate(tiny_topology, [1.0, 2.0], 0)


def test_trace_takes_a_single_feature_vector(tiny_topology):
    with pytest.raises(DimensionError):
        propagate_trace(tiny_topology, np.ones((3, 2)), 3)
    m, trace = propagate_trace(tiny_topology, [[1.0, 2.0]], 3)
    assert np.array_equal(m, propagate(tiny_topology, [1.0, 2.0], 3))
    assert len(trace.rounds) == 3


def test_determinism(tiny_topology):
    t = build_topology(TopologyConfig(8, 4, 4, 3, seed=11))
    x = np.random.default_rng(1).normal(size=8)
    a = propagate(t, x, 3)
    b = propagate(t, x, 3)
    assert np.array_equal(a, b)


def test_negative_features_pass_through(tiny_topology):
    # negative entrance outputs at round 0 are propagated, not clipped
    sig = propagate(tiny_topology, [-1.0, -2.0], 3)
    assert np.all(sig >= 0.0)


def _random_small_topology(rng):
    d = int(rng.integers(1, 4))
    h = int(rng.integers(1, 3))
    b = int(rng.integers(0, min(3, max(1, 7 - d - h))))
    b = max(0, min(b, 6 - d - h))
    indeg = int(rng.integers(1, d + h + b)) if b else 1
    return build_topology(
        TopologyConfig(d, h, b, indeg, seed=int(rng.integers(2**32)))
    )


def test_oracle_equivalence_random_small_nets():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        t = _random_small_topology(rng)
        T = int(rng.integers(1, 5))
        x = rng.normal(size=t.feature_dim) * 3.0
        got = propagate(t, x, T)
        ref = reference_propagate(t, x, T)[t.memory_node_ids]
        assert np.array_equal(got, ref)


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _reference_rows(t, X, T):
    return np.array([reference_propagate(t, x, T)[t.memory_node_ids] for x in X])


def test_batched_oracle_random_small_nets():
    rng = np.random.default_rng(99)
    for trial in range(120):
        d = int(rng.integers(1, 6))
        h = int(rng.integers(1, 4))
        b = 0 if trial % 4 == 0 else int(rng.integers(1, 5))
        indeg = int(rng.integers(1, d + h + b)) if b else 1
        t = build_topology(TopologyConfig(d, h, b, indeg, seed=trial))
        X = rng.normal(size=(int(rng.integers(2, 7)), d)) * 3.0
        for T in range(1, 6):
            _assert_bitwise(propagate_batch(t, X, T), _reference_rows(t, X, T))


SPECIAL_VALUES = [
    np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0,
    5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0,
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_special_value_rows():
    rng = np.random.default_rng(3)
    t = build_topology(TopologyConfig(6, 4, 5, 4, seed=8))
    X = rng.normal(size=(40, 6))
    mask = rng.random(X.shape) < 0.4
    X[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
    X[0] = [np.nan, np.inf, -np.inf, 1e300, -0.0, 5e-324]
    for T in (1, 2, 3, 5):
        _assert_bitwise(propagate_batch(t, X, T), _reference_rows(t, X, T))
        for x in X[:3]:
            _assert_bitwise(propagate(t, x, T), _reference_rows(t, [x], T)[0])


@pytest.mark.parametrize("d, rows", [(20, 1400), (64, 64), (256, 1)])
def test_oracle_default_scale(d, rows):
    # Batch sizes span the engine's chunking: a single row folds every rank
    # in one accumulate, 64 rows add a few gathered ranks at a time, and
    # 1400 rows go through in several chunks of rows.
    t = build_topology(TopologyConfig(d, 50, 50, 30, seed=d))
    X = np.random.default_rng(d).normal(size=(rows, d))
    got = propagate_batch(t, X, 3)
    picked = [0, rows // 2, rows - 1]
    _assert_bitwise(got[picked], _reference_rows(t, X[picked], 3))


@pytest.mark.parametrize("d", [20, 64, 256])
def test_one_row_fold_default_scale(d):
    # Every single-row path folds each ordered sum in one accumulate: one
    # row through propagate and propagate_trace, and the one-row last chunk
    # of a batch one row longer than a chunk.
    t = build_topology(TopologyConfig(d, 50, 50, 30, seed=d))
    rows = propagation._CHUNK_CELLS // (t.node_count + 1) + 1
    X = np.random.default_rng(d + 1).normal(size=(rows, d))
    X[1] = -0.0
    picked = [0, 1, rows - 1]
    ref = _reference_rows(t, X[picked], 3)
    for x, r in zip(X[picked], ref):
        _assert_bitwise(propagate(t, x, 3), r)
        _assert_bitwise(propagate_trace(t, x, 3)[0], r)
    _assert_bitwise(propagate_batch(t, X, 3)[picked], ref)


def _hand_built(preds, weights, d, h, b):
    return NetworkTopology(
        TopologyConfig(d, h, b, 1),
        [np.array(p, dtype=np.int64) for p in preds],
        [np.array(w, dtype=np.float64) for w in weights],
    )


def test_hub_with_bridging_predecessor():
    # e0, e1; hubs 2, 3; bridging 4. Hub 3 also listens to bridging node 4,
    # so it must iterate with the bridging nodes instead of settling in the
    # one-shot phase: it emits 0.5 in round 1 and 1.0 again in round 3.
    t = _hand_built(
        [[], [], [0], [1, 4], [2]],
        [[], [], [1.0], [0.5, 1.0], [1.0]],
        d=2, h=2, b=1,
    )
    sig, trace = propagate_trace(t, [1.0, 1.0], 3)
    assert sig.tolist() == [1.0, 1.5, 1.0]
    assert [r.activated.tolist() for r in trace.rounds] == [[2, 3], [4], [3]]
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 2))
    for T in range(1, 6):
        _assert_bitwise(propagate_batch(t, X, T), _reference_rows(t, X, T))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_equivalence_arbitrary_edge_sets():
    # A topology may carry any edge set within the edge-set rule of
    # emn.topology: entrances with predecessors, self-loops, repeated
    # predecessors, ragged in-degrees. Non-finite features make any stray
    # 0 * x term visible.
    rng = np.random.default_rng(77)
    for trial in range(60):
        d, h, b = (int(v) for v in rng.integers(1, 5, size=3))
        n = d + h + b
        preds, weights = [], []
        for _ in range(n):
            k = int(rng.integers(0, 6))
            preds.append(rng.integers(0, n, size=k))
            weights.append(rng.uniform(-1.0, 1.0, size=k))
        t = _hand_built(preds, weights, d, h, b)
        X = rng.normal(size=(4, d)) * 2.0
        X[1] = rng.choice(SPECIAL_VALUES, size=d)
        for T in (1, 2, 4):
            ref = _reference_rows(t, X, T)
            _assert_bitwise(propagate_batch(t, X, T), ref)
            for x, r in zip(X, ref):
                _assert_bitwise(propagate(t, x, T), r)
            _, trace = propagate_trace(t, X[0], T)
            assert len(trace.rounds) == T


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_row_with_empty_phases():
    rng = np.random.default_rng(12)
    # Hubs 2 and 3 have no predecessors, so they settle in one shot with
    # zero ranks; bridging node 4 listens to an entrance, a hub and itself.
    no_ranks = _hand_built(
        [[], [], [], [], [0, 2, 4]],
        [[], [], [], [], [0.75, -0.5, 0.25]],
        d=2, h=2, b=1,
    )
    # No bridging nodes: every node past the entrances settles in one shot.
    no_rest = build_topology(TopologyConfig(5, 4, 0, 1, seed=3))
    for t in (no_ranks, no_rest):
        X = rng.normal(size=(3, t.feature_dim)) * 2.0
        X[1] = rng.choice(SPECIAL_VALUES, size=t.feature_dim)
        for T in (1, 2, 4):
            for x, r in zip(X, _reference_rows(t, X, T)):
                _assert_bitwise(propagate(t, x, T), r)
    # A phase without edges reads one rank: the zero row, weight 0.0.
    one_shot = no_ranks.compiled.one_shot
    assert one_shot.src.tolist() == [[no_ranks.node_count] * 2]
    assert one_shot.weights.tolist() == [[[0.0], [0.0]]]
    assert no_ranks.compiled.rest.nodes.size == 1
    assert no_rest.compiled.rest.nodes.size == 0


def test_one_row_fold_equals_rank_loop():
    # The one-row fold and the rank loop of wider chunks form the same
    # ordered sums, signs of zero included: -0.0 terms alone sum to +0.0,
    # as in the scalar oracle, whose sums start at +0.0.
    t = _hand_built(
        [[], [], [0, 1], [0, 2, 1]],
        [[], [], [0.5, 0.25], [1.0, -1.0, 0.5]],
        d=2, h=1, b=1,
    )
    compiled = propagation._compile(t)
    o = np.zeros((t.node_count + 1, 1))
    for column in ([-0.0, -0.0, -0.0, -0.0], [1.0, -2.0, -0.0, 3.0]):
        o[:-1, 0] = column
        for phase in (compiled.one_shot, compiled.rest):
            fold = propagation._ordered_sum(o, phase)
            loop = propagation._ordered_sum(np.repeat(o, 2, axis=1), phase)
            assert fold.shape == (phase.nodes.size, 1)
            _assert_bitwise(fold[:, 0], loop[:, 0])


def test_tables_compiled_once_per_topology():
    t = build_topology(TopologyConfig(8, 4, 4, 3, seed=1))
    assert t.compiled is None
    propagate(t, np.ones(8), 3)
    compiled = t.compiled
    assert compiled is not None
    propagate_batch(t, np.ones((3, 8)), 2)
    assert t.compiled is compiled


def test_concurrent_first_propagation():
    # Threads racing to compile the same topology all get exact results.
    t = build_topology(TopologyConfig(12, 6, 6, 5, seed=3))
    X = np.random.default_rng(6).normal(size=(8, 12))
    expected = _reference_rows(t, X, 3)
    results = [None] * 8
    barrier = threading.Barrier(8, timeout=10)

    def worker(i):
        barrier.wait()
        results[i] = propagate_batch(t, X, 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        _assert_bitwise(got, expected)


def test_positive_homogeneity_default_scale():
    rng = np.random.default_rng(7)
    t = build_topology(TopologyConfig(64, 50, 50, 30, seed=21))
    for _ in range(20):
        x = rng.normal(size=64)
        c = float(rng.uniform(0.1, 10.0))
        base = propagate(t, x, 3)
        scaled = propagate(t, c * x, 3)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-300)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    c=st.floats(1e-3, 1e3),
    xseed=st.integers(0, 2**31),
)
def test_positive_homogeneity_property(seed, c, xseed):
    t = build_topology(TopologyConfig(5, 3, 3, 4, seed=seed))
    x = np.random.default_rng(xseed).normal(size=5)
    base = propagate(t, x, 3)
    scaled = propagate(t, c * x, 3)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-300)


def test_hidden_state_ledger():
    # reference interpreter exposes full state; check h <= 0 after rounds
    rng = np.random.default_rng(5)
    t = build_topology(TopologyConfig(6, 3, 3, 4, seed=2))
    X = rng.normal(size=(5, 6))
    # re-run reference with inline state inspection
    for x in X:
        n = t.node_count
        o = [0.0] * n
        for i in range(t.feature_dim):
            o[i] = float(x[i])
        h = [0.0] * n
        for _ in range(3):
            new_o = [0.0] * n
            new_h = list(h)
            for i in range(n):
                s = 0.0
                for j, w in zip(t.predecessors[i], t.weights[i]):
                    s += o[j] * float(w)
                hi = h[i] + s
                if hi > 0.0:
                    new_o[i], new_h[i] = hi, 0.0
                else:
                    new_o[i], new_h[i] = 0.0, hi
            o, h = new_o, new_h
            assert all(v <= 0.0 for v in h)
            assert all(v >= 0.0 for v in o)
