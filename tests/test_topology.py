from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from emn.errors import ConfigError
from emn.topology import NetworkTopology, TopologyConfig, build_topology


@dataclass(frozen=True)
class TopologyStats:
    entrance_count: int
    hub_count: int
    bridging_count: int
    edge_count: int
    weight_min: float
    weight_max: float
    weight_mean: float


def topology_stats(t: NetworkTopology) -> TopologyStats:
    all_w = np.concatenate([w for w in t.weights if w.size] or [np.empty(0)])
    return TopologyStats(
        entrance_count=t.config.feature_dim,
        hub_count=t.config.hub_count,
        bridging_count=t.config.bridging_count,
        edge_count=int(sum(p.size for p in t.predecessors)),
        weight_min=float(all_w.min()) if all_w.size else 0.0,
        weight_max=float(all_w.max()) if all_w.size else 0.0,
        weight_mean=float(all_w.mean()) if all_w.size else 0.0,
    )


def test_small_structure():
    cfg = TopologyConfig(2, 1, 1, 2, seed=7)
    t = build_topology(cfg)
    assert t.node_count == 4
    stats = topology_stats(t)
    assert (stats.entrance_count, stats.hub_count, stats.bridging_count) == (2, 1, 1)
    assert t.memory_node_ids.tolist() == [2, 3]
    assert set(t.predecessors[2].tolist()) == {0, 1}
    assert t.predecessors[3].size == 2
    assert 3 not in t.predecessors[3]
    assert len(set(t.predecessors[3].tolist())) == 2


def test_default_scale_structure():
    cfg = TopologyConfig(256, 50, 50, 30, seed=99)
    t = build_topology(cfg)
    assert t.node_count == 356
    for node in range(306, 356):
        assert t.predecessors[node].size == 30
    stats = topology_stats(t)
    assert stats.edge_count == 256 * 50 + 50 * 30


def test_entrances_have_no_predecessors():
    t = build_topology(TopologyConfig(8, 4, 4, 3, seed=1))
    for i in range(8):
        assert t.predecessors[i].size == 0
        assert t.weights[i].size == 0


def test_hub_predecessors_are_exactly_entrances():
    t = build_topology(TopologyConfig(8, 4, 4, 3, seed=1))
    for node in range(8, 12):
        assert t.predecessors[node].tolist() == list(range(8))


def test_determinism():
    cfg = TopologyConfig(16, 5, 5, 4, seed=123)
    a = build_topology(cfg)
    b = build_topology(cfg)
    for pa, pb in zip(a.predecessors, b.predecessors):
        assert np.array_equal(pa, pb)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_weights_in_range():
    t = build_topology(TopologyConfig(32, 10, 10, 8, seed=5))
    stats = topology_stats(t)
    assert stats.weight_min >= -1.0
    assert stats.weight_max <= 1.0


def test_no_duplicate_edges_no_self_loops():
    t = build_topology(TopologyConfig(10, 6, 8, 9, seed=3))
    for node, preds in enumerate(t.predecessors):
        assert len(set(preds.tolist())) == preds.size
        assert node not in preds


def test_small_stats_edge_count():
    t = build_topology(TopologyConfig(2, 1, 1, 2, seed=7))
    assert topology_stats(t).edge_count == 2 * 1 + 2


def test_no_bridging_nodes():
    t = build_topology(TopologyConfig(4, 3, 0, 1, seed=0))
    assert topology_stats(t).edge_count == 4 * 3


def test_config_errors():
    with pytest.raises(ConfigError):
        build_topology(TopologyConfig(0, 1, 1, 1, seed=0))
    with pytest.raises(ConfigError):
        build_topology(TopologyConfig(2, 0, 1, 1, seed=0))
    with pytest.raises(ConfigError):
        # only 3 distinct non-self predecessors exist
        build_topology(TopologyConfig(2, 1, 1, 4, seed=0))


def _four_nodes(preds, weights):
    """Entrances 0 and 1, hub 2, bridging node 3, with the given edges."""
    return NetworkTopology(TopologyConfig(2, 1, 1, 2), preds, weights)


def _arrays(preds, weights):
    return (
        [np.array(p, dtype=np.int64) for p in preds],
        [np.array(w, dtype=np.float64) for w in weights],
    )


def _set(lists, node, value):
    lists[node] = value


EDGE_FAULTS = {
    "weight missing": lambda p, w: _set(w, 2, w[2][:1]),
    "edge id past the end": lambda p, w: p[3].__setitem__(0, 4),
    "edge id negative": lambda p, w: p[3].__setitem__(0, -1),
    "predecessor list short": lambda p, w: p.pop(),
    "weight list short": lambda p, w: w.pop(),
    "weight beyond 1": lambda p, w: w[3].__setitem__(1, 5.0),
    "weight not a number": lambda p, w: w[3].__setitem__(1, np.nan),
    "weight infinite": lambda p, w: w[3].__setitem__(1, -np.inf),
    "edge ids floats": lambda p, w: _set(p, 2, p[2].astype(np.float64)),
    "edge ids booleans": lambda p, w: _set(p, 2, p[2].astype(bool)),
    "edge list 2-D": lambda p, w: (_set(p, 2, p[2][None]), _set(w, 2, w[2][None])),
}


@pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
def test_hand_built_fault_raises_when_built(fault):
    preds, weights = _arrays([[], [], [0, 1], [1, 2]], [[], [], [1.0, -0.3], [0.3, -1.0]])
    _four_nodes(preds, weights)
    EDGE_FAULTS[fault](preds, weights)
    with pytest.raises(ConfigError):
        _four_nodes(preds, weights)


def test_edge_set_rule_admits_any_edges_within_bounds():
    # Entrance predecessors, self-loops, repeats, the closed weight range.
    preds = [[3], [], [2, 2, 0], [3, 1]]
    weights = [[1.0], [], [-1.0, 0.5, 0.0], [1.0, -1.0]]
    t = _four_nodes(*_arrays(preds, weights))
    assert [p.tolist() for p in t.predecessors] == preds


def test_bridging_sampling_roughly_uniform():
    # 10,000 draws over a small pool; every non-self node must appear
    # within 5x of the uniform expectation.
    d, h, b, indeg = 4, 3, 3, 3
    counts = np.zeros(d + h + b)
    draws = 0
    for seed in range(1112):  # 1112 topologies x 3 bridging x 3 picks ~ 10k
        t = build_topology(TopologyConfig(d, h, b, indeg, seed=seed))
        for node in range(d + h, d + h + b):
            for p in t.predecessors[node]:
                counts[p] += 1
                draws += 1
    assert draws >= 10_000
    expected = draws / (d + h + b)  # near-uniform; self-exclusion skews slightly
    assert counts.min() >= expected / 5.0
    assert counts.max() <= expected * 5.0


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 8),
    h=st.integers(1, 6),
    b=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_invariants_hold_for_random_configs(d, h, b, seed, data):
    indeg = data.draw(st.integers(1, d + h + max(b, 1) - 1)) if b else 1
    cfg = TopologyConfig(d, h, b, indeg, seed=seed)
    t = build_topology(cfg)
    assert t.node_count == d + h + b
    for node, (preds, w) in enumerate(zip(t.predecessors, t.weights)):
        assert preds.size == w.size
        assert node not in preds
        assert len(set(preds.tolist())) == preds.size
        if w.size:
            assert w.min() >= -1.0 and w.max() <= 1.0
