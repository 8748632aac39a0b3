import numpy as np
import pytest

from emn.topology import NetworkTopology, TopologyConfig


@pytest.fixture
def tiny_topology() -> NetworkTopology:
    """Hand-specified 4-node net: entrances e0,e1; hub h=2; bridging b=3.

    h <- (e0: 1.0, e1: -0.3); b <- (e1: 0.3, h: -1.0).
    With x=(1,2), T=3 the steady memory signals are (h: 0.4, b: 0.6).
    """
    cfg = TopologyConfig(
        feature_dim=2, hub_count=1, bridging_count=1, bridging_in_degree=2, seed=7
    )
    preds = [np.empty(0, dtype=np.int64)] * 2 + [np.array([0, 1]), np.array([1, 2])]
    weights = [np.empty(0)] * 2 + [np.array([1.0, -0.3]), np.array([0.3, -1.0])]
    return NetworkTopology(cfg, preds, weights)
