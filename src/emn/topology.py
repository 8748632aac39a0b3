"""Hybrid random network topology: entrance, hub, and bridging nodes.

Node ids are assigned entrance-first, then hub, then bridging. Entrance
nodes have no incoming edges, every hub node receives every entrance node
once, and every bridging node receives a fixed number of distinct
predecessors sampled uniformly from all other nodes. Edge weights are
uniform on [-1, 1).

Randomness comes from numpy's PCG64 generator seeded with the config seed.
The draw order is fixed: all hub weights in node-id order, then for each
bridging node in id order its predecessor sample followed by its weights.

Edge-set rule, checked when a ``NetworkTopology`` is built (``ConfigError``):
per node, one 1-D array of integer predecessor ids in [0, node_count) and
an aligned array of finite weights in [-1, 1]. Any such edge set is valid,
self-loops, repeats and predecessors of entrances included. The topology
keeps its edges as read-only views into one new int64 and one new float64
buffer, so the checked edges are final.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from emn.errors import ConfigError


@dataclass(frozen=True)
class TopologyConfig:
    feature_dim: int
    hub_count: int = 50
    bridging_count: int = 50
    bridging_in_degree: int = 30
    seed: int = 0

    @property
    def node_count(self) -> int:
        """Entrance, then hub, then bridging node ids cover [0, node_count)."""
        return self.feature_dim + self.hub_count + self.bridging_count

    def __post_init__(self) -> None:
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be positive")
        if self.hub_count < 1:
            raise ConfigError("hub_count must be positive")
        if self.bridging_count < 0:
            raise ConfigError("bridging_count must be non-negative")
        if self.bridging_count > 0:
            if self.bridging_in_degree < 1:
                raise ConfigError("bridging_in_degree must be positive")
            pool = self.feature_dim + self.hub_count + self.bridging_count - 1
            if self.bridging_in_degree > pool:
                raise ConfigError(
                    f"bridging_in_degree {self.bridging_in_degree} exceeds the "
                    f"{pool} distinct non-self predecessors available"
                )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class NetworkTopology:
    """Frozen, with read-only edges, so threads may share one topology.

    ``predecessors`` and ``weights`` hold read-only per-node views into one
    copy per dtype of the edge arrays it was built from. ``compiled`` holds
    propagation's rank tables, built on first use; racing first uses build
    equal tables.
    """

    config: TopologyConfig
    predecessors: tuple[np.ndarray, ...]  # per node, int64 ids; empty for entrances
    weights: tuple[np.ndarray, ...]  # per node, float64 aligned with predecessors

    def __post_init__(self) -> None:
        n, preds, weights = self.node_count, self.predecessors, self.weights
        if len(preds) != n or len(weights) != n:
            raise ConfigError(f"edge and weight lists must cover {n} nodes")
        for i, (p, w) in enumerate(zip(preds, weights)):
            if p.ndim != 1 or p.shape != w.shape or p.dtype.kind not in "iu":
                raise ConfigError(f"node {i}: edges not integer ids aligned with weights")
            if p.size and (p.min() < 0 or p.max() >= n):
                raise ConfigError(f"node {i}: edge id outside [0, {n})")
        flat_weights = np.concatenate(weights)
        # NaN fails the test too.
        if not (np.abs(flat_weights) <= 1.0).all():
            raise ConfigError("edge weights must be finite and in [-1, 1]")
        # One new read-only buffer per dtype, split into per-node views.
        sizes = [p.size for p in preds]
        for name, flat in (
            ("predecessors", np.concatenate(preds, dtype=np.int64)),
            ("weights", flat_weights.astype(np.float64, copy=False)),
        ):
            flat.flags.writeable = False
            object.__setattr__(self, name, split_views(flat, sizes))

    @cached_property
    def compiled(self):
        """Propagation's ``CompiledTopology``: rank tables built on first use."""
        from emn.propagation import compile_topology
        return compile_topology(self)

    @property
    def node_count(self) -> int:
        return self.config.node_count

    @property
    def feature_dim(self) -> int:
        return self.config.feature_dim

    @property
    def memory_node_ids(self) -> np.ndarray:
        """Hub then bridging node ids; the nodes that carry memory units."""
        d = self.config.feature_dim
        return np.arange(d, self.node_count, dtype=np.int64)

    @property
    def memory_node_count(self) -> int:
        return self.config.hub_count + self.config.bridging_count


def split_views(flat: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, ...]:
    """``flat`` cut into consecutive views of the given sizes."""
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return tuple(flat[a:b] for a, b in zip([0, *ends], ends))


def build_topology(cfg: TopologyConfig) -> NetworkTopology:
    """Construct the seeded hybrid random graph. Pure function of cfg."""
    d, h, n = cfg.feature_dim, cfg.hub_count, cfg.node_count
    rng = np.random.default_rng(cfg.seed)
    preds: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(d)]
    weights: list[np.ndarray] = [np.empty(0) for _ in range(d)]

    entrance_ids = np.arange(d, dtype=np.int64)
    for _ in range(h):
        preds.append(entrance_ids)
        weights.append(rng.uniform(-1.0, 1.0, size=d))

    all_ids = np.arange(n, dtype=np.int64)
    for node in range(d + h, n):
        pool = np.delete(all_ids, node)
        chosen = rng.choice(pool, size=cfg.bridging_in_degree, replace=False)
        preds.append(chosen.astype(np.int64))
        weights.append(rng.uniform(-1.0, 1.0, size=cfg.bridging_in_degree))

    return NetworkTopology(cfg, preds, weights)

