"""Impulse-based signal propagation over a network topology.

Per round, every node adds the weighted outputs of its predecessors to its
hidden state; a node whose hidden state is positive emits it as output and
resets to zero; emitted outputs accumulate into the node's memory signal.
Entrance nodes emit their feature value only at round 0.

Accumulation order is part of the defined semantics: the incoming sum for
a node is formed sequentially in predecessor-list order and then added to
the hidden state. This makes results bit-reproducible and checkable
against a straight-line scalar interpreter (the test oracle in
``tests/oracles.py``).

The engine compiles a topology's rank tables once and caches them on it.
A node fed only by entrances receives input only in round 1, so a
one-shot phase settles all such nodes (every hub) with one ordered sum;
then T rounds run over the remaining nodes. State is node-major (N x B),
so each rank gathers contiguous rows of the previous round's outputs.

A chunk of one row folds each ordered sum in one ``np.add.accumulate``
over its gathered ranks, which adds in predecessor-list order; wider
chunks add one rank at a time. The rule is the row count: one numpy add
per rank is most of a single row's cost, while the fold runs strided
over the rows of a chunk and loses to the rank loop as rows grow.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from emn.errors import ConfigError, DimensionError
from emn.topology import NetworkTopology

_scopes: ContextVar[tuple[list[int], ...]] = ContextVar("forward_rows", default=())


@contextmanager
def forward_rows() -> Iterator[list[int]]:
    """Count the rows propagated in the block in this context, nested
    blocks included, as ``[count]``. A thread run in a copy of this context
    counts into it unsynchronized: share no scope across threads."""
    rows = [0]
    token = _scopes.set((*_scopes.get(), rows))
    try:
        yield rows
    finally:
        _scopes.reset(token)


@dataclass(frozen=True)
class RoundTrace:
    round_index: int  # 1-based
    activated: np.ndarray  # node ids emitting this round
    outputs: np.ndarray  # per-node output values, full length N


@dataclass(frozen=True)
class PropagationTrace:
    rounds: list[RoundTrace]


@dataclass(frozen=True)
class _Phase:
    """Rank tables of one group of nodes, for ordered accumulation.

    Column j of ``src``/``weights`` holds node j's predecessors and weights
    in list order. Shorter lists, and every list of a phase without edges
    (which gets one rank), are padded with the always-zero output row and
    weight 0.0: a sum that starts at +0.0 is never -0.0, so the appended
    +0.0 terms leave it bit-identical.
    """

    nodes: np.ndarray  # node ids
    src: np.ndarray  # rank x node, rows of the output buffer
    weights: np.ndarray  # rank x node x 1


@dataclass(frozen=True)
class CompiledTopology:
    """A topology split for propagation; built once per NetworkTopology.

    Pure sources are entrances without predecessors: they emit their
    feature at round 0 and nothing after. A node whose predecessors are all
    pure sources (every hub of ``build_topology``) emits the positive part
    of one ordered sum in round 1 and nothing after: its later input is
    +0.0, which cannot lift a hidden state that is <= 0 or NaN. Every other
    node iterates for T rounds. Nodes are classified by their predecessor
    lists, never by their id range, so any edge set keeps the scalar
    semantics of the module docstring.
    """

    one_shot: _Phase
    rest: _Phase


# Gathered terms per block of ranks, and state cells (nodes x rows) per
# chunk of rows, in float64 elements: they bound the transient memory.
_BLOCK_TERMS = 1 << 16
_CHUNK_CELLS = 1 << 15


def _phase(topology: NetworkTopology, nodes: list[int]) -> _Phase:
    n = topology.node_count
    nodes = np.array(nodes, dtype=np.int64)
    preds = [topology.predecessors[i] for i in nodes]
    degrees = np.array([p.size for p in preds], dtype=np.int64)
    width = max(1, int(degrees.max(initial=0)))
    src = np.full((nodes.size, width), n, dtype=np.int64)
    weights = np.zeros((nodes.size, width))
    if nodes.size:
        filled = np.arange(width) < degrees[:, None]
        src[filled] = np.concatenate(preds)
        weights[filled] = np.concatenate([topology.weights[i] for i in nodes])
    return _Phase(nodes, src.T.copy(), weights.T[:, :, None].copy())


def compile_topology(topology: NetworkTopology) -> CompiledTopology:
    """The rank tables of ``topology.compiled``."""
    d, n, preds = topology.feature_dim, topology.node_count, topology.predecessors
    pure = np.array([i < d and preds[i].size == 0 for i in range(n)])
    one_shot = [i for i in range(d, n) if pure[preds[i]].all()]
    settled = set(one_shot)
    rest = [i for i in range(n) if not pure[i] and i not in settled]
    return CompiledTopology(_phase(topology, one_shot), _phase(topology, rest))


def _ordered_sum(o: np.ndarray, phase: _Phase) -> np.ndarray:
    """Per node, the weighted outputs of its predecessors summed in list order.

    One row gathers every rank at once, no more terms than the phase's
    weight table holds, and folds the ranks with one ``np.add.accumulate``,
    which adds in rank order: one numpy call in place of one per rank. The
    fold starts at the first term, not at +0.0, so only the sign of a zero
    sum can differ from the loop below; the leading ``0.0 +`` clears it.
    The fold runs strided over rows and loses to the loop as rows grow, so
    only a single row takes it.

    Wider chunks gather ranks in blocks of at most ``_BLOCK_TERMS`` terms
    (a wide batch one rank at a time) and add them into a total that starts
    at +0.0, so the gathered terms stay small. Both gather with ``take``,
    which gives the same array as fancy indexing at a fraction of its cost
    on a few rows.
    """
    if o.shape[1] == 1:
        terms = o.take(phase.src, axis=0)
        terms *= phase.weights
        np.add.accumulate(terms, axis=0, out=terms)
        return 0.0 + terms[-1]
    total = np.zeros((phase.nodes.size, o.shape[1]))
    step = max(1, _BLOCK_TERMS // max(1, total.size))
    for lo in range(0, phase.src.shape[0], step):
        terms = o.take(phase.src[lo : lo + step], axis=0)
        terms *= phase.weights[lo : lo + step]
        for term in terms:
            total += term
    return total


def _run_chunk(
    compiled: CompiledTopology, n: int, X: np.ndarray, T: int, trace: bool = False
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Memory signals (M x rows, node-major) and trace of a chunk of rows."""
    one_shot, rest = compiled.one_shot, compiled.rest
    B, d = X.shape
    for rows in _scopes.get():
        rows[0] += B
    # Outputs of the last round; row n is the always-zero padding row.
    o = np.zeros((n + 1, B))
    o[:d] = X.T
    first = _ordered_sum(o, one_shot)
    first = np.where(first > 0.0, first, 0.0)

    h = np.zeros((rest.nodes.size, B))
    m = np.zeros_like(h)
    rounds: list[RoundTrace] = []
    for t in range(1, T + 1):
        h += _ordered_sum(o, rest)
        active = h > 0.0
        out = np.where(active, h, 0.0)
        h[active] = 0.0
        m += out
        if t == 1:
            o[:d] = 0.0
            o[one_shot.nodes] = first
        elif t == 2:
            o[one_shot.nodes] = 0.0
        o[rest.nodes] = out
        if trace:
            outputs = o[:n, 0].copy()
            rounds.append(RoundTrace(t, np.flatnonzero(outputs > 0.0), outputs))

    # Every node past the entrances is one-shot or rest; o is reused.
    o[one_shot.nodes] = first
    o[rest.nodes] = m
    return o[d:n], rounds


def _run(topology: NetworkTopology, X: np.ndarray, T: int) -> np.ndarray:
    """Propagate a batch; returns the memory-node signals (B x M).

    The one-shot phase runs once, then T rounds over the remaining nodes.
    State is node-major (N x rows), so each rank gathers contiguous rows;
    rows go through in chunks of at most ``_CHUNK_CELLS`` state cells.
    """
    n, B = topology.node_count, X.shape[0]
    step = max(1, _CHUNK_CELLS // (n + 1))
    m = np.empty((B, topology.memory_node_count))
    for lo in range(0, B, step):
        m[lo : lo + step] = _run_chunk(topology.compiled, n, X[lo : lo + step], T)[0].T
    return m


def _check_input(topology: NetworkTopology, x, T: int, single: bool) -> np.ndarray:
    """``x`` as float64 rows: one vector or one row if ``single``, else 2-D."""
    if T < 1:
        raise ConfigError(f"round count T must be >= 1, got {T}")
    X = np.asarray(x, dtype=np.float64)
    if single and X.ndim < 2:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != topology.feature_dim:
        raise DimensionError(
            f"expected feature dimension {topology.feature_dim}, "
            f"got shape {X.shape}"
        )
    if single and X.shape[0] != 1:
        raise DimensionError("expected a single feature vector")
    return X


def propagate(topology: NetworkTopology, x, T: int) -> np.ndarray:
    """Steady memory signals of the hub+bridging nodes for one instance,
    aligned with ``topology.memory_node_ids``."""
    X = _check_input(topology, x, T, single=True)
    return _run(topology, X, T)[0]


def propagate_batch(topology: NetworkTopology, X, T: int) -> np.ndarray:
    """Rowwise propagate; returns a B x (hub+bridging) matrix."""
    X = _check_input(topology, X, T, single=False)
    return _run(topology, X, T)


def propagate_trace(
    topology: NetworkTopology, x, T: int
) -> tuple[np.ndarray, PropagationTrace]:
    """As propagate, also recording per-round activation snapshots."""
    X = _check_input(topology, x, T, single=True)
    m, rounds = _run_chunk(topology.compiled, topology.node_count, X, T, trace=True)
    return m[:, 0], PropagationTrace(rounds)

