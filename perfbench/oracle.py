"""Scalar interpreter of emn's propagation rules, for output checks.

It restates the rules from the propagation module's documentation one node
and one edge at a time, in plain Python floats:

- entrance node i emits x[i] at round 0 and nothing after;
- each round, a node's incoming sum starts at 0.0 and adds
  output[pred] * weight in predecessor-list order; the sum is then added to
  the node's hidden state;
- a node whose hidden state is strictly positive emits it and resets to 0.0,
  otherwise it emits 0.0 and keeps the state;
- a node's memory signal is the sum of what it emitted over T rounds.

The vectorised engine must match it bit for bit (`np.array_equal`).
"""

from __future__ import annotations

import numpy as np


def memory_signals(topology, x, rounds: int) -> np.ndarray:
    """Memory signals of the hub and bridging nodes for one feature row."""
    n = topology.node_count
    d = topology.feature_dim
    edges = [
        list(zip(p.tolist(), w.tolist()))
        for p, w in zip(topology.predecessors, topology.weights)
    ]
    out = [float(v) for v in x] + [0.0] * (n - d)
    hidden = [0.0] * n
    memory = [0.0] * n
    for _ in range(rounds):
        emitted = [0.0] * n
        for node in range(n):
            incoming = 0.0
            for pred, weight in edges[node]:
                incoming = incoming + out[pred] * weight
            state = hidden[node] + incoming
            if state > 0.0:
                emitted[node] = state
                hidden[node] = 0.0
            else:
                hidden[node] = state
        out = emitted
        for node in range(n):
            memory[node] = memory[node] + out[node]
    return np.array(memory[d:])
