"""Straight-line reference implementations that the tests judge emn against.

They follow the definitions directly and share no code with the library
paths they check.
"""

import numpy as np

from emn.errors import ConfigError


def reference_propagate(topology, x, T: int) -> np.ndarray:
    """Scalar interpreter of the propagation rules; memory signals of all N
    nodes. Each incoming sum is formed in predecessor-list order, so the
    result must match ``emn.propagation`` bit for bit."""
    n = topology.node_count
    x = list(map(float, x))
    o = [0.0] * n
    for i in range(topology.feature_dim):
        o[i] = x[i]
    h = [0.0] * n
    m = [0.0] * n
    for _ in range(T):
        new_o = [0.0] * n
        new_h = list(h)
        for i in range(n):
            s = 0.0
            for j, w in zip(topology.predecessors[i], topology.weights[i]):
                s = s + o[j] * float(w)
            hi = h[i] + s
            if hi > 0.0:
                new_o[i] = hi
                new_h[i] = 0.0
            else:
                new_o[i] = 0.0
                new_h[i] = hi
        o, h = new_o, new_h
        for i in range(n):
            m[i] = m[i] + o[i]
    return np.array(m)


def fuzzy_likelihood(mu, sigma, sigma1: float, m_hat):
    """Gaussian-blurred class likelihood; bounded above by 0.5. The
    exponential form of ``emn.memory.log_fuzzy_likelihood``."""
    if sigma1 <= 0.0:
        raise ConfigError(f"sigma1 must be positive, got {sigma1}")
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    denom = 2.0 * sigma + sigma1
    q = np.sqrt(sigma1) / (2.0 * np.sqrt(denom)) * np.exp(-((m_hat - mu) ** 2) / denom)
    return q if q.ndim else float(q)
