"""Straight-line reference implementations that the tests judge emn against.

They follow the definitions directly and share no code with the library
paths they check.
"""

import numpy as np

from emn.errors import ConfigError
from emn.memory import CONFIDENCE_FLOOR


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
    exponential form of ``emn.memory.log_likelihood`` with fuzzy on."""
    if sigma1 <= 0.0:
        raise ConfigError(f"sigma1 must be positive, got {sigma1}")
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    denom = 2.0 * sigma + sigma1
    q = np.sqrt(sigma1) / (2.0 * np.sqrt(denom)) * np.exp(-((m_hat - mu) ** 2) / denom)
    return q if q.ndim else float(q)


def softmax(log_values: np.ndarray, axis: int = -1) -> np.ndarray:
    e = log_values - log_values.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def reference_log_likelihoods(store, signals) -> np.ndarray:
    """Rows x nodes x classes class log likelihoods, broadcast over rows."""
    hyper = store.hyper
    mu, sigma = store.mu[None], store.sigma[None]
    m = np.asarray(signals, dtype=np.float64)[:, :, None]
    if hyper.fuzzy_enabled:
        denom = 2.0 * sigma + hyper.sigma1
        return (
            0.5 * np.log(hyper.sigma1)
            - np.log(2.0)
            - 0.5 * np.log(denom)
            - ((m - mu) ** 2) / denom
        )
    sigma = np.maximum(sigma, CONFIDENCE_FLOOR)
    return -0.5 * (np.log(2.0 * np.pi) + np.log(sigma)) - ((m - mu) ** 2) / (
        2.0 * sigma
    )


def reference_node_votes(model, signals):
    """Row-major node votes: softmax, argmax and the picked likelihood over
    the innermost class axis. Returns posteriors, labels and confidences
    as ``emn.inference.batch_node_votes`` must return them bit for bit."""
    log_lik = reference_log_likelihoods(model.store, signals)
    posteriors = softmax(log_lik, axis=2)
    labels = np.argmax(posteriors, axis=2)
    picked = np.take_along_axis(log_lik, labels[:, :, None], axis=2)[:, :, 0]
    confidences = np.maximum(np.exp(picked), CONFIDENCE_FLOOR)
    if not model.hyper.confidence_enabled:
        confidences = np.ones_like(confidences)
    return posteriors, labels, confidences


def reference_fused_posteriors(model, signals) -> np.ndarray:
    """Confidence-weighted mean of the node posteriors of every row."""
    posteriors, _, confidences = reference_node_votes(model, signals)
    weights = confidences / confidences.sum(axis=1, keepdims=True)
    return np.einsum("bn,bnc->bc", weights, posteriors)


def _reference_ema(store, k, rows, weights, divisor) -> None:
    """Class k's EMA step: mu toward the weighted mean of ``rows``, then
    sigma toward their weighted mean absolute deviation about the new mu;
    a node whose divisor is 0 stays untouched."""
    beta = store.hyper.beta
    touch = divisor > 0.0
    safe_div = np.where(touch, divisor, 1.0)
    init = store.initialized[:, k]
    mean = (weights * rows).sum(axis=0) / safe_div
    mu = np.where(init, beta * store.mu[:, k] + (1.0 - beta) * mean, mean)
    mad = (weights * np.abs(rows - mu)).sum(axis=0) / safe_div
    sigma = np.where(init, beta * store.sigma[:, k] + (1.0 - beta) * mad, mad)
    store.mu[:, k] = np.where(touch, mu, store.mu[:, k])
    store.sigma[:, k] = np.where(touch, sigma, store.sigma[:, k])
    store.initialized[:, k] |= touch


def reference_supervised_update(store, signals, labels) -> None:
    """One class at a time: each row of its class weighs 1."""
    for k in np.unique(labels):
        rows = signals[labels == k]  # B_k x nodes, in batch order
        _reference_ema(store, k, rows, 1.0, float(rows.shape[0]))


def reference_reinforced_update(store, signals, labels) -> None:
    """One pseudo class at a time: each row weighs its likelihood under the
    class (1 with confidence off), divided per the store's batch divisor."""
    hyper = store.hyper
    for k in np.unique(labels):
        rows = signals[labels == k]
        if hyper.confidence_enabled:
            e = np.exp(reference_log_likelihoods(store, rows)[:, :, k])
        else:
            e = np.ones_like(rows)
        if hyper.batch_divisor == "confidence":
            divisor = e.sum(axis=0)
        elif hyper.batch_divisor == "batch":
            divisor = float(signals.shape[0])
        else:
            divisor = float(rows.shape[0])
        _reference_ema(store, k, rows, e, divisor)


def reference_read_csv(text: str):
    """The CSV dataset grammar with ``float()`` and ``int()`` per field:
    ``(features, labels)`` (labels None without a label column), or the
    1-based number of the first bad line. ``float()`` also reads ``_``
    separators and non-ASCII digits, which ``emn.dataio.read_csv`` refuses."""
    lines = text.splitlines()
    header = lines[0].split(",")
    has_label = header[-1] == "label"
    dim = len(header) - has_label
    features, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != len(header):
                raise ValueError("ragged")
            features.append([float(v) for v in fields[:dim]])
            if has_label:
                labels.append(int(fields[dim]))
                if not -(2**63) <= labels[-1] < 2**63:
                    raise ValueError("beyond int64")
        except ValueError:
            return lineno
    return features, labels if has_label else None
