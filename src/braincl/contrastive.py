"""Momentum-contrast machinery: the temperature-scaled contrastive loss,
the slowly-trailing key parameters, and the FIFO queue of past keys that
serves as the negative set.

The key parameters (a parameter dict) and the queue (an (n_keys, dim)
array, oldest first) are plain values that the pretraining loop holds; each
function here takes its setting (temperature, momentum, queue capacity) as
an argument and checks it. The loss denominator includes the positive term
alongside every queue key, and gradients reach only the query side: keys
enter the loss as arrays and the key parameters are updated by exponential
trailing, never by gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .numcore import Tensor, contrastive_logits, freeze, mean_nll

__all__ = ["info_nce", "momentum_update", "queue_push"]

UNIT_NORM_TOL = 1e-6


def _check_unit_rows(rows: np.ndarray, what: str) -> None:
    if rows.size == 0:
        return
    norms = np.linalg.norm(rows, axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    if not worst <= UNIT_NORM_TOL:  # a NaN norm is a violation too
        raise ValueError(f"{what} contains non-unit vectors (worst deviation {worst:.2e})")


def info_nce(query: Tensor, key_pos: Tensor, queue: np.ndarray, temperature: float) -> Tensor:
    """Contrastive loss of each query against its positive key and the queue.

    loss = -log e^(s+/t) / (e^(s+/t) + sum_k e^(sk/t)) with cosine
    similarities; since all inputs are unit vectors the cosines are plain
    dot products. ``query`` and ``key_pos`` are one (dim,) vector each or a
    (B, dim) batch of rows, and the loss is the mean over the batch. With an
    empty queue the ratio is 1 and the loss 0. Gradients flow only into
    ``query``: the scaled similarities are numcore's ``contrastive_logits``
    node, whose keys are arrays, and the loss its ``mean_nll`` at the
    positive, column 0.
    """
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    q = np.asarray(queue, dtype=np.float64)
    if q.size and q.ndim != 2:
        raise ValueError("queue must be a (n_keys, dim) array")
    if query.ndim not in (1, 2) or key_pos.shape != query.shape:
        raise ValueError(f"query {query.shape} and positive key {key_pos.shape} must be "
                         f"matching (dim,) vectors or (B, dim) batches")
    _check_unit_rows(query.data, "query")
    _check_unit_rows(key_pos.data, "positive key")
    _check_unit_rows(q, "queue")

    logits = contrastive_logits(query, key_pos.data, q, temperature)
    return mean_nll(logits, np.zeros(query.shape[:-1], dtype=np.intp))


def momentum_update(key_params: dict[str, np.ndarray],
                    query_params: dict[str, np.ndarray],
                    momentum: float) -> dict[str, np.ndarray]:
    """key <- m * key + (1 - m) * query, elementwise; no gradients involved.
    Returns a new frozen parameter dict (see ``numcore.freeze``), so leaf
    Tensors adopt its arrays without a copy."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    if set(key_params) != set(query_params):
        raise ValueError("key and query parameter names differ")
    out: dict[str, np.ndarray] = {}
    for name in key_params:
        k, q = key_params[name], query_params[name]
        if k.shape != q.shape:
            raise ValueError(f"shape mismatch for {name!r}: {k.shape} vs {q.shape}")
        trailed = k * momentum
        trailed += q * (1.0 - momentum)
        out[name] = trailed
    return freeze(out)


def queue_push(queue: np.ndarray, keys: np.ndarray, capacity: int) -> np.ndarray:
    """The (n_keys, dim) queue with ``keys`` appended FIFO, the oldest evicted
    once it holds more than ``capacity`` rows; ``queue`` is left as it is."""
    if capacity < 1:
        raise ValueError(f"queue capacity must be positive, got {capacity}")
    queue = np.asarray(queue, dtype=np.float64)
    if queue.ndim != 2:
        raise ValueError("queue must be a (n_keys, dim) array")
    if queue.shape[0] > capacity:
        raise ValueError(f"queue of {queue.shape[0]} keys is longer than its capacity {capacity}")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim == 1:
        keys = keys[None, :]
    _check_unit_rows(keys, "pushed keys")
    if keys.shape[1] != queue.shape[1]:
        raise ValueError(f"key dim {keys.shape[1]} does not match queue "
                         f"dim {queue.shape[1]}")
    merged = np.vstack([queue, keys]) if queue.size else keys.copy()
    return merged[-capacity:]  # capacity >= 1, so this keeps the newest rows
