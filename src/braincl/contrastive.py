"""Momentum-contrast machinery: the temperature-scaled contrastive loss,
the slowly-trailing key parameters, and the FIFO queue of past keys that
serves as the negative set.

The loss denominator includes the positive term alongside every queue key,
and gradients reach only the query side: keys are stored detached and the
key parameters are updated by exponential trailing, never by gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numcore import Tensor, concat, freeze

__all__ = ["MoCoState", "info_nce", "momentum_update", "queue_push"]

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class MoCoState:
    key_params: dict[str, np.ndarray]
    queue: np.ndarray  # (n_keys, dim), oldest first
    capacity: int = 512
    momentum: float = 0.999
    temperature: float = 0.07

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("queue capacity must be positive")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        q = np.asarray(self.queue, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError("queue must be a (n_keys, dim) array")
        if q.shape[0] > self.capacity:
            raise ValueError("queue longer than its capacity")
        # unit rows are checked where keys enter (queue_push) and where the
        # queue is read (info_nce), not on every replace of the state
        object.__setattr__(self, "queue", q)

    @classmethod
    def fresh(cls, key_params: dict[str, np.ndarray], dim: int, *,
              capacity: int = 512, momentum: float = 0.999,
              temperature: float = 0.07) -> "MoCoState":
        return cls(key_params=key_params, queue=np.zeros((0, dim)), capacity=capacity,
                   momentum=momentum, temperature=temperature)


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
    ``query``; keys are treated as constants.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    q = np.asarray(queue, dtype=np.float64)
    if q.size and q.ndim != 2:
        raise ValueError("queue must be a (n_keys, dim) array")
    if query.ndim not in (1, 2) or key_pos.shape != query.shape:
        raise ValueError(f"query {query.shape} and positive key {key_pos.shape} must be "
                         f"matching (dim,) vectors or (B, dim) batches")
    _check_unit_rows(query.data, "query")
    _check_unit_rows(key_pos.data, "positive key")
    _check_unit_rows(q, "queue")

    key_const = key_pos.detach()
    positive = (query * key_const).sum(axis=-1, keepdims=True)
    if q.size:
        negatives = query @ Tensor(q.T, requires_grad=False)
        similarities = concat([positive, negatives], axis=-1)
    else:
        similarities = positive
    log_p = (similarities / temperature).log_softmax(axis=-1)
    return -log_p[..., 0].mean()


def momentum_update(key_params: dict[str, np.ndarray],
                    query_params: dict[str, np.ndarray],
                    momentum: float) -> dict[str, np.ndarray]:
    """key <- m * key + (1 - m) * query, elementwise; no gradients involved.
    Returns a new frozen parameter dict (see ``numcore.freeze``), so leaf
    Tensors adopt its arrays without a copy."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
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


def queue_push(state: MoCoState, keys: np.ndarray) -> MoCoState:
    """Append keys FIFO, evicting the oldest once capacity is exceeded."""
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim == 1:
        keys = keys[None, :]
    _check_unit_rows(keys, "pushed keys")
    if keys.shape[1] != state.queue.shape[1]:
        raise ValueError(f"key dim {keys.shape[1]} does not match queue "
                         f"dim {state.queue.shape[1]}")
    merged = np.vstack([state.queue, keys]) if state.queue.size else keys.copy()
    if merged.shape[0] > state.capacity:
        merged = merged[merged.shape[0] - state.capacity:]
    return replace(state, queue=merged)
