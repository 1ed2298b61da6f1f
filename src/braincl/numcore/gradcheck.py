"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .tensor import GraphError, Tensor, backward

__all__ = ["gradcheck", "directional_gradcheck"]


def gradcheck(fn: Callable[[Tensor], Tensor], x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must map a tensor to a scalar tensor and be deterministic. Each
    coordinate i is perturbed by ±eps and the central difference
    (f(x+eps·e_i) − f(x−eps·e_i)) / (2·eps) is compared with the analytic
    gradient using |a−n| / max(1e-8, |a|+|n|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = np.asarray(x, dtype=np.float64)

    leaf = Tensor(base)
    out = fn(leaf)
    if out.data.size != 1:
        raise GraphError(f"gradcheck needs a scalar-valued fn, got shape {out.shape}")
    analytic = backward(out, wrt=[leaf])[leaf].ravel()

    flat = base.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        f_plus = fn(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] = flat[i] - eps
        f_minus = fn(Tensor(bumped.reshape(base.shape))).item()
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise GraphError("fn returned a non-finite value during gradcheck")
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def directional_gradcheck(fn: Callable[[dict[str, Tensor]], Tensor],
                          arrays: dict[str, np.ndarray],
                          rng: np.random.Generator,
                          eps: float = 1e-5) -> float:
    """Relative error of ⟨grad, d⟩ against a central difference along one
    random direction d over a whole parameter set.

    Cheap complement to coordinate-wise gradcheck: two extra evaluations
    validate every parameter gradient jointly.
    """
    names = sorted(arrays)
    direction = {k: rng.standard_normal(arrays[k].shape) for k in names}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}

    leaves = {k: Tensor(arrays[k]) for k in names}
    out = fn(leaves)
    grads = backward(out, wrt=list(leaves.values()))
    analytic = sum(float((grads[leaves[k]] * direction[k]).sum()) for k in names)

    def shifted(sign: float) -> float:
        moved = {k: Tensor(arrays[k] + sign * eps * direction[k]) for k in names}
        return fn(moved).item()

    numeric = (shifted(+1.0) - shifted(-1.0)) / (2.0 * eps)
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
