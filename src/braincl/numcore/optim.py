"""Plain SGD and Adam over named parameter dicts.

Adam uses the standard bias-corrected moment estimates (β1=0.9, β2=0.999,
ε=1e-8) with weight decay applied decoupled from the moments: the decay term
lr·wd·p is subtracted directly rather than folded into the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import freeze

__all__ = ["OptimState", "sgd", "adam", "opt_step"]

Params = dict[str, np.ndarray]


@dataclass
class OptimState:
    kind: str  # "sgd" | "adam"
    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")


def sgd(lr: float, weight_decay: float = 0.0) -> OptimState:
    return OptimState(kind="sgd", lr=lr, weight_decay=weight_decay)


def adam(lr: float, weight_decay: float = 0.0) -> OptimState:
    return OptimState(kind="adam", lr=lr, weight_decay=weight_decay)


def opt_step(state: OptimState, params: Params, grads: Params) -> Params:
    """One update; returns a new frozen parameter dict (see ``freeze``), so
    leaf Tensors adopt its arrays without a copy, and mutates only the state.

    SGD: p ← p − lr·(g + wd·p). Adam: bias-corrected moments with the decay
    term lr·wd·p subtracted separately (decoupled).
    """
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient name mismatch: {sorted(missing)}")
    updated: Params = {}
    if state.kind == "sgd":
        for name in sorted(params):
            p, g = params[name], grads[name]
            if p.shape != g.shape:
                raise ValueError(f"shape mismatch for {name!r}: {p.shape} vs {g.shape}")
            updated[name] = p - state.lr * (g + state.weight_decay * p)
        return freeze(updated)

    state.step_count += 1
    t = state.step_count
    for name in sorted(params):
        p, g = params[name], grads[name]
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch for {name!r}: {p.shape} vs {g.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        if m.shape != p.shape:
            raise ValueError(f"moment shape mismatch for {name!r}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        updated[name] = (p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
                         - state.lr * state.weight_decay * p)
    return freeze(updated)
