"""Plain SGD and Adam over named parameter dicts.

SGD takes a plain gradient step. Adam uses the standard bias-corrected moment
estimates (``BETA1``, ``BETA2``, ``EPS``) with weight decay applied decoupled
from the moments: the decay term lr·wd·p is subtracted directly rather than
folded into the gradient.

Adam is elementwise, so one step runs over all parameters at once: the
gradients and parameters are concatenated in sorted-name order, the two
moments are one flat vector each (``OptimState.m`` and ``.v``, updated in
place and fixed to the names and shapes of the first step), and the new
parameters are reshaped views of one read-only vector. A step is a fixed
handful of whole-vector numpy calls, whatever the parameter count, in the
same arithmetic order as the per-parameter formula, so it gives the same bits.
SGD stays per parameter: it keeps no state, and concatenating a large model's
parameters would only add two full-size copies per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import freeze

__all__ = ["OptimState", "sgd", "adam", "opt_step"]

Params = dict[str, np.ndarray]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    kind: str  # "sgd" | "adam"
    lr: float
    weight_decay: float = 0.0  # Adam only
    step_count: int = 0
    # Adam's moments, one flat vector each over ``layout``'s (name, shape)
    # pairs in sorted-name order; None until the first step
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    layout: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be non-negative and finite, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, "
                             f"got {self.weight_decay}")


def sgd(lr: float) -> OptimState:
    return OptimState(kind="sgd", lr=lr)


def adam(lr: float, weight_decay: float = 0.0) -> OptimState:
    return OptimState(kind="adam", lr=lr, weight_decay=weight_decay)


def opt_step(state: OptimState, params: Params, grads: Params) -> Params:
    """One update; returns a new read-only parameter dict (see ``freeze``),
    so leaf Tensors adopt its arrays without a copy, and mutates only the state.

    SGD: p ← p − lr·g. Adam: bias-corrected moments with the decay
    term lr·wd·p subtracted separately (decoupled). Adam raises ``ValueError``
    when a step's names or shapes differ from those its moments cover.
    """
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient name mismatch: {sorted(missing)}")
    names = sorted(params)
    for name in names:
        if params[name].shape != grads[name].shape:
            raise ValueError(f"shape mismatch for {name!r}: "
                             f"{params[name].shape} vs {grads[name].shape}")
    if state.kind == "sgd":
        updated: Params = {}
        for name in names:
            step = grads[name] * state.lr
            updated[name] = np.subtract(params[name], step, out=step)
        return freeze(updated)

    layout = tuple((name, params[name].shape) for name in names)
    sizes = [params[name].size for name in names]
    if state.m is None:
        state.m, state.v, state.layout = np.zeros(sum(sizes)), np.zeros(sum(sizes)), layout
    elif layout != state.layout:
        was, now = dict(state.layout), dict(layout)
        differ = sorted(n for n in was.keys() | now.keys() if was.get(n) != now.get(n))
        raise ValueError(f"Adam moments cover other parameters: {differ} differ in "
                         f"name or shape from the first step")
    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v

    # one full-size temporary, a, besides the output vector, new, which is
    # scratch until it takes the parameters: a holds g, then lr·m̂ / (√v̂ + ε),
    # then p minus that; new holds (1 − β2)·g², then √v̂ + ε, then p, then the
    # decay term lr·wd·p, and last the new parameters
    a = np.concatenate([grads[name].ravel() for name in names])
    new = np.multiply(a, a)
    new *= 1.0 - BETA2
    v *= BETA2
    v += new
    a *= 1.0 - BETA1
    m *= BETA1
    m += a
    np.divide(m, 1.0 - BETA1 ** t, out=a)
    a *= state.lr
    np.divide(v, 1.0 - BETA2 ** t, out=new)
    np.sqrt(new, out=new)
    new += EPS
    a /= new
    np.concatenate([params[name].ravel() for name in names], out=new)
    np.subtract(new, a, out=a)
    new *= state.lr * state.weight_decay
    np.subtract(a, new, out=new)
    new.flags.writeable = False
    updated, offset = {}, 0
    for (name, shape), size in zip(layout, sizes):  # slicing is cheaper than np.split
        updated[name] = new[offset:offset + size].reshape(shape)
        offset += size
    return updated
