"""Reference implementations, for tests only.

numcore keeps only the ops braincl runs, so the layer norm and the stack that
the fused nodes and batched forwards are checked against are built here from
those ops. Their gradients come from the ops' own backward rules.

``adam_reference`` is Adam as it was written one parameter at a time, before
``opt_step`` ran it over one flat vector; the two must agree bit for bit.

``replay_view`` builds one augmented view edge by edge with the draws the
``braincl.augment`` docstring lists, so it equals the stacked pass bit for
bit and tells a test which nodes were picked and which way each went.
"""

import numpy as np

from braincl.numcore import OptimState, Tensor, concat
from braincl.numcore.optim import BETA1, BETA2, EPS


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, in the arithmetic ``add_layer_norm``
    uses, so its values equal the fused node's bit for bit."""
    keepdims = x.shape[:-1] + (1,)
    centered = x - x.mean(-1).reshape(keepdims)
    var = (centered * centered).mean(-1).reshape(keepdims)
    return centered * (Tensor(1.0, requires_grad=False) / (var + eps).sqrt())


def stack(tensors) -> Tensor:
    """Same-shape tensors along a new leading axis."""
    return concat([t.reshape((1,) + t.shape) for t in tensors])


def adam_reference(state: OptimState, params: dict, grads: dict,
                   moments: dict) -> dict:
    """One Adam step per parameter; ``moments`` maps "m" and "v" to per-name
    dicts and is updated, as is ``state.step_count``."""
    state.step_count += 1
    t = state.step_count
    updated = {}
    for name in sorted(params):
        p, g = params[name], grads[name]
        m = moments["m"].get(name)
        if m is None:
            m = np.zeros_like(p)
            moments["v"][name] = np.zeros_like(p)
        v = moments["v"][name]
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        moments["m"][name] = m
        moments["v"][name] = v
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        updated[name] = (p - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
                         - state.lr * state.weight_decay * p)
    return updated


def replay_view(m: np.ndarray, cfg, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """One view of the (V, V) matrix ``m`` and the {node: +1 dilate, -1 shrink}
    map of its picked nodes."""
    n = m.shape[0]
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    nodes = set(int(i) for i in rng.choice(n, size=k, replace=False)) if k else set()
    return replay_alteration(m, nodes, cfg, rng)


def replay_alteration(m: np.ndarray, nodes: set, cfg,
                      rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """``replay_view`` for a chosen node set: the direction, increment and
    noise draws, then the arithmetic, one edge at a time."""
    n = m.shape[0]
    direction = {node: (1.0 if rng.random() < 0.5 else -1.0) for node in sorted(nodes)}
    out = m.copy()
    touched = [(u, v) for u in range(n) for v in range(u + 1, n) if u in nodes or v in nodes]
    for (u, v), d in zip(touched, rng.uniform(0.0, cfg.delta_max, len(touched))):
        owner = u if u in nodes else v  # u < v: the lower picked endpoint owns the edge
        new = np.sign(m[u, v]) * np.clip(abs(m[u, v]) + direction[owner] * d, 0.0, 1.0)
        out[u, v] = out[v, u] = new
    if cfg.noise.kind != "none":
        free = [(u, v) for u in range(n) for v in range(u + 1, n)
                if u not in nodes and v not in nodes]
        for (u, v), e in zip(free, cfg.noise.draw(rng, len(free))):
            out[u, v] = out[v, u] = np.clip(m[u, v] + e, -1.0, 1.0)
    return out, direction
