"""Reference implementations, for tests only.

numcore keeps only the ops braincl runs, so the layer norm and the stack that
the fused nodes and batched forwards are checked against are built here from
those ops. Their gradients come from the ops' own backward rules.

``adam_reference`` is Adam as it was written one parameter at a time, before
``opt_step`` ran it over one flat vector; the two must agree bit for bit.
"""

import numpy as np

from braincl.numcore import OptimState, Tensor, concat


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
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        moments["m"][name] = m
        moments["v"][name] = v
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        updated[name] = (p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
                         - state.lr * state.weight_decay * p)
    return updated
