"""Reference implementations, for tests only.

numcore keeps only the graph and the fused nodes braincl runs, so the
elementary nodes those fused nodes and the batched forwards are checked
against are built here with the ``Tensor`` constructor's ``vjp``, under the
core's floating-point error state: add, subtract, multiply and divide with
numpy broadcasting, negate, transpose, reshape, a batched matmul, indexing,
sum, mean, sqrt, softmax, log-softmax, concat, leaky ReLU and add-and-norm.
Each makes the numpy calls the core's op of the same name made before the
fused nodes replaced it. ``linear`` then ``leaky_relu`` gives the values and
gradients of ``linear`` with a slope bit for bit, and ``linear`` then
``add_layer_norm`` those of ``linear_add_layer_norm``. Of the compositions,
``layer_norm`` gives ``add_layer_norm``'s values bit for bit, and
``readout_reference``, ``unit_rows_reference``,
``contrastive_logits_reference`` and ``mean_nll_reference`` the values and
gradients of the ``readout``, ``unit_rows``, ``contrastive_logits`` and
``mean_nll`` nodes.

``adam_reference`` is Adam as it was written one parameter at a time, before
``opt_step`` ran it over one flat vector; the two must agree bit for bit.

``replay_view`` builds one augmented view edge by edge with the draws the
``braincl.augment`` docstring lists, so it equals the stacked pass bit for
bit and tells a test which nodes were picked and which way each went.

``relabel_nodes`` permutes the one node-indexed parameter axis, which the
permutation-equivariance test of the encoder needs.

``confusion_metrics`` counts true and false positives and negatives at 0.5
and forms the three rates from the counts, as ``braincl.metrics`` did before
``summarize_scores`` formed them itself; the rates must agree bit for bit.
"""

import numpy as np

from braincl.numcore import GraphError, OptimState, Tensor
from braincl.numcore.optim import BETA1, BETA2, EPS
from braincl.numcore.tensor import _quiet


def _tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value, requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _broadcasting(name, fwd, vjp_a, vjp_b):
    @_quiet
    def op(a, b) -> Tensor:
        a, b = _tensor(a), _tensor(b)
        sa, sb = a.shape, b.shape
        try:
            np.broadcast_shapes(sa, sb)
        except ValueError:
            raise GraphError(f"{name} shape mismatch {sa} vs {sb}") from None
        ad, bd = a.data, b.data

        def vjp(g, needed):
            yield _unbroadcast(vjp_a(ad, bd, g), sa) if needed[0] else None
            yield _unbroadcast(vjp_b(ad, bd, g), sb) if needed[1] else None

        return Tensor(fwd(ad, bd), op=name, parents=(a, b), vjp=vjp)
    return op


add = _broadcasting("add", np.add, lambda a, b, g: g, lambda a, b, g: g)
sub = _broadcasting("sub", np.subtract, lambda a, b, g: g, lambda a, b, g: -g)
mul = _broadcasting("mul", np.multiply, lambda a, b, g: g * b, lambda a, b, g: g * a)
div = _broadcasting("div", np.divide, lambda a, b, g: g / b,
                    lambda a, b, g: -g * a / (b * b))


def neg(x: Tensor) -> Tensor:
    return Tensor(-x.data, op="neg", parents=(x,), vjp=lambda g, _: (-g,))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes (a batch of matrices transposes each one)."""
    return Tensor(np.swapaxes(x.data, -1, -2), op="transpose", parents=(x,),
                  vjp=lambda g, _: (np.swapaxes(g, -1, -2),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.shape
    return Tensor(x.data.reshape(shape), op="reshape", parents=(x,),
                  vjp=lambda g, _: (g.reshape(old),))


@_quiet
def matmul(a, b) -> Tensor:
    """``a @ b`` for vectors, matrices and (B, n, m) stacks of matrices,
    broadcast as numpy does."""
    a, b = _tensor(a), _tensor(b)
    ad, bd = a.data, b.data
    try:
        out = ad @ bd
    except ValueError as exc:
        raise GraphError(f"matmul shape mismatch {ad.shape} @ {bd.shape}") from exc
    a2 = ad[None, :] if ad.ndim == 1 else ad
    b2 = bd[:, None] if bd.ndim == 1 else bd

    def vjp(g, needed):
        g = np.expand_dims(g, -2) if ad.ndim == 1 else g  # g in the shape of a2 @ b2
        g = g[..., None] if bd.ndim == 1 else g
        yield (_unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(ad.shape)
               if needed[0] else None)
        yield (_unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(bd.shape)
               if needed[1] else None)

    return Tensor(out, op="matmul", parents=(a, b), vjp=vjp)


def index(x: Tensor, idx) -> Tensor:
    """``x[idx]``; the gradient scatters back, adding where indices repeat."""
    shape = x.shape

    def vjp(g, _):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(x.data[idx], op="getitem", parents=(x,), vjp=vjp)


@_quiet
def total(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """The sum of ``x``, over ``axis`` or over everything."""
    shape = x.shape

    def vjp(g, _):
        if axis is None or keepdims:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), op="sum", parents=(x,), vjp=vjp)


def weighted_sum(x: Tensor, weights) -> Tensor:
    """sum(x * weights): a scalar loss that reads every entry of ``x``."""
    return total(mul(x, weights))


@_quiet
def mean(x: Tensor, axis: int | None = None) -> Tensor:
    shape = x.shape
    n = x.data.size if axis is None else shape[axis]

    def vjp(g, _):
        if axis is None:
            return (np.broadcast_to(g / n, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape),)

    return Tensor(x.data.mean(axis=axis), op="mean", parents=(x,), vjp=vjp)


@_quiet
def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return Tensor(out, op="sqrt", parents=(x,), vjp=lambda g, _: (g * 0.5 / out,))


@_quiet
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    out = x.data.copy()  # shifted by the max so exp() stays in range, in place
    out -= out.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return Tensor(out, op="softmax", parents=(x,),
                  vjp=lambda g, _: (out * (g - (g * out).sum(axis=axis, keepdims=True)),))


@_quiet
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    return Tensor(out, op="log_softmax", parents=(x,),
                  vjp=lambda g, _: (g - np.exp(out) * g.sum(axis=axis, keepdims=True),))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradients slice back to each input."""
    tensors = [_tensor(t) for t in tensors]
    if not tensors:
        raise GraphError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g, needed):
        return (part if need else None
                for part, need in zip(np.split(g, offsets, axis=axis), needed))

    return Tensor(out, op="concat", parents=tuple(tensors), vjp=vjp)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """max(x, slope * x) for a slope in [0, 1]; the backward keeps a boolean
    mask and multiplies by the slope it picks."""
    if not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"negative_slope must lie in [0, 1], got {negative_slope}")
    positive = x.data > 0
    slopes = np.array([negative_slope, 1.0])
    out = x.data * negative_slope
    return Tensor(np.maximum(x.data, out, out=out), op="leaky_relu", parents=(x,),
                  vjp=lambda g, _: (g * slopes.take(positive),))


@_quiet
def add_layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """``layer_norm(x + residual) * gain + bias`` over the last axis as one
    node that keeps the normalized sum and 1 / std; its backward hands the
    same array to both summands."""
    x, residual, gain, bias = (_tensor(t) for t in (x, residual, gain, bias))
    if (x.ndim == 0 or residual.shape != x.shape or gain.shape != x.shape[-1:]
            or bias.shape != gain.shape):
        raise GraphError(f"add_layer_norm shape mismatch: x {x.shape}, residual "
                         f"{residual.shape}, gain {gain.shape}, bias {bias.shape}")
    normed = x.data + residual.data  # centered, then scaled, in place
    normed -= normed.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + eps)
    normed *= inv
    gd = gain.data
    out = normed * gd
    out += bias.data

    def vjp(g, needed):
        if needed[0] or needed[1]:
            gn = g * gd
            d_sum = gn - gn.mean(axis=-1, keepdims=True)
            d_sum -= normed * (gn * normed).mean(axis=-1, keepdims=True)
            d_sum *= inv
        yield d_sum if needed[0] else None
        yield d_sum if needed[1] else None
        yield _unbroadcast(g * normed, gd.shape) if needed[2] else None
        yield _unbroadcast(g, gd.shape) if needed[3] else None

    return Tensor(out, op="add_layer_norm", parents=(x, residual, gain, bias), vjp=vjp)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, in the arithmetic ``add_layer_norm``
    uses, so its values equal the fused node's bit for bit."""
    keepdims = x.shape[:-1] + (1,)
    centered = sub(x, reshape(mean(x, -1), keepdims))
    var = reshape(mean(mul(centered, centered), -1), keepdims)
    return mul(centered, div(1.0, sqrt(add(var, eps))))


def stack(tensors) -> Tensor:
    """Same-shape tensors along a new leading axis."""
    return concat([reshape(t, (1,) + t.shape) for t in tensors])


def readout_reference(z: Tensor, centers: Tensor, w_out: Tensor) -> Tensor:
    """The clustering readout as the graph of elementary nodes the fused
    ``readout`` replaced: assign, pool, project, flatten."""
    assignments = softmax(matmul(z, transpose(centers)), axis=-1)
    pooled = matmul(matmul(transpose(assignments), z), w_out)
    return reshape(pooled, pooled.shape[:-2] + (-1,))


def unit_rows_reference(x: Tensor) -> Tensor:
    """Each row over its norm, as the elementary nodes ``unit_rows``
    replaced: x / sqrt(sum(x * x))."""
    return div(x, sqrt(total(mul(x, x), axis=-1, keepdims=True)))


def contrastive_logits_reference(query: Tensor, keys, queue, temperature) -> Tensor:
    """InfoNCE's [q . k+ | q queue^T] / T as the elementary nodes
    ``contrastive_logits`` replaced; the keys enter as constants."""
    queue = np.asarray(queue, dtype=np.float64)
    similarities = total(mul(query, Tensor(keys, requires_grad=False)), axis=-1, keepdims=True)
    if queue.size:
        negatives = matmul(query, Tensor(queue.T, requires_grad=False))
        similarities = concat([similarities, negatives], axis=-1)
    return div(similarities, temperature)


def mean_nll_reference(logits: Tensor, labels) -> Tensor:
    """-mean(log_softmax(logits)[labels]) as the elementary nodes
    ``mean_nll`` replaced."""
    labels = np.asarray(labels)
    picked = index(log_softmax(logits, axis=-1),
                   (*np.indices(labels.shape), labels.astype(np.intp)))
    return neg(mean(picked))


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


def relabel_nodes(arrays: dict[str, np.ndarray], perm: np.ndarray) -> dict[str, np.ndarray]:
    """Apply a node permutation to every node-indexed parameter axis.

    Only the embedding's input axis is node-indexed; everything downstream
    operates on abstract embedding coordinates. Relabeling the data as
    C[perm][:, perm] together with this map permutes encoder output rows by
    ``perm``.
    """
    return {**arrays, "embed.w": arrays["embed.w"][perm]}


def confusion_metrics(s) -> dict:
    """Accuracy, sensitivity, specificity and the four counts of a two-class
    ScoredSet, a sample predicted positive iff its score is >= 0.5."""
    predicted = s.scores >= 0.5
    actual = s.labels == 1
    tp = int((predicted & actual).sum())
    tn = int((~predicted & ~actual).sum())
    fp = int((predicted & ~actual).sum())
    fn = int((~predicted & actual).sum())
    return {"accuracy": (tp + tn) / s.scores.size,
            "sensitivity": tp / (tp + fn), "specificity": tn / (tn + fp),
            "tp": tp, "tn": tn, "fp": fp, "fn": fn}
