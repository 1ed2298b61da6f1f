"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its parents and one backward rule, a vector-Jacobian
product ``vjp(g, needed)`` that maps the output's gradient ``g`` to one
gradient per parent, in order, ``None`` where ``needed`` says that parent
requires none. A node with several parents yields them one at a time, after
any work they share, so ``backward`` adds each into place and frees it before
the next is formed. A parent's first gradient becomes its accumulator without
a copy when it is an array the vjp made for that parent alone (not ``g``, a
view, or an array it already handed out), so a vjp must not read an array
again once it has yielded it.

A Tensor's values never change after construction, and one graph serves one
``backward``, which spends it: each node it visits drops its parents and vjp
once its gradients are out, so the activations its vjp saved are freed while
the walk goes on, and a later ``backward`` that reaches a spent node raises
``GraphError``. Within that graph, sharing subgraphs (e.g. one orthonormalized
center matrix feeding every sample in a batch) is safe and gradients simply
accumulate where paths merge; leaves are never spent and serve any number of
graphs. A node requires a gradient iff one of its parents does; an operation
none of whose inputs requires a gradient records nothing, so inference and
the key encoder hold no graph. Every Tensor takes the next creation index,
and its parents already exist, so ``backward`` needs no topological sort: it
gathers the nodes reachable from the loss, visits them newest first, and
returns plain read-only arrays.

Ops whose arithmetic can overflow, ``backward`` included, run with numpy's
floating-point warnings off; a finite check reports the result once, as
``NonFiniteError``.

Scope is deliberately small: float64 arrays of up to 3 dimensions, where the
leading axis of a 3-D array is a batch. A Tensor has no ops of its own
besides ``shape``, ``ndim`` and ``item``; the ops are exactly the seven
fused nodes braincl runs, each with its backward written out, so a training
step keeps a handful of outputs instead of one per elementary op and no
array that no backward reads: ``linear`` (with an optional leaky ReLU that
keeps only a boolean mask), ``attention``, ``linear_add_layer_norm`` (a
residual branch's last map, the residual add and the post-norm) and
``readout`` for the model, ``unit_rows`` for the projection's normalization,
and ``contrastive_logits`` and ``mean_nll`` for the InfoNCE and
cross-entropy losses. ``backward`` returns gradients only for the tensors it
is asked for. Other compositions (the tests' references) make their own
nodes with the Tensor constructor's ``vjp``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "GraphError",
    "NonFiniteError",
    "backward",
    "linear",
    "attention",
    "linear_add_layer_norm",
    "readout",
    "unit_rows",
    "contrastive_logits",
    "mean_nll",
    "freeze",
]


class GraphError(ValueError):
    """Raised for structural problems: non-scalar loss, bad shapes, a parent
    newer than its child, which only an edited ``.parents`` makes, or a
    ``backward`` that reaches a node an earlier ``backward`` spent."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation would produce NaN or Inf values."""


MAX_RANK = 3
LAYER_NORM_EPS = 1e-5  # added to the variance in linear_add_layer_norm

_created = itertools.count()  # creation index of every Tensor, in order


def _frozen(values) -> bool:
    """A read-only float64 array that owns its data, or a read-only view of
    one (as Adam's parameters are of its one output vector): nobody can write
    to it."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        return False
    base = values.base
    return base is None or (isinstance(base, np.ndarray) and base.base is None
                            and not base.flags.writeable)


def freeze(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Mark each array, which must own its data, read-only and return the
    dict. Every parameter dict is made through this, or (Adam's) as views of
    one read-only vector that owns its data, so leaf Tensors adopt its arrays
    without a copy and a new dict may share them with an old one."""
    for arr in arrays.values():
        arr.flags.writeable = False
    return arrays


def _quiet(op):
    """Run ``op`` with numpy's floating-point warnings off, so an overflow or
    a 0/0 reaches a finite check (the Tensor constructor's, or ``backward``'s
    on its results) and is reported once, as ``NonFiniteError``. Ops whose
    arithmetic cannot leave the finite range run bare."""
    @functools.wraps(op)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return op(*args, **kwargs)
    return run


def _as_array(values, copy: bool) -> np.ndarray:
    arr = np.array(values, dtype=np.float64) if copy else np.asarray(values, dtype=np.float64)
    if arr.ndim > MAX_RANK:
        raise GraphError(f"tensors are limited to {MAX_RANK} dimensions, got shape {arr.shape}")
    return arr


class Tensor:
    """A node in the computation graph.

    Leaves are created directly (``Tensor([1., 2.])``) from a copy of the
    values, or from the array itself when it is a read-only float64 array
    that owns its data or views a read-only one that does, and
    ``requires_grad`` is theirs to set. Interior nodes are created by
    operations: they require a gradient iff a parent does, whatever flag is
    passed, and carry one ``vjp(g, needed)`` that returns or yields a gradient
    per parent (``None`` where ``needed`` is false); a node that requires none
    keeps no parents and no vjp, and neither does one that ``backward`` has
    spent. ``data`` is read-only; build a new Tensor instead of mutating.
    """

    __slots__ = ("data", "op", "parents", "_vjp", "requires_grad", "_index", "__weakref__")

    def __init__(self, values, requires_grad: bool = True, *, op: str = "leaf",
                 parents: tuple["Tensor", ...] = (),
                 vjp: Callable[[np.ndarray, tuple[bool, ...]], Iterable] | None = None):
        # op results are fresh arrays; a leaf copies what its caller could still write
        data = _as_array(values, copy=op == "leaf" and not _frozen(values))
        if not np.isfinite(data).all():
            raise NonFiniteError(f"non-finite values in '{op}' result")
        data.flags.writeable = False
        self.data = data
        self.op = op
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.parents = parents if requires_grad else ()
        self._vjp = vjp if requires_grad else None
        self.requires_grad = requires_grad
        self._index = next(_created)  # parents are always older than their child

    # ------------------------------------------------------------------
    # basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def _spent(g, needed):
    """The vjp of a node that ``backward`` has spent."""
    raise GraphError("this node was spent by an earlier backward")


def _softmax_in_place(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` written over ``x``; the max subtraction keeps exp() in range.

    ``attention`` runs it down axis 0 of its keys-first scores; ``readout``
    and finetuning's scoring run it along the last axis."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _affine_vjp(g2: np.ndarray, x2: np.ndarray, wd: np.ndarray, x_shape: tuple[int, ...],
                needed) -> Iterable:
    """The gradients of ``x2 @ wd + b`` for the (rows, m) output gradient
    ``g2``: that of x in ``x_shape``, written into an array of its own, which
    backward adopts, then those of w and b."""
    gx = None
    if needed[0]:
        gx = np.empty(x_shape)
        np.matmul(g2, wd.T, out=gx.reshape(-1, wd.shape[0]))
    yield gx
    yield x2.T @ g2 if needed[1] else None
    yield g2.sum(axis=0) if needed[2] else None


def _affine_inputs(x: Tensor, w: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``x``'s values as (rows, n) for ``x @ w + b``; a GraphError unless
    ``w`` is (n, m) and ``b`` (m,)."""
    if (x.ndim == 0 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise GraphError(f"{op} shape mismatch {x.shape} @ {w.shape} + {b.shape}")
    return x.data.reshape(-1, w.shape[0])


@_quiet
def linear(x: Tensor, w: Tensor, b: Tensor, negative_slope: float | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` as one node; with a
    ``negative_slope`` in [0, 1], its leaky ReLU.

    The leading axes of ``x`` are flattened first, so a (B, V, n) batch is
    one (B*V, n) @ (n, m) product rather than B stacked ones. The leaky ReLU
    is max(y, slope * y), bit for bit y * (1 if y > 0 else slope), taken in
    place over the affine map, which is not kept: the backward keeps only a
    boolean mask and multiplies by the slope it picks (a gather, cheaper than
    np.where).
    """
    if negative_slope is not None and not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"negative_slope must lie in [0, 1], got {negative_slope}")
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    x2, wd = _affine_inputs(x, w, b, "linear"), w.data
    shape, m = x.shape, wd.shape[1]
    out = x2 @ wd
    out += b.data
    if negative_slope is not None:
        positive = out > 0
        slopes = np.array([negative_slope, 1.0])
        np.maximum(out, out * negative_slope, out=out)

    def vjp(g, needed):
        g2 = g.reshape(-1, m)
        if negative_slope is not None:
            g2 = g2 * slopes.take(positive)
        return _affine_vjp(g2, x2, wd, shape, needed)

    return Tensor(out.reshape(shape[:-1] + (m,)), op="linear", parents=(x, w, b), vjp=vjp)


@_quiet
def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, all heads in one node.

    ``q``, ``k`` and ``v`` are (V, d) or (B, V, d); head h reads columns
    h*d/heads to (h+1)*d/heads of each and writes the same columns of the
    output, softmax(scale * q_h k_h^T) v_h with scale = 1 / sqrt(d / heads).
    The scores are written keys first, (V_keys, ..., heads, V_queries), so
    the softmax's max, subtraction, sum and division run down the contiguous
    rows of one (V, B * heads * V) array rather than along a V-wide last
    axis, and each query's column is reduced on its own, as it would be
    without the rest of its batch. Besides its output O the node keeps only
    the softmax probabilities P, in that layout; its backward forms
    dS = P * (dP - rowsum(dO * O)) in the same layout, once for the q and k
    gradients (FlashAttention, Dao et al. 2022, arXiv:2205.14135, Alg. 2
    without the tiling; rowsum(dO * O) equals rowsum(dP * P) at a fraction
    of the size).
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim not in (2, 3) or k.shape != q.shape or v.shape != q.shape:
        raise GraphError(f"attention needs equal (V, d) or (B, V, d) inputs, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or q.shape[-1] % heads:
        raise GraphError(f"width {q.shape[-1]} does not split into {heads} heads")
    shape = q.shape
    scale = 1.0 / math.sqrt(shape[-1] // heads)

    def split(a):  # (..., V, d) -> (..., heads, V, d / heads)
        return np.swapaxes(a.reshape(shape[:-1] + (heads, -1)), -2, -3)

    def merged(a, b):  # a @ b per head, written into the heads' columns of one array
        result = np.empty(shape)
        np.matmul(a, b, out=split(result))
        return result

    def keys_first(a, b):  # a @ b per head, (..., heads, V, V), stored (V, ..., heads, V)
        result = np.empty(shape[-2:-1] + shape[:-2] + (heads, shape[-2]))
        np.matmul(a, b, out=np.moveaxis(result, 0, -2))
        return result

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the softmax over keys, in place on the keys-first scores
    p = keys_first(kh, np.swapaxes(qh, -1, -2))
    p *= scale
    _softmax_in_place(p, axis=0)
    out = merged(np.moveaxis(p, 0, -1), vh)

    def vjp(g, needed):
        gh = split(g)
        if needed[0] or needed[1]:
            ds = keys_first(vh, np.swapaxes(gh, -1, -2))  # dP, turned into dS in place
            ds -= (gh * split(out)).sum(axis=-1)
            ds *= p
            ds *= scale
        yield merged(np.moveaxis(ds, 0, -1), kh) if needed[0] else None
        yield merged(np.moveaxis(ds, 0, -2), qh) if needed[1] else None
        yield merged(np.moveaxis(p, 0, -2), gh) if needed[2] else None

    return Tensor(out, op="attention", parents=(q, k, v), vjp=vjp)


@_quiet
def linear_add_layer_norm(x: Tensor, h: Tensor, w: Tensor, b: Tensor, gain: Tensor,
                          bias: Tensor) -> Tensor:
    """``layer_norm(x + (h @ w + b)) * gain + bias`` over the last axis as one
    node: a residual branch's last affine map, the residual add and the
    post-norm with its affine step. It keeps the normalized sum and 1 / std
    for the backward, besides ``h`` as ``linear`` does, and not the branch's
    output, which no gradient reads. Forward and backward make the numpy
    calls of ``linear`` followed by a separate add-and-norm node, in their
    order, so values and gradients are equal bit for bit."""
    x, h, w, b, gain, bias = (_coerce(t) for t in (x, h, w, b, gain, bias))
    h2, wd = _affine_inputs(h, w, b, "linear_add_layer_norm"), w.data
    m = wd.shape[1]
    if (x.shape != h.shape[:-1] + (m,) or gain.shape != (m,) or bias.shape != gain.shape):
        raise GraphError(f"linear_add_layer_norm shape mismatch: x {x.shape}, branch "
                         f"{h.shape[:-1] + (m,)}, gain {gain.shape}, bias {bias.shape}")
    # the branch h @ w + b, then the sum (r + x is x + r bit for bit),
    # centered, then scaled, all in one array
    normed = h2 @ wd
    normed += b.data
    normed = normed.reshape(x.shape)
    normed += x.data
    normed -= normed.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    normed *= inv
    gd = gain.data
    out = normed * gd
    out += bias.data

    def vjp(g, needed):
        branch = (None, None, None)
        if any(needed[:4]):
            gn = g * gd
            d_sum = gn - gn.mean(axis=-1, keepdims=True)
            d_sum -= normed * (gn * normed).mean(axis=-1, keepdims=True)
            d_sum *= inv
            # the branch's gradients all read d_sum, so they are formed before
            # x's gradient, d_sum itself, is handed to backward to add into
            if any(needed[1:4]):
                branch = tuple(_affine_vjp(d_sum.reshape(-1, m), h2, wd, h.shape, needed[1:4]))
        yield d_sum if needed[0] else None
        yield from branch
        yield _unbroadcast(g * normed, gd.shape) if needed[4] else None
        yield _unbroadcast(g, gd.shape) if needed[5] else None

    return Tensor(out, op="linear_add_layer_norm", parents=(x, h, w, b, gain, bias), vjp=vjp)


@_quiet
def readout(z: Tensor, centers: Tensor, w_out: Tensor) -> Tensor:
    """The Brain Network Transformer's clustering readout (Kan et al. 2022,
    arXiv:2210.06681) as one node. Embeddings ``z``, (V, d) or (B, V, d), are
    softly assigned to the (K, d) ``centers``, A = softmax(z centers^T); each
    cluster pools its nodes, A^T z; ``w_out`` (d, c) projects each pooled row;
    and the (K, c) result is flattened per sample. The node keeps A and the
    pooled rows. Its backward makes the numpy calls of the same readout built
    from elementary nodes, in their order, so the gradients are equal bit for bit.
    """
    z, centers, w_out = _coerce(z), _coerce(centers), _coerce(w_out)
    if (z.ndim not in (2, 3) or centers.ndim != 2 or w_out.ndim != 2
            or centers.shape[1] != z.shape[-1] or w_out.shape[0] != z.shape[-1]):
        raise GraphError(f"readout shape mismatch: embeddings {z.shape}, centers "
                         f"{centers.shape}, w_out {w_out.shape}")
    zd, cd, wd = z.data, centers.data, w_out.data
    zt = np.swapaxes(zd, -1, -2)
    a = _softmax_in_place(zd @ cd.T)  # rows sum to 1
    pooled = np.swapaxes(a, -1, -2) @ zd
    out = pooled @ wd

    def vjp(g, needed):
        g = g.reshape(out.shape)
        if needed[0] or needed[1]:
            g_pooled = g @ wd.T
            # a C-ordered copy, so the softmax's row sums run as the elementary graph's do
            g_a = np.swapaxes(g_pooled @ zt, -1, -2).copy()
            g_s = a * (g_a - (g_a * a).sum(axis=-1, keepdims=True))  # through the softmax
        if needed[0]:
            g_z = a @ g_pooled  # the pooling term, then the assignment term
            g_z += g_s @ cd
        yield g_z if needed[0] else None
        # the shared centers and w_out sum their per-sample gradients
        yield np.swapaxes(_unbroadcast(zt @ g_s, cd.T.shape), -1, -2) if needed[1] else None
        yield _unbroadcast(np.swapaxes(pooled, -1, -2) @ g, wd.shape) if needed[2] else None

    return Tensor(out.reshape(zd.shape[:-2] + (-1,)), op="readout",
                  parents=(z, centers, w_out), vjp=vjp)


@_quiet
def unit_rows(x: Tensor) -> Tensor:
    """Each row of ``x`` (along its last axis) divided by its Euclidean norm,
    x / sqrt(sum(x * x)), as one node. A squared norm that overflows is a
    ``NonFiniteError`` and one below 1e-30, a row with no direction, a
    ``ValueError``. Forward and backward make the numpy calls of the same
    division built from elementary nodes, in their order, so values and
    gradients are equal bit for bit."""
    x = _coerce(x)
    if x.ndim == 0:
        raise GraphError("unit_rows needs at least one axis")
    xd = x.data
    norm_sq = (xd * xd).sum(axis=-1, keepdims=True)
    if not np.isfinite(norm_sq).all():
        raise NonFiniteError("non-finite values in 'unit_rows' squared norm")
    if norm_sq.min() < 1e-30:
        raise ValueError("a row collapsed to the zero vector; cannot normalize")
    norm = np.sqrt(norm_sq)

    def vjp(g, _):
        g_x = g / norm
        g_norm = (-g * xd / (norm * norm)).sum(axis=-1, keepdims=True)
        g_sq = g_norm * 0.5 / norm
        g_x += g_sq * xd  # once for each factor of x * x
        g_x += g_sq * xd
        return (g_x,)

    return Tensor(xd / norm, op="unit_rows", parents=(x,), vjp=vjp)


@_quiet
def contrastive_logits(query: Tensor, keys: np.ndarray, queue: np.ndarray,
                       temperature: float) -> Tensor:
    """InfoNCE's scaled similarities (He et al. 2020, arXiv:1911.05722) as one
    node: each row of ``query``, (dim,) or (B, dim), dotted with the same row
    of ``keys``, then with every row of the (n, dim) ``queue``, all divided by
    ``temperature``; the result is (..., 1 + n), the positive first. The keys
    and the queue are arrays, constants to the graph, so the query is the
    node's only parent. Forward and backward make the numpy calls of the same
    logits built from elementary nodes, in their order."""
    query = _coerce(query)
    qd = query.data
    keys, queue = np.asarray(keys, dtype=np.float64), np.asarray(queue, dtype=np.float64)
    if (qd.ndim not in (1, 2) or keys.shape != qd.shape
            or queue.size and (queue.ndim != 2 or queue.shape[1] != qd.shape[-1])):
        raise GraphError(f"contrastive_logits shape mismatch: query {qd.shape}, keys "
                         f"{keys.shape}, queue {queue.shape}")
    sims = (qd * keys).sum(axis=-1, keepdims=True)
    if queue.size:
        sims = np.concatenate([sims, qd @ queue.T], axis=-1)

    def vjp(g, _):
        g = g / temperature
        g_pos = g[..., :1]
        if not queue.size:
            return (g_pos * keys,)
        g_q = ((g[..., 1:] if qd.ndim == 2 else g[None, 1:]) @ queue).reshape(qd.shape)
        g_q += g_pos * keys
        return (g_q,)

    return Tensor(sims / temperature, op="contrastive_logits", parents=(query,), vjp=vjp)


@_quiet
def mean_nll(logits: Tensor, labels) -> Tensor:
    """The mean over samples of -log softmax(logits)[label] as one node:
    ``logits`` is (n,) for one sample with an int label, or (B, n) with B
    labels in [0, n). It keeps the log-probabilities, and its forward and
    backward make the numpy calls of the same loss built from elementary
    nodes (log-softmax, pick, mean, negate), in their order."""
    logits = _coerce(logits)
    labels = np.asarray(labels)
    if (logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]
            or labels.dtype.kind not in "iu" or labels.size
            and not 0 <= labels.min() <= labels.max() < logits.shape[-1]):
        raise GraphError(f"mean_nll needs a label in [0, n) per row of (..., n) logits, got "
                         f"labels {labels.tolist()} for logits {logits.shape}")
    x = logits.data
    z = x - x.max(axis=-1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    if not np.isfinite(log_p).all():  # all checked, as the log-softmax node's were
        raise NonFiniteError("non-finite values in 'mean_nll' log-probabilities")
    picked = (*np.indices(labels.shape), labels.astype(np.intp))

    def vjp(g, _):
        g_log_p = np.zeros(log_p.shape)
        g_log_p[picked] += -g / labels.size
        return (g_log_p - np.exp(log_p) * g_log_p.sum(axis=-1, keepdims=True),)

    return Tensor(-log_p[picked].mean(), op="mean_nll", parents=(logits,), vjp=vjp)


@_quiet
def backward(loss: Tensor, wrt: Iterable[Tensor]) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar loss with respect to each tensor in ``wrt``.

    Returns a map from each requested tensor to its gradient, a read-only
    float64 array of its shape; one that is unreachable, not a leaf, or
    requires no gradient gets zeros. Nodes are visited newest first, so
    contributions meet in reverse creation order and repeated runs produce
    bit-identical gradients.

    The walk spends the graph: once a node's vjp has yielded its gradients,
    the node drops its parents and vjp, and ``backward`` keeps no reference
    to it, so each saved activation is freed as soon as the last gradient
    that needs it exists. Leaves are not spent and serve any later graph; a
    later ``backward`` that reaches a spent node raises ``GraphError``.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes, todo = {loss}, [loss]
    while todo:
        node = todo.pop()
        if node._vjp is _spent:
            raise GraphError(f"a '{node.op}' node was spent by an earlier backward; "
                             f"build the graph again")
        for parent in node.parents:
            if parent._index >= node._index:
                raise GraphError("a parent newer than its child: the graph was edited")
            if parent not in nodes:
                nodes.add(parent)
                todo.append(parent)
    order = sorted(nodes, key=lambda t: t._index)  # popped newest first
    del nodes, node
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(node, None)
        parents, vjp = node.parents, node._vjp
        if not parents:
            if node.requires_grad and g is not None:
                grads[node] = g  # keep the gradients of leaves that want one
            continue
        node.parents, node._vjp = (), _spent  # the node keeps its values, not its history
        if g is None:
            continue
        needed = tuple(p.requires_grad for p in parents)
        adopted: list[np.ndarray] = []
        for parent, contribution in zip(parents, vjp(g, needed)):
            if contribution is None:
                continue
            acc = grads.get(parent)
            if acc is not None:
                acc += contribution
                continue
            # adopt an array made for this parent alone; copy anything shared
            contribution = np.asarray(contribution, dtype=np.float64)
            if (contribution is g or contribution.base is not None
                    or not contribution.flags.writeable
                    or any(contribution is a for a in adopted)):
                contribution = contribution.copy()
            adopted.append(contribution)
            grads[parent] = contribution

    result = {}
    for t in wrt:
        g = grads[t] if t in grads else np.zeros_like(t.data)
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite values in 'grad' result")
        g.flags.writeable = False
        result[t] = g
    return result
