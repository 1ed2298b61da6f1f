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
leading axis of a 3-D array is a batch of matrices. Elementwise operations
and ``@`` broadcast as numpy does.

Three fused layer primitives (``linear``, ``attention`` and
``add_layer_norm``) are one node each with their backward written out, so a
transformer layer keeps a handful of outputs instead of one per elementary op.

The ops are those braincl runs (``*``, ``/``, unary ``-``, ``@``, ``T``,
``reshape``, indexing, ``sum``, ``mean``, ``sqrt``, ``leaky_relu``,
``softmax``, ``log_softmax``, ``concat`` and the fused nodes) plus ``+`` and
``-``, which only the reference compositions in ``tests/`` use (the encoder's
residual add, the centring step of layer norm). A Tensor is always the left
operand, and ``backward`` returns gradients only for the tensors it is asked for.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GraphError",
    "NonFiniteError",
    "backward",
    "concat",
    "linear",
    "attention",
    "add_layer_norm",
    "freeze",
]


class GraphError(ValueError):
    """Raised for structural problems: non-scalar loss, bad shapes, a parent
    newer than its child, which only an edited ``.parents`` makes, or a
    ``backward`` that reaches a node an earlier ``backward`` spent."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation would produce NaN or Inf values."""


MAX_RANK = 3

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

    def detach(self) -> "Tensor":
        """A constant with the same values and no history."""
        return Tensor(self.data, requires_grad=False, op="detach")

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Tensor":
        return _binary(self, other, "add", np.add,
                       lambda a, b, g: g,
                       lambda a, b, g: g)

    def __sub__(self, other) -> "Tensor":
        return _binary(self, other, "sub", np.subtract,
                       lambda a, b, g: g,
                       lambda a, b, g: -g)

    def __mul__(self, other) -> "Tensor":
        return _binary(self, other, "mul", np.multiply,
                       lambda a, b, g: g * b,
                       lambda a, b, g: g * a)

    def __truediv__(self, other) -> "Tensor":
        return _binary(self, other, "div", np.divide,
                       lambda a, b, g: g / b,
                       lambda a, b, g: -g * a / (b * b))

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, op="neg", parents=(self,), vjp=lambda g, _: (-g,))

    @_quiet
    def __matmul__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        if a.ndim == 0 or b.ndim == 0:
            raise GraphError("matmul requires operands of at least 1 dimension")
        try:
            out = a @ b
        except ValueError as exc:
            raise GraphError(f"matmul shape mismatch {a.shape} @ {b.shape}") from exc

        # promote vectors to matrices, so one vjp covers every rank
        a2 = a[None, :] if a.ndim == 1 else a
        b2 = b[:, None] if b.ndim == 1 else b

        def vjp(g, needed):
            g = np.expand_dims(g, -2) if a.ndim == 1 else g  # g in the shape of a2 @ b2
            g = g[..., None] if b.ndim == 1 else g
            yield (_unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(a.shape)
                   if needed[0] else None)
            yield (_unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(b.shape)
                   if needed[1] else None)

        return Tensor(out, op="matmul", parents=(self, other), vjp=vjp)

    # ------------------------------------------------------------------
    # shape ops

    @property
    def T(self) -> "Tensor":
        """Swap the last two axes (a batch of matrices transposes each one)."""
        if self.ndim < 2:
            raise GraphError(f"transpose needs at least 2 dimensions, got shape {self.shape}")
        return Tensor(np.swapaxes(self.data, -1, -2), op="transpose", parents=(self,),
                      vjp=lambda g, _: (np.swapaxes(g, -1, -2),))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return Tensor(self.data.reshape(shape), op="reshape", parents=(self,),
                      vjp=lambda g, _: (g.reshape(old),))

    def __getitem__(self, idx) -> "Tensor":
        out = self.data[idx]
        shape = self.data.shape

        def vjp(g, _):
            full = np.zeros(shape)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor(out, op="getitem", parents=(self,), vjp=vjp)

    # ------------------------------------------------------------------
    # reductions

    @_quiet
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def vjp(g, _):
            if axis is None or keepdims:
                return (np.broadcast_to(g, shape),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape),)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), op="sum", parents=(self,),
                      vjp=vjp)

    @_quiet
    def mean(self, axis: int | None = None) -> "Tensor":
        shape = self.data.shape
        n = self.data.size if axis is None else shape[axis]

        def vjp(g, _):
            if axis is None:
                return (np.broadcast_to(g / n, shape),)
            return (np.broadcast_to(np.expand_dims(g, axis) / n, shape),)

        return Tensor(self.data.mean(axis=axis), op="mean", parents=(self,), vjp=vjp)

    # ------------------------------------------------------------------
    # pointwise nonlinearities

    @_quiet
    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return Tensor(out, op="sqrt", parents=(self,), vjp=lambda g, _: (g * 0.5 / out,))

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        # the backward keeps only a boolean mask; both passes multiply by the
        # slope it picks (a gather of 1 or negative_slope, cheaper than np.where)
        positive = self.data > 0
        slopes = np.array([negative_slope, 1.0])
        return Tensor(self.data * slopes.take(positive), op="leaky_relu", parents=(self,),
                      vjp=lambda g, _: (g * slopes.take(positive),))

    @_quiet
    def softmax(self, axis: int = -1) -> "Tensor":
        # max subtraction keeps exp() in range; the rest works in place
        out = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)

        def vjp(g, _):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - dot),)

        return Tensor(out, op="softmax", parents=(self,), vjp=vjp)

    @_quiet
    def log_softmax(self, axis: int = -1) -> "Tensor":
        z = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
        out = z - lse

        def vjp(g, _):
            return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

        return Tensor(out, op="log_softmax", parents=(self,), vjp=vjp)


def _spent(g, needed):
    """The vjp of a node that ``backward`` has spent."""
    raise GraphError("this node was spent by an earlier backward")


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


@_quiet
def _binary(a: Tensor, other, op: str, fwd, vjp_a, vjp_b) -> Tensor:
    b = _coerce(other)
    sa, sb = a.data.shape, b.data.shape
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise GraphError(f"{op} shape mismatch {sa} vs {sb}: "
                         f"shapes must broadcast as in numpy") from None
    out = fwd(a.data, b.data)
    ad, bd = a.data, b.data

    def vjp(g, needed):
        yield _unbroadcast(vjp_a(ad, bd, g), sa) if needed[0] else None
        yield _unbroadcast(vjp_b(ad, bd, g), sb) if needed[1] else None

    return Tensor(out, op=op, parents=(a, b), vjp=vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradients slice back to each input."""
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise GraphError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g, needed):
        return (part if need else None
                for part, need in zip(np.split(g, offsets, axis=axis), needed))

    return Tensor(out, op="concat", parents=tuple(tensors), vjp=vjp)


@_quiet
def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` as one node.

    The leading axes of ``x`` are flattened first, so a (B, V, n) batch is
    one (B*V, n) @ (n, m) product rather than B stacked ones.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if (x.ndim == 0 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise GraphError(f"linear shape mismatch {x.shape} @ {w.shape} + {b.shape}")
    n, m = w.shape
    shape, x2, wd = x.shape, x.data.reshape(-1, n), w.data
    out = x2 @ wd
    out += b.data

    def vjp(g, needed):
        g2 = g.reshape(-1, m)
        gx = None
        if needed[0]:  # written into an array of x's shape, which backward adopts
            gx = np.empty(shape)
            np.matmul(g2, wd.T, out=gx.reshape(-1, n))
        yield gx
        yield x2.T @ g2 if needed[1] else None
        yield g2.sum(axis=0) if needed[2] else None

    return Tensor(out.reshape(shape[:-1] + (m,)), op="linear", parents=(x, w, b), vjp=vjp)


@_quiet
def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head scaled dot-product attention, all heads in one node.

    ``q``, ``k`` and ``v`` are (V, d) or (B, V, d); head h reads columns
    h*d/heads to (h+1)*d/heads of each and writes the same columns of the
    output, softmax(scale * q_h k_h^T) v_h. Besides its output O the node
    keeps only the softmax probabilities P; its backward forms
    dS = P * (dP - rowsum(dO * O)) once for the q and k gradients
    (FlashAttention, Dao et al. 2022, arXiv:2205.14135, Alg. 2 without the
    tiling; rowsum(dO * O) equals rowsum(dP * P) at a fraction of the size).
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim not in (2, 3) or k.shape != q.shape or v.shape != q.shape:
        raise GraphError(f"attention needs equal (V, d) or (B, V, d) inputs, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or q.shape[-1] % heads:
        raise GraphError(f"width {q.shape[-1]} does not split into {heads} heads")
    shape = q.shape

    def split(a):  # (..., V, d) -> (..., heads, V, d / heads)
        return np.swapaxes(a.reshape(shape[:-1] + (heads, -1)), -2, -3)

    def merged(a, b):  # a @ b per head, written into the heads' columns of one array
        result = np.empty(shape)
        np.matmul(a, b, out=split(result))
        return result

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the softmax over keys, in place on the scores
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)  # keeps exp() in range
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merged(p, vh)

    def vjp(g, needed):
        gh = split(g)
        if needed[0] or needed[1]:
            ds = gh @ np.swapaxes(vh, -1, -2)  # dP, turned into dS in place
            ds -= (gh * split(out)).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
        yield merged(ds, kh) if needed[0] else None
        yield merged(np.swapaxes(ds, -1, -2), qh) if needed[1] else None
        yield merged(np.swapaxes(p, -1, -2), gh) if needed[2] else None

    return Tensor(out, op="attention", parents=(q, k, v), vjp=vjp)


@_quiet
def add_layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """``layer_norm(x + residual) * gain + bias`` over the last axis as one
    node; it keeps the normalized sum and 1 / std for the backward."""
    x, residual, gain, bias = (_coerce(t) for t in (x, residual, gain, bias))
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
