import inspect
import itertools
import sys
import weakref

import numpy as np
import pytest

from braincl.augment import AugmentConfig
from braincl.contrastive import momentum_update
from braincl.data import synth_dataset
from braincl.model import (EncoderConfig, as_tensors, features, init_classifier_params,
                           init_encoder_params, init_projection_params, relabel_nodes)
from braincl.numcore import (
    GraphError,
    NonFiniteError,
    Tensor,
    adam,
    add_layer_norm,
    attention,
    backward,
    concat,
    linear,
    load_checkpoint,
    opt_step,
    save_checkpoint,
    sgd,
)
from braincl.numcore import tensor as tensor_module
from braincl.numcore.gradcheck import gradcheck
from braincl.pipeline import (FinetuneConfig, PretrainConfig, finetune, load_encoder_checkpoint,
                              pretrain, save_encoder_checkpoint)
from references import layer_norm, stack


def test_square_sum_gradient():
    # d(sum x^2)/dx = 2x
    x = Tensor([1.0, 2.0, 3.0])
    loss = (x * x).sum()
    grads = backward(loss, wrt=[x])
    np.testing.assert_array_equal(grads[x], [2.0, 4.0, 6.0])


def test_softmax_sum_gradient_is_zero():
    # softmax rows sum to 1 regardless of input, so the gradient vanishes
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(7))
    loss = x.softmax().sum()
    grads = backward(loss, wrt=[x])
    np.testing.assert_allclose(grads[x], np.zeros(7), atol=1e-14)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    uv = (u * v).sum()
    nu = (u * u).sum().sqrt()
    nv = (v * v).sum().sqrt()
    return uv / (nu * nv)


def test_cosine_gradient_orthogonal_to_input():
    # at u == v the cosine is maximal along the ray, so the gradient is
    # orthogonal to u; cross-checked against finite differences
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(6)
    u = Tensor(vals)
    v = Tensor(vals.copy(), requires_grad=False)
    g = backward(cosine(u, v), wrt=[u])[u]
    assert abs(np.dot(g, vals)) <= 1e-12
    err = gradcheck(lambda t: cosine(t, Tensor(vals, requires_grad=False)), vals + 0.3)
    assert err < 1e-6


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0])
    with pytest.raises(GraphError):
        backward(x * x, wrt=[x])


def test_backward_linearity_over_independent_graphs():
    rng = np.random.default_rng(2)
    xv, yv = rng.standard_normal(5), rng.standard_normal(5)
    x, y = Tensor(xv), Tensor(yv)
    joint = backward((x * x).sum() + (y * y * y).sum(), wrt=[x, y])
    gx_leaf = Tensor(xv)
    gx = backward((gx_leaf * gx_leaf).sum(), wrt=[gx_leaf])
    gy_leaf = Tensor(yv)
    gy = backward((gy_leaf * gy_leaf * gy_leaf).sum(), wrt=[gy_leaf])
    np.testing.assert_allclose(joint[x], gx[gx_leaf])
    np.testing.assert_allclose(joint[y], gy[gy_leaf])


def test_unreachable_parameter_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    unused = Tensor([[3.0, 4.0]])
    grads = backward((x * 2.0).sum(), wrt=[x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros((1, 2)))
    # so do an interior node, a constant, and a loss that needs no gradient
    inner, const = x * x, Tensor([3.0, 1.0], requires_grad=False)
    grads = backward((inner * const).sum(), wrt=[inner, const, x])
    np.testing.assert_array_equal(grads[inner], [0.0, 0.0])
    np.testing.assert_array_equal(grads[const], [0.0, 0.0])
    np.testing.assert_array_equal(grads[x], [6.0, 4.0])
    for loss in (Tensor(2.0, requires_grad=False), const.sum()):
        assert backward(loss, wrt=[loss])[loss] == 0.0


def test_shared_subgraph_accumulates():
    x = Tensor([2.0])
    y = x * x  # used twice below
    loss = (y + y).sum()
    np.testing.assert_array_equal(backward(loss, wrt=[x])[x], [8.0])


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    err = gradcheck(lambda t: (t @ Tensor(b, requires_grad=False)).sum(), a)
    assert err < 1e-8
    err = gradcheck(lambda t: (Tensor(a, requires_grad=False) @ t).sum(), b)
    assert err < 1e-8
    v = rng.standard_normal(4)
    err = gradcheck(lambda t: (Tensor(a, requires_grad=False) @ t).sum(), v)
    assert err < 1e-8


@pytest.mark.parametrize("op", [
    lambda x: (Tensor(1.0, requires_grad=False) / (x * x + 1.5)).sum(),
    lambda x: (-x * x).sum(),
    lambda x: (x * x + 0.5).sqrt().sum(),
    lambda x: x.leaky_relu().sum() * 3.0,
    lambda x: (x.softmax() * x).sum(),
    lambda x: (x.log_softmax() * x).sum(),
])
def test_pointwise_ops_gradcheck(op):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(9) + 0.05  # keep clear of the leaky_relu kink
    assert gradcheck(op, x) < 1e-6


def test_matrix_ops_gradcheck():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5))
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=False)
    assert gradcheck(lambda t: (layer_norm(t) * w).sum(axis=None), x) < 1e-6
    assert gradcheck(lambda t: (t.softmax(axis=1) * w).sum(), x) < 1e-6
    assert gradcheck(lambda t: t.T.reshape(20)[3:9].sum(), x) < 1e-8
    assert gradcheck(lambda t: t.mean(axis=0).sum(), x) < 1e-8
    bias = Tensor(rng.standard_normal(5), requires_grad=False)
    assert gradcheck(lambda t: ((t + bias) * (t + bias)).sum(), x) < 1e-6


def test_concat_and_stack_gradients():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(3), rng.standard_normal(2)
    x = Tensor(a)
    y = Tensor(b)
    loss = (concat([x, y]) * concat([x, y])).sum()
    grads = backward(loss, wrt=[x, y])
    np.testing.assert_allclose(grads[x], 2 * a)
    np.testing.assert_allclose(grads[y], 2 * b)

    rows = [Tensor(rng.standard_normal(4)) for _ in range(3)]
    loss = (stack(rows) * 2.0).sum()
    grads = backward(loss, wrt=rows)
    for r in rows:
        np.testing.assert_array_equal(grads[r], np.full(4, 2.0))


def test_getitem_gradient_scatters():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    loss = x[1, 1] * 5.0
    g = backward(loss, wrt=[x])[x]
    np.testing.assert_array_equal(g, [[0.0, 0.0], [0.0, 5.0]])


def test_tensor_rejects_non_finite_and_3d():
    # the rank limit is 3: a stacked batch of matrices is accepted, 4-D is not
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    assert Tensor(np.zeros((2, 2, 2))).shape == (2, 2, 2)
    with pytest.raises(GraphError):
        Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(NonFiniteError):
        Tensor([-1.0]).sqrt()


def test_tensor_data_is_read_only():
    x = Tensor([1.0])
    with pytest.raises(ValueError):
        x.data[0] = 2.0


def test_shape_mismatch_raises():
    with pytest.raises(GraphError):
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
    with pytest.raises(GraphError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


@pytest.mark.parametrize("name", ["add", "sub", "add_layer_norm", "concat"])
@pytest.mark.parametrize("op_first", [True, False])
def test_one_tensor_in_two_parent_slots(name, op_first):
    # backward adopts a fresh first contribution as the accumulator; a vjp
    # that passes g through or yields one array twice must still leave every
    # parent its own accumulator, whichever gradient reaches it first
    rng = np.random.default_rng(50)
    vals = rng.standard_normal((3, 4))
    gain, bias = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
    op = {"add": lambda a, b: a + b,
          "sub": lambda a, b: a - b,
          "add_layer_norm": lambda a, b: add_layer_norm(a, b, gain, bias),
          "concat": lambda a, b: concat([a, b], axis=1)}[name]
    w = rng.standard_normal(op(Tensor(vals), Tensor(vals)).shape)
    v = rng.standard_normal(vals.shape)

    def loss(x, y):
        head, tail = (op(x, y) * w).sum(), (x * v).sum()
        return head + tail if op_first else tail + head

    def slot_grad(slot):  # the op's gradient through one slot alone
        t, const = Tensor(vals), Tensor(vals, requires_grad=False)
        pair = (t, const) if slot == 0 else (const, t)
        return backward((op(*pair) * w).sum(), wrt=[t])[t]

    x, y = Tensor(vals), Tensor(vals)
    grads = backward(loss(x, y), wrt=[x, y])
    assert np.array_equal(grads[x], slot_grad(0) + v)
    assert np.array_equal(grads[y], slot_grad(1))
    assert not np.shares_memory(grads[x], grads[y])

    x = Tensor(vals)
    np.testing.assert_allclose(backward(loss(x, x), wrt=[x])[x],
                               slot_grad(0) + slot_grad(1) + v, rtol=1e-12, atol=1e-12)


def test_backward_never_adopts_the_incoming_gradient():
    # a vjp may hand g itself to a parent and read g again afterwards
    x, y = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])

    def vjp(g, needed):
        yield g
        yield g
        yield 2.0 * g

    out = Tensor(2.0 * x.data + 2.0 * y.data, op="custom", parents=(x, x, y), vjp=vjp)
    grads = backward(out.sum(), wrt=[x, y])
    np.testing.assert_array_equal(grads[x], [2.0, 2.0])
    np.testing.assert_array_equal(grads[y], [2.0, 2.0])


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((6, 6))

    def run():
        x = Tensor(vals)
        z = layer_norm(x) @ Tensor(np.eye(6), requires_grad=False)
        loss = (z.softmax() * z).sum() + z.leaky_relu().mean(axis=None)
        return backward(loss, wrt=[x])[x]

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_backward_adds_contributions_in_reverse_creation_order():
    # three contributions whose float sum depends on the order of addition;
    # c is created last, so its 1.0 is added first and then absorbed
    x = Tensor([1.0])
    a, b, c = x * 1e16, x * -1e16, x * 1.0
    grad = backward(((c + a) + b).sum(), wrt=[x])[x]
    assert (1.0 + -1e16) + 1e16 == 0.0 and (1e16 + -1e16) + 1.0 == 1.0
    np.testing.assert_array_equal(grad, [0.0])


def test_backward_returns_read_only_arrays():
    x, unused = Tensor([1.0, 2.0]), Tensor(np.ones((2, 3)))
    grads = backward((x * x).sum(), wrt=[x, unused])
    for t, grad in grads.items():
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == t.shape and not grad.flags.writeable
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_rejects_an_overflowing_gradient():
    # the loss is finite, but the two 1e308 contributions into x overflow
    x = Tensor([1.0, -1.0])
    loss = (x * 1e308).sum() + (x * 1e308).sum()
    assert loss.item() == 0.0
    with pytest.raises(NonFiniteError, match="non-finite values in 'grad' result"):
        backward(loss, wrt=[x])


def test_backward_rejects_a_parent_newer_than_its_child():
    x = Tensor([1.0])
    a = x * 2.0
    b = a * 3.0
    a.parents = (b,)  # an edited graph: a now depends on the newer b, a cycle
    with pytest.raises(GraphError, match="newer"):
        backward(b.sum(), wrt=[x])


def test_backward_spends_the_graph_but_not_its_leaves():
    x, w = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    inner = x * w
    loss = inner.sum()
    grads = backward(loss, wrt=[x, w])
    np.testing.assert_array_equal(grads[x], [3.0, 4.0])
    assert loss.item() == 11.0 and inner.parents == ()  # values stay, history goes
    with pytest.raises(GraphError, match="spent"):
        backward(loss, wrt=[x])
    with pytest.raises(GraphError, match="spent"):
        backward((inner * 2.0).sum(), wrt=[x])
    # leaves serve any number of graphs
    grads = backward((x * x).sum(), wrt=[x, w])
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])
    np.testing.assert_array_equal(grads[w], [0.0, 0.0])


def test_backward_frees_each_activation_before_older_vjps_run():
    rng = np.random.default_rng(60)
    x, w = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 5)))
    b = Tensor(np.zeros(5))
    freed = []

    def first_op(g, needed):  # the oldest interior node: its vjp runs last
        freed.append(hidden() is None)
        return (g,)

    def build():  # keeps no reference to the hidden activation
        start = Tensor(x.data, op="first", parents=(x,), vjp=first_op)
        h = linear(start, w, b)
        return (h * h).sum(), weakref.ref(h.data)

    loss, hidden = build()
    assert hidden() is not None
    backward(loss, wrt=[x, w])
    assert freed == [True]


def test_backward_frees_an_encoder_forward_while_the_loss_lives():
    cfg = EncoderConfig(n_nodes=8, layers=2, heads=2, n_clusters=3, proj_dim=4)
    rng = np.random.default_rng(61)
    leaves = as_tensors(init_encoder_params(cfg, rng))
    conns = synth_dataset(3, n_nodes=8, length=20, seed=5)

    def build():
        loss = features(np.stack([s.connectome.matrix for s in conns.samples]), leaves, cfg).sum()
        seen, todo, refs = {id(loss)}, [loss], []
        while todo:
            for parent in todo.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
                    if parent.op == "linear":
                        refs.append(weakref.ref(parent.data))
        return loss, refs

    loss, refs = build()
    assert len(refs) >= 5 and all(ref() is not None for ref in refs)
    backward(loss, wrt=list(leaves.values()))
    assert [ref() for ref in refs] == [None] * len(refs)
    assert np.isfinite(loss.item())


@pytest.mark.parametrize("op", [
    lambda big: big * big,
    lambda big: big @ big.T,
    lambda big: linear(big, Tensor([[2.0], [0.0]]), Tensor([0.0])),
    lambda big: add_layer_norm(big, big, Tensor([1.0, 1.0]), Tensor([0.0, 0.0])),
], ids=["mul", "matmul", "linear", "add_layer_norm"])
def test_forward_overflow_is_one_non_finite_error(op):
    # under tier-1's filterwarnings = error a numpy RuntimeWarning would
    # surface here instead of the error
    with pytest.raises(NonFiniteError, match="non-finite values"):
        op(Tensor([[1e308, -1e308]]))


# ---------------------------------------------------------------------------
# batched (3-D) operands


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 5))
    shared = rng.standard_normal((5, 2))
    stacked = rng.standard_normal((3, 5, 2))
    w = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=False)
    for b in (shared, stacked):
        const_a, const_b = Tensor(a, requires_grad=False), Tensor(b, requires_grad=False)
        assert gradcheck(lambda t: ((t @ const_b) * w).sum(), a) < 1e-8
        assert gradcheck(lambda t: ((const_a @ t) * w).sum(), b) < 1e-8
    # a vector against a stack of matrices, and a stack against a vector
    v = rng.standard_normal(4)
    assert gradcheck(lambda t: (t @ Tensor(a, requires_grad=False)).sum(), v) < 1e-8
    u = rng.standard_normal(5)
    wu = Tensor(rng.standard_normal((3, 4)), requires_grad=False)
    assert gradcheck(lambda t: ((Tensor(a, requires_grad=False) @ t) * wu).sum(), u) < 1e-8


def test_batched_shape_ops_and_broadcasting_gradcheck():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 5))
    w = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=False)
    assert Tensor(x).T.shape == (3, 5, 4)
    assert gradcheck(lambda t: (t.T * w).sum(), x) < 1e-6
    wk = Tensor(rng.standard_normal((3, 1, 5)), requires_grad=False)
    assert gradcheck(lambda t: (t.sum(axis=1, keepdims=True) * wk).sum(), x) < 1e-6
    assert Tensor(x).sum(axis=-1, keepdims=True).shape == (3, 4, 1)
    bias = rng.standard_normal(5)
    assert gradcheck(lambda t: ((t + Tensor(bias, requires_grad=False)) * w.T).sum(), x) < 1e-6
    assert gradcheck(lambda t: ((Tensor(x, requires_grad=False) + t) * w.T).sum(), bias) < 1e-6
    rows = rng.standard_normal((6, 3))
    norms = rng.uniform(0.5, 2.0, (6, 1))
    assert gradcheck(lambda t: (t / Tensor(norms, requires_grad=False)).sum(), rows) < 1e-6
    assert gradcheck(lambda t: (Tensor(rows, requires_grad=False) / t).sum(), norms) < 1e-6
    with pytest.raises(GraphError):
        Tensor(np.zeros((3, 4, 5))) + Tensor(np.zeros(4))


def test_batched_concat_and_getitem_gradcheck():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4))
    w = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=False)
    other = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=False)
    assert gradcheck(lambda t: (concat([t, other], axis=-1) * w).sum(), x) < 1e-6
    assert gradcheck(lambda t: (concat([other, t], axis=-1) * w).sum(), x) < 1e-6
    ws = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=False)
    assert gradcheck(lambda t: (t[..., 1:3] * ws).sum(), x) < 1e-6
    rows, cols = np.array([0, 2, 2]), np.array([1, 3, 3])  # (2, 3) twice: gradients add
    wf = Tensor(rng.standard_normal((2, 3)), requires_grad=False)
    assert gradcheck(lambda t: (t[:, rows, cols] * wf).sum(), x) < 1e-6
    m = rng.standard_normal((4, 2))
    assert gradcheck(lambda t: (t[np.arange(4), np.array([1, 0, 0, 1])] * 2.0).sum(), m) < 1e-6


def test_ops_on_constants_keep_no_graph():
    a = Tensor(np.ones((2, 3, 3)), requires_grad=False)
    b = Tensor(np.eye(3), requires_grad=False)
    out = ((a @ b).T + 1.0).softmax(axis=-1).sum(axis=-1)
    assert not out.requires_grad
    assert out.parents == ()
    mixed = a @ Tensor(np.eye(3))
    assert mixed.requires_grad and len(mixed.parents) == 2
    # an op node takes requires_grad from its parents, whatever flag is passed
    for flag in (False, True):
        node = Tensor(np.ones(2), requires_grad=flag, op="add", parents=(b[0, :2], b[1, :2]),
                      vjp=lambda g, needed: (g, g))
        assert not node.requires_grad and node.parents == () and node._vjp is None


def test_leaf_copies_the_callers_array():
    a = np.zeros((2, 2))
    t = Tensor(a)
    a[0, 0] = 2.0  # the caller's array stays writable
    assert t.data[0, 0] == 0.0
    assert not np.shares_memory(t.data, a)


def test_leaf_adopts_arrays_nobody_can_write(tmp_path):
    frozen = np.ones((2, 3))
    frozen.flags.writeable = False
    assert np.shares_memory(Tensor(frozen).data, frozen)
    # a read-only view may still be written through its base: copied
    base = np.ones((2, 3))
    view = base[:, :2]
    view.flags.writeable = False
    assert not np.shares_memory(Tensor(view).data, base)
    assert base.flags.writeable
    # optimizer and momentum outputs are adopted, so a step copies no parameter
    params = {"w": np.ones((3, 3))}
    stepped = opt_step(sgd(lr=0.1), params, {"w": np.ones((3, 3))})
    adam_stepped = opt_step(adam(lr=0.1), params, {"w": np.ones((3, 3))})
    trailed = momentum_update(params, stepped, 0.9)
    assert params["w"].flags.writeable
    # so is every other parameter dict, from the moment it is made
    cfg = EncoderConfig(n_nodes=6, layers=1, heads=2, n_clusters=3, proj_dim=4)
    rng = np.random.default_rng(0)
    encoder = init_encoder_params(cfg, rng)
    save_checkpoint(tmp_path / "raw.bnck", params)
    save_encoder_checkpoint(tmp_path / "enc.bnck", encoder, cfg)
    produced = [stepped, adam_stepped, trailed, encoder,
                init_classifier_params(cfg, rng), init_projection_params(cfg, rng),
                relabel_nodes(encoder, rng.permutation(6)),
                load_checkpoint(tmp_path / "raw.bnck"),
                load_encoder_checkpoint(tmp_path / "enc.bnck")[0]]
    for arrays in produced:
        for arr in arrays.values():
            assert np.shares_memory(Tensor(arr, requires_grad=False).data, arr)


# ---------------------------------------------------------------------------
# fused layer nodes


def gradcheck_each_input(fn, arrays, tol):
    """gradcheck ``fn`` in every input: once with the other inputs constant,
    once with them leaves that also require gradients (mixed requires_grad)."""
    for i in range(len(arrays)):
        for others_grad in (False, True):
            def one(t, i=i, others_grad=others_grad):
                args = [Tensor(a, requires_grad=others_grad) for a in arrays]
                args[i] = t
                return fn(*args)
            assert gradcheck(one, arrays[i]) < tol, (i, others_grad)


@pytest.mark.parametrize("shape", [(4,), (5, 3), (2, 5, 3)])
def test_linear_gradcheck(shape):
    rng = np.random.default_rng(30)
    x, w, b = (rng.standard_normal(shape), rng.standard_normal((shape[-1], 4)),
               rng.standard_normal(4))
    weights = Tensor(rng.standard_normal(shape[:-1] + (4,)), requires_grad=False)
    gradcheck_each_input(lambda *t: (linear(*t) * weights).sum(), [x, w, b], 1e-6)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, rtol=0, atol=1e-14)
    assert out.shape == shape[:-1] + (4,) and len(out.parents) == 3
    with pytest.raises(GraphError):
        linear(Tensor(x), Tensor(np.zeros((shape[-1] + 1, 4))), Tensor(b))
    with pytest.raises(GraphError):
        linear(Tensor(x), Tensor(w), Tensor(b[:-1]))


@pytest.mark.parametrize("shape, heads", [((5, 8), 1), ((5, 8), 4), ((2, 5, 8), 1),
                                          ((2, 5, 8), 4)])
def test_attention_gradcheck(shape, heads):
    rng = np.random.default_rng(31)
    qkv = [rng.standard_normal(shape) for _ in range(3)]
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    scale = 0.7
    gradcheck_each_input(lambda q, k, v: (attention(q, k, v, heads, scale) * weights).sum(),
                         qkv, 1e-6)
    # one node, rank <= 3, and per head softmax(scale q_h k_h^T) v_h in that head's columns
    q, k, v = (Tensor(a) for a in qkv)
    out = attention(q, k, v, heads, scale)
    assert out.parents == (q, k, v) and out.shape == shape
    dh = shape[-1] // heads
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = scale * qkv[0][..., sl] @ np.swapaxes(qkv[1][..., sl], -1, -2)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data[..., sl], p @ qkv[2][..., sl], rtol=0, atol=1e-13)
    with pytest.raises(GraphError):
        attention(q, k, v, 3, scale)
    with pytest.raises(GraphError):
        attention(q, k, Tensor(np.zeros(shape[:-1] + (4,))), heads, scale)


@pytest.mark.parametrize("shape", [(5, 6), (2, 5, 6)])
def test_add_layer_norm_gradcheck(shape):
    rng = np.random.default_rng(32)
    d = shape[-1]
    arrays = [rng.standard_normal(shape), rng.standard_normal(shape),
              rng.uniform(0.5, 1.5, d), rng.standard_normal(d)]
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    gradcheck_each_input(lambda *t: (add_layer_norm(*t) * weights).sum(), arrays, 1e-6)
    x, r, gain, bias = (Tensor(a) for a in arrays)
    out = add_layer_norm(x, r, gain, bias)
    reference = layer_norm(x + r) * gain + bias
    np.testing.assert_array_equal(out.data, reference.data)
    assert out.parents == (x, r, gain, bias)
    # a tensor added to itself gets both gradient contributions
    loss = (add_layer_norm(x, x, gain, bias) * weights).sum()
    ref = ((layer_norm(x + x) * gain + bias) * weights).sum()
    np.testing.assert_allclose(backward(loss, wrt=[x])[x],
                               backward(ref, wrt=[x])[x], rtol=0, atol=1e-12)
    with pytest.raises(GraphError):
        add_layer_norm(x, r, Tensor(np.ones(d + 1)), bias)


@pytest.mark.parametrize("fn, shapes", [
    (linear, [(4,), (4, 3), (3,)]),
    (linear, [(2, 5, 4), (4, 3), (3,)]),
    (lambda q, k, v: attention(q, k, v, 1, 0.5), [(5, 4)] * 3),
    (lambda q, k, v: attention(q, k, v, 2, 0.5), [(2, 5, 4)] * 3),
], ids=["linear_vector", "linear_batch", "attention_one_head", "attention_batch"])
def test_fused_gradients_are_fresh_arrays_backward_can_adopt(fn, shapes):
    rng = np.random.default_rng(33)
    out = fn(*(Tensor(rng.standard_normal(s)) for s in shapes))
    grads = list(out._vjp(rng.standard_normal(out.shape), (True,) * len(shapes)))
    for grad, shape in zip(grads, shapes):
        assert grad.shape == shape and grad.base is None and grad.flags.writeable


def test_leaky_relu_keeps_a_boolean_mask():
    x = Tensor([-2.0, 0.0, 3.0])
    out = x.leaky_relu(0.1)
    np.testing.assert_array_equal(out.data, [-0.2, 0.0, 3.0])
    # the only input-sized array the backward keeps is the mask (read before
    # backward, which spends the node)
    saved = [c.cell_contents for c in out._vjp.__closure__
             if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.shape == x.shape]
    assert [a.dtype for a in saved] == [np.bool_]
    np.testing.assert_array_equal(backward(out.sum(), wrt=[x])[x], [0.1, 0.1, 1.0])


# ---------------------------------------------------------------------------
# node protocol: one vjp(g, needed) per node, one gradient per parent

PROTOCOL_CASES = {
    "add": (lambda a, b: a + b, [(2, 3, 4), (4,)]),
    "sub": (lambda a, b: a - b, [(3, 1), (2, 3, 4)]),
    "mul": (lambda a, b: a * b, [(2, 1, 4), (3, 1)]),
    "div": (lambda a, b: a / b, [(3, 4), (2, 1, 4)]),
    "matmul_vector": (lambda a, b: a @ b, [(4,), (4, 3)]),
    "matmul_matrix": (lambda a, b: a @ b, [(3, 4), (4,)]),
    "matmul_stacked": (lambda a, b: a @ b, [(2, 3, 4), (4, 5)]),
    "matmul_both_stacked": (lambda a, b: a @ b, [(2, 3, 4), (2, 4, 5)]),
    "concat": (lambda *t: concat(t, axis=-1), [(2, 3), (2, 1), (2, 4)]),
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)]),
    "attention": (lambda q, k, v: attention(q, k, v, 2, 0.5), [(2, 3, 4)] * 3),
    "add_layer_norm": (add_layer_norm, [(2, 3, 4), (2, 3, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("name", PROTOCOL_CASES)
def test_node_protocol(name):
    fn, shapes = PROTOCOL_CASES[name]
    rng = np.random.default_rng(40)
    arrays = [rng.uniform(0.5, 1.5, shape) for shape in shapes]
    for needed in itertools.product((False, True), repeat=len(arrays)):
        inputs = [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, needed)]
        out = fn(*inputs)
        assert out.requires_grad == any(needed)
        if not any(needed):  # an op over constants keeps no graph
            assert out.parents == () and out._vjp is None
            continue
        assert out.parents == tuple(inputs)
        grads = tuple(out._vjp(rng.standard_normal(out.shape), needed))
        assert len(grads) == len(inputs), needed
        for t, flag, grad in zip(inputs, needed, grads):
            if flag:
                assert np.shape(grad) == t.shape, needed
            else:
                assert grad is None, needed


# ---------------------------------------------------------------------------
# the core holds what braincl runs

# no braincl path adds or subtracts tensors; the reference compositions in
# tests/references.py and test_model.encoder_reference need both (the
# residual add and the centring step of layer norm)
UNUSED_BY_BRAINCL = {"__add__", "__sub__"}


def test_core_holds_only_what_braincl_runs(monkeypatch):
    # every Tensor method, property and operator and every numcore op must be
    # reached by a desk pretrain plus a finetune with a trainable and with a
    # frozen encoder; construction and display are not ops
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    methods = {name: attr for name, attr in vars(Tensor).items()
               if isinstance(attr, property)
               or inspect.isfunction(attr) and name not in ("__init__", "__repr__")}
    for name, attr in methods.items():
        monkeypatch.setattr(Tensor, name, property(counted(name, attr.fget))
                            if isinstance(attr, property) else counted(name, attr))
    functions = {name: getattr(tensor_module, name) for name in tensor_module.__all__
                 if inspect.isfunction(getattr(tensor_module, name))}
    # braincl modules call numcore's functions through the names they imported
    for module in [m for key, m in sys.modules.items() if key.startswith("braincl")]:
        for attr, value in list(vars(module).items()):
            for name, fn in functions.items():
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(name, fn))

    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    ds = synth_dataset(24, n_nodes=8, length=20, seed=3)
    trained = pretrain(ds, cfg, PretrainConfig(epochs=1, batch_size=8, queue_capacity=16),
                       AugmentConfig(k_min=1, k_max=3))
    for freeze_encoder in (False, True):
        finetune(ds, trained.encoder_params, cfg,
                 FinetuneConfig(epochs=1, batch_size=8, repeats=1,
                                freeze_encoder=freeze_encoder))
    assert (set(methods) | set(functions)) - called == UNUSED_BY_BRAINCL
