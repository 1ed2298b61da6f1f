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
                           init_encoder_params, init_projection_params)
from braincl.numcore import (
    GraphError,
    NonFiniteError,
    Tensor,
    adam,
    attention,
    backward,
    contrastive_logits,
    linear,
    linear_add_layer_norm,
    load_checkpoint,
    mean_nll,
    opt_step,
    readout,
    save_checkpoint,
    sgd,
    unit_rows,
)
from braincl.numcore import tensor as tensor_module
from braincl.numcore.gradcheck import gradcheck
from braincl.pipeline import (FinetuneConfig, PretrainConfig, finetune, load_encoder_checkpoint,
                              pretrain, save_encoder_checkpoint)
from references import (add, add_layer_norm, concat, contrastive_logits_reference, div, index,
                        layer_norm, leaky_relu, log_softmax, matmul, mean, mean_nll_reference, mul,
                        neg, readout_reference, softmax, sqrt, stack, sub, total, transpose,
                        unit_rows_reference, weighted_sum)


def test_square_sum_gradient():
    # d(sum x^2)/dx = 2x
    x = Tensor([1.0, 2.0, 3.0])
    loss = total(mul(x, x))
    grads = backward(loss, wrt=[x])
    np.testing.assert_array_equal(grads[x], [2.0, 4.0, 6.0])


def test_softmax_sum_gradient_is_zero():
    # softmax rows sum to 1 regardless of input, so the gradient vanishes
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(7))
    loss = total(softmax(x))
    grads = backward(loss, wrt=[x])
    np.testing.assert_allclose(grads[x], np.zeros(7), atol=1e-14)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    uv = total(mul(u, v))
    nu = sqrt(total(mul(u, u)))
    nv = sqrt(total(mul(v, v)))
    return div(uv, mul(nu, nv))


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
        backward(mul(x, x), wrt=[x])


def test_backward_linearity_over_independent_graphs():
    rng = np.random.default_rng(2)
    xv, yv = rng.standard_normal(5), rng.standard_normal(5)
    x, y = Tensor(xv), Tensor(yv)
    joint = backward(add(total(mul(x, x)), total(mul(mul(y, y), y))), wrt=[x, y])
    gx_leaf = Tensor(xv)
    gx = backward(total(mul(gx_leaf, gx_leaf)), wrt=[gx_leaf])
    gy_leaf = Tensor(yv)
    gy = backward(total(mul(mul(gy_leaf, gy_leaf), gy_leaf)), wrt=[gy_leaf])
    np.testing.assert_allclose(joint[x], gx[gx_leaf])
    np.testing.assert_allclose(joint[y], gy[gy_leaf])


def test_unreachable_parameter_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    unused = Tensor([[3.0, 4.0]])
    grads = backward(weighted_sum(x, 2.0), wrt=[x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros((1, 2)))
    # so do an interior node, a constant, and a loss that needs no gradient
    inner, const = mul(x, x), Tensor([3.0, 1.0], requires_grad=False)
    grads = backward(weighted_sum(inner, const), wrt=[inner, const, x])
    np.testing.assert_array_equal(grads[inner], [0.0, 0.0])
    np.testing.assert_array_equal(grads[const], [0.0, 0.0])
    np.testing.assert_array_equal(grads[x], [6.0, 4.0])
    for loss in (Tensor(2.0, requires_grad=False), total(const)):
        assert backward(loss, wrt=[loss])[loss] == 0.0


def test_shared_subgraph_accumulates():
    x = Tensor([2.0])
    y = mul(x, x)  # used twice below
    loss = total(add(y, y))
    np.testing.assert_array_equal(backward(loss, wrt=[x])[x], [8.0])


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    err = gradcheck(lambda t: total(matmul(t, b)), a)
    assert err < 1e-8
    err = gradcheck(lambda t: total(matmul(a, t)), b)
    assert err < 1e-8
    v = rng.standard_normal(4)
    err = gradcheck(lambda t: total(matmul(a, t)), v)
    assert err < 1e-8


@pytest.mark.parametrize("op", [
    lambda x: total(div(1.0, add(mul(x, x), 1.5))),
    lambda x: total(mul(neg(x), x)),
    lambda x: total(sqrt(add(mul(x, x), 0.5))),
    lambda x: mul(total(leaky_relu(x)), 3.0),
    lambda x: weighted_sum(softmax(x), x),
    lambda x: weighted_sum(log_softmax(x), x),
])
def test_pointwise_ops_gradcheck(op):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(9) + 0.05  # keep clear of the leaky_relu kink
    assert gradcheck(op, x) < 1e-6


def test_matrix_ops_gradcheck():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5))
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(layer_norm(t), w), x) < 1e-6
    assert gradcheck(lambda t: weighted_sum(softmax(t, axis=1), w), x) < 1e-6
    assert gradcheck(lambda t: total(index(t, np.s_[1:3, 2:])), x) < 1e-8
    assert gradcheck(lambda t: total(mean(t, axis=0)), x) < 1e-8
    bias = Tensor(rng.standard_normal(5), requires_grad=False)
    assert gradcheck(lambda t: total(mul(mul(t, bias), div(t, bias))), x) < 1e-6


def test_concat_and_stack_gradients():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(3), rng.standard_normal(2)
    x = Tensor(a)
    y = Tensor(b)
    loss = total(mul(concat([x, y]), concat([x, y])))
    grads = backward(loss, wrt=[x, y])
    np.testing.assert_allclose(grads[x], 2 * a)
    np.testing.assert_allclose(grads[y], 2 * b)

    rows = [Tensor(rng.standard_normal(4)) for _ in range(3)]
    loss = weighted_sum(stack(rows), 2.0)
    grads = backward(loss, wrt=rows)
    for r in rows:
        np.testing.assert_array_equal(grads[r], np.full(4, 2.0))


def test_getitem_gradient_scatters():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    loss = mul(index(x, (1, 1)), 5.0)
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
        sqrt(Tensor([-1.0]))


def test_tensor_data_is_read_only():
    x = Tensor([1.0])
    with pytest.raises(ValueError):
        x.data[0] = 2.0


def test_shape_mismatch_raises():
    with pytest.raises(GraphError):
        mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(GraphError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(GraphError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros(2)))
    with pytest.raises(GraphError):
        unit_rows(Tensor(2.0))
    with pytest.raises(GraphError):
        contrastive_logits(Tensor(np.ones((2, 3))), np.ones((2, 4)), np.zeros((0, 3)), 0.1)
    with pytest.raises(GraphError):
        contrastive_logits(Tensor(np.ones((2, 3))), np.ones((2, 3)), np.ones((5, 4)), 0.1)
    for labels in ([0, 2], [0], [0.0, 1.0], [-1, 0]):
        with pytest.raises(GraphError, match="mean_nll needs a label"):
            mean_nll(Tensor(np.zeros((2, 2))), labels)


@pytest.mark.parametrize("name", ["add", "sub", "add_layer_norm", "linear_add_layer_norm",
                                  "concat"])
@pytest.mark.parametrize("op_first", [True, False])
def test_one_tensor_in_two_parent_slots(name, op_first):
    # backward adopts a fresh first contribution as the accumulator; a vjp
    # that passes g through or yields one array twice must still leave every
    # parent its own accumulator, whichever gradient reaches it first
    rng = np.random.default_rng(50)
    vals = rng.standard_normal((3, 4))
    gain, bias = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
    w_h, b_h = Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal(4))
    op = {"add": add,
          "sub": sub,
          "add_layer_norm": lambda a, b: add_layer_norm(a, b, gain, bias),
          # one tensor as x and as the branch's input
          "linear_add_layer_norm": lambda x, h: linear_add_layer_norm(x, h, w_h, b_h, gain, bias),
          "concat": lambda a, b: concat([a, b], axis=1)}[name]
    w = rng.standard_normal(op(Tensor(vals), Tensor(vals)).shape)
    v = rng.standard_normal(vals.shape)

    def loss(x, y):
        head, tail = weighted_sum(op(x, y), w), weighted_sum(x, v)
        return add(head, tail) if op_first else add(tail, head)

    def slot_grad(slot):  # the op's gradient through one slot alone
        t, const = Tensor(vals), Tensor(vals, requires_grad=False)
        pair = (t, const) if slot == 0 else (const, t)
        return backward(weighted_sum(op(*pair), w), wrt=[t])[t]

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
    grads = backward(total(out), wrt=[x, y])
    np.testing.assert_array_equal(grads[x], [2.0, 2.0])
    np.testing.assert_array_equal(grads[y], [2.0, 2.0])


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((6, 6))

    def run():
        x = Tensor(vals)
        z = matmul(layer_norm(x), np.eye(6))
        loss = add(weighted_sum(softmax(z), z), mean(leaky_relu(z)))
        return backward(loss, wrt=[x])[x]

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_backward_adds_contributions_in_reverse_creation_order():
    # three contributions whose float sum depends on the order of addition;
    # c is created last, so its 1.0 is added first and then absorbed
    x = Tensor([1.0])
    a, b, c = mul(x, 1e16), mul(x, -1e16), mul(x, 1.0)
    grad = backward(total(add(add(c, a), b)), wrt=[x])[x]
    assert (1.0 + -1e16) + 1e16 == 0.0 and (1e16 + -1e16) + 1.0 == 1.0
    np.testing.assert_array_equal(grad, [0.0])


def test_backward_returns_read_only_arrays():
    x, unused = Tensor([1.0, 2.0]), Tensor(np.ones((2, 3)))
    grads = backward(total(mul(x, x)), wrt=[x, unused])
    for t, grad in grads.items():
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == t.shape and not grad.flags.writeable
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_rejects_an_overflowing_gradient():
    # the loss is finite, but the two 1e308 contributions into x overflow
    x = Tensor([1.0, -1.0])
    loss = add(weighted_sum(x, 1e308), weighted_sum(x, 1e308))
    assert loss.item() == 0.0
    with pytest.raises(NonFiniteError, match="non-finite values in 'grad' result"):
        backward(loss, wrt=[x])


def test_backward_rejects_a_parent_newer_than_its_child():
    x = Tensor([1.0])
    a = mul(x, 2.0)
    b = mul(a, 3.0)
    a.parents = (b,)  # an edited graph: a now depends on the newer b, a cycle
    with pytest.raises(GraphError, match="newer"):
        backward(total(b), wrt=[x])


def test_backward_spends_the_graph_but_not_its_leaves():
    x, w = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    inner = mul(x, w)
    loss = total(inner)
    grads = backward(loss, wrt=[x, w])
    np.testing.assert_array_equal(grads[x], [3.0, 4.0])
    assert loss.item() == 11.0 and inner.parents == ()  # values stay, history goes
    with pytest.raises(GraphError, match="spent"):
        backward(loss, wrt=[x])
    with pytest.raises(GraphError, match="spent"):
        backward(weighted_sum(inner, 2.0), wrt=[x])
    # leaves serve any number of graphs
    grads = backward(total(mul(x, x)), wrt=[x, w])
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
        return total(mul(h, h)), weakref.ref(h.data)

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
        loss = total(features(conns.stack, leaves, cfg))
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
    lambda big: mul(big, big),
    lambda big: matmul(big, big.data.T),
    lambda big: linear(big, Tensor([[2.0], [0.0]]), Tensor([0.0])),
    lambda big: linear(big, Tensor([[-2.0], [0.0]]), Tensor([0.0]), 0.5),
    lambda big: add_layer_norm(big, big, Tensor([1.0, 1.0]), Tensor([0.0, 0.0])),
    lambda big: linear_add_layer_norm(big, big, Tensor(np.eye(2)), Tensor([0.0, 0.0]),
                                      Tensor([1.0, 1.0]), Tensor([0.0, 0.0])),
    unit_rows,
    lambda big: unit_rows(Tensor(big.data * 1e-154)),  # squares finite, their sum not
    lambda big: contrastive_logits(Tensor(np.array([[0.6, 0.8]])), np.array([[0.6, 0.8]]),
                                   np.array([[0.8, 0.6]]), 1e-310),
    lambda big: mean_nll(big, [0]),  # the loss reads a finite log-probability, not the -inf
], ids=["mul", "matmul", "linear", "linear_slope", "add_layer_norm", "linear_add_layer_norm",
        "unit_rows", "unit_rows_sum", "contrastive_logits", "mean_nll"])
def test_forward_overflow_is_one_non_finite_error(op):
    # under tier-1's filterwarnings = error a numpy RuntimeWarning would
    # surface here instead of the error; an overflowing squared norm must not
    # give a silently zero row
    with pytest.raises(NonFiniteError, match="non-finite values"):
        op(Tensor([[1e308, -1e308]]))


# ---------------------------------------------------------------------------
# batched (3-D) operands


def test_batched_matmul_gradcheck():
    # the core has no matmul node; the products of the reference
    # compositions, stacked ones included, are the tests' own
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 5))
    shared = rng.standard_normal((5, 2))
    stacked = rng.standard_normal((3, 5, 2))
    w = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=False)
    for b in (shared, stacked):
        const_a, const_b = Tensor(a, requires_grad=False), Tensor(b, requires_grad=False)
        assert gradcheck(lambda t: weighted_sum(matmul(t, const_b), w), a) < 1e-8
        assert gradcheck(lambda t: weighted_sum(matmul(const_a, t), w), b) < 1e-8
    # a vector against a stack of matrices, and a stack against a vector
    v = rng.standard_normal(4)
    assert gradcheck(lambda t: total(matmul(t, a)), v) < 1e-8
    u = rng.standard_normal(5)
    wu = Tensor(rng.standard_normal((3, 4)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(matmul(a, t), wu), u) < 1e-8


def test_batched_shape_ops_and_broadcasting_gradcheck():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4, 5))
    w = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=False)
    assert transpose(Tensor(x)).shape == (3, 5, 4)
    assert gradcheck(lambda t: weighted_sum(transpose(t), w), x) < 1e-6
    wk = Tensor(rng.standard_normal((3, 1, 5)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(total(t, axis=1, keepdims=True), wk), x) < 1e-6
    assert total(Tensor(x), axis=-1, keepdims=True).shape == (3, 4, 1)
    bias = rng.standard_normal(5)
    wt = transpose(w)
    assert gradcheck(lambda t: weighted_sum(mul(t, bias), wt), x) < 1e-6
    assert gradcheck(lambda t: weighted_sum(mul(x, t), wt), bias) < 1e-6
    rows = rng.standard_normal((6, 3))
    norms = rng.uniform(0.5, 2.0, (6, 1))
    assert gradcheck(lambda t: total(div(t, norms)), rows) < 1e-6
    assert gradcheck(lambda t: total(div(rows, t)), norms) < 1e-6
    with pytest.raises(GraphError):
        mul(Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros(4)))


def test_batched_concat_and_getitem_gradcheck():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4))
    w = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=False)
    other = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(concat([t, other], axis=-1), w), x) < 1e-6
    assert gradcheck(lambda t: weighted_sum(concat([other, t], axis=-1), w), x) < 1e-6
    ws = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(index(t, np.s_[..., 1:3]), ws), x) < 1e-6
    rows, cols = np.array([0, 2, 2]), np.array([1, 3, 3])  # (2, 3) twice: gradients add
    wf = Tensor(rng.standard_normal((2, 3)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(index(t, np.s_[:, rows, cols]), wf), x) < 1e-6
    m = rng.standard_normal((4, 2))
    picked = (np.arange(4), np.array([1, 0, 0, 1]))
    assert gradcheck(lambda t: weighted_sum(index(t, picked), 2.0), m) < 1e-6


def test_ops_on_constants_keep_no_graph():
    a = Tensor(np.ones((2, 3, 3)), requires_grad=False)
    b = Tensor(np.eye(3), requires_grad=False)
    out = total(softmax(div(neg(mul(a, b)), 2.0), axis=-1), axis=-1)
    assert not out.requires_grad
    assert out.parents == ()
    assert readout(a, b, b).parents == ()
    assert unit_rows(b).parents == () and mean_nll(b, [0, 1, 2]).parents == ()
    assert contrastive_logits(b, b.data, a.data[0], 0.5).parents == ()
    mixed = linear(a, Tensor(np.eye(3)), Tensor(np.zeros(3), requires_grad=False))
    assert mixed.requires_grad and len(mixed.parents) == 3
    # an op node takes requires_grad from its parents, whatever flag is passed
    for flag in (False, True):
        node = Tensor(np.ones(2), requires_grad=flag, op="add",
                      parents=(Tensor(b.data[0, :2], requires_grad=False),
                               Tensor(b.data[1, :2], requires_grad=False)),
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
    gradcheck_each_input(lambda *t: weighted_sum(linear(*t), weights), [x, w, b], 1e-6)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, rtol=0, atol=1e-14)
    assert out.shape == shape[:-1] + (4,) and len(out.parents) == 3
    with pytest.raises(GraphError):
        linear(Tensor(x), Tensor(np.zeros((shape[-1] + 1, 4))), Tensor(b))
    with pytest.raises(GraphError):
        linear(Tensor(x), Tensor(w), Tensor(b[:-1]))


def assert_attention_is_per_head_softmax(out, qkv, heads):
    # one node, rank <= 3, and per head softmax(scale q_h k_h^T) v_h in that
    # head's columns, with scale 1 / sqrt(d / heads)
    dh = out.shape[-1] // heads
    scale = 1.0 / np.sqrt(dh)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = scale * qkv[0][..., sl] @ np.swapaxes(qkv[1][..., sl], -1, -2)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out[..., sl], p @ qkv[2][..., sl], rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape, heads", [((5, 8), 1), ((5, 8), 4), ((2, 5, 8), 1),
                                          ((2, 5, 8), 4)])
def test_attention_gradcheck(shape, heads):
    rng = np.random.default_rng(31)
    qkv = [rng.standard_normal(shape) for _ in range(3)]
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    gradcheck_each_input(lambda q, k, v: weighted_sum(attention(q, k, v, heads), weights),
                         qkv, 1e-6)
    q, k, v = (Tensor(a) for a in qkv)
    out = attention(q, k, v, heads)
    assert out.parents == (q, k, v) and out.shape == shape
    assert_attention_is_per_head_softmax(out.data, qkv, heads)
    with pytest.raises(GraphError):
        attention(q, k, v, 3)
    with pytest.raises(GraphError):
        attention(q, k, Tensor(np.zeros(shape[:-1] + (4,))), heads)


@pytest.mark.parametrize("shape", [(32, 20, 20), (1, 200, 200)], ids=["desk", "paper"])
def test_attention_is_per_head_softmax_at_desk_and_paper_sizes(shape):
    # the scores are stored keys first, so the softmax runs down the rows of
    # one (V, B * heads * V) array; too large to gradcheck, small enough to check
    rng = np.random.default_rng(34)
    qkv = [rng.standard_normal(shape) for _ in range(3)]
    assert_attention_is_per_head_softmax(attention(*(Tensor(a) for a in qkv), 4).data, qkv, 4)


def test_attention_of_a_batch_is_its_samples_one_at_a_time_bit_for_bit():
    # the keys-first softmax reduces each query's column on its own, so a
    # sample's output and gradients do not depend on the rest of its batch
    rng = np.random.default_rng(35)
    qkv = [rng.standard_normal((6, 20, 20)) for _ in range(3)]
    g = rng.standard_normal((6, 20, 20))

    def output_and_gradients(arrays, g):
        out = attention(*(Tensor(a) for a in arrays), 4)
        return [out.data, *out._vjp(g, (True, True, True))]

    batch = output_and_gradients(qkv, g)
    for i in range(6):
        one = output_and_gradients([a[i] for a in qkv], g[i])
        for j, (a, b) in enumerate(zip(batch, one)):
            assert a[i].tobytes() == b.tobytes(), (i, j)


@pytest.mark.parametrize("shape", [(5, 6), (2, 5, 6)])
def test_add_layer_norm_gradcheck(shape):
    rng = np.random.default_rng(32)
    d = shape[-1]
    arrays = [rng.standard_normal(shape), rng.standard_normal(shape),
              rng.uniform(0.5, 1.5, d), rng.standard_normal(d)]
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    gradcheck_each_input(lambda *t: weighted_sum(add_layer_norm(*t), weights), arrays, 1e-6)
    x, r, gain, bias = (Tensor(a) for a in arrays)
    out = add_layer_norm(x, r, gain, bias)
    reference = add(mul(layer_norm(add(x, r)), gain), bias)
    np.testing.assert_array_equal(out.data, reference.data)
    assert out.parents == (x, r, gain, bias)
    # a tensor added to itself gets both gradient contributions
    loss = weighted_sum(add_layer_norm(x, x, gain, bias), weights)
    ref = weighted_sum(add(mul(layer_norm(add(x, x)), gain), bias), weights)
    np.testing.assert_allclose(backward(loss, wrt=[x])[x],
                               backward(ref, wrt=[x])[x], rtol=0, atol=1e-12)
    with pytest.raises(GraphError):
        add_layer_norm(x, r, Tensor(np.ones(d + 1)), bias)


@pytest.mark.parametrize("shape", [(4,), (5, 3), (2, 5, 3)])
def test_linear_with_a_slope_gradcheck(shape):
    rng = np.random.default_rng(38)
    arrays = [rng.standard_normal(shape), rng.standard_normal((shape[-1], 4)),
              rng.standard_normal(4)]
    weights = Tensor(rng.standard_normal(shape[:-1] + (4,)), requires_grad=False)
    gradcheck_each_input(lambda *t: weighted_sum(linear(*t, 0.1), weights), arrays, 1e-6)
    affine = arrays[0] @ arrays[1] + arrays[2]
    out = linear(*(Tensor(a) for a in arrays), 0.1)
    np.testing.assert_allclose(out.data, np.where(affine > 0, affine, 0.1 * affine),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(5, 6), (2, 5, 6)])
def test_linear_add_layer_norm_gradcheck(shape):
    rng = np.random.default_rng(39)
    d = shape[-1]
    arrays = [rng.standard_normal(shape), rng.standard_normal(shape[:-1] + (3,)),
              rng.standard_normal((3, d)), rng.standard_normal(d),
              rng.uniform(0.5, 1.5, d), rng.standard_normal(d)]
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    gradcheck_each_input(lambda *t: weighted_sum(linear_add_layer_norm(*t), weights),
                         arrays, 1e-6)
    x, h, w, b, gain, bias = (Tensor(a) for a in arrays)
    out = linear_add_layer_norm(x, h, w, b, gain, bias)
    assert out.shape == shape and out.parents == (x, h, w, b, gain, bias)
    wide = (Tensor(np.ones((3, d + 1))), Tensor(np.ones(d + 1)))  # a branch wider than x
    for args in [(x, h, Tensor(np.ones((4, d))), b, gain, bias), (x, h, *wide, gain, bias),
                 (x, h, w, b, Tensor(np.ones(d + 1)), bias),
                 (x, h, w, b, gain, Tensor(np.ones(d + 1)))]:
        with pytest.raises(GraphError, match="linear_add_layer_norm shape mismatch"):
            linear_add_layer_norm(*args)


@pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4)])
def test_readout_gradcheck(shape):
    rng = np.random.default_rng(34)
    arrays = [rng.standard_normal(shape), rng.standard_normal((3, 4)),
              rng.standard_normal((4, 2))]
    weights = Tensor(rng.standard_normal(shape[:-2] + (6,)), requires_grad=False)
    gradcheck_each_input(lambda *t: weighted_sum(readout(*t), weights), arrays, 1e-6)
    z, centers, w_out = (Tensor(a) for a in arrays)
    out = readout(z, centers, w_out)
    assert out.parents == (z, centers, w_out) and out.shape == shape[:-2] + (6,)


def equal_values_and_gradients(fused, reference, arrays, weights=None):
    """Run ``fused`` and ``reference`` on leaves of ``arrays`` and compare the
    outputs and the gradients of every leaf by their bytes; ``weights`` turn
    a non-scalar output into a loss."""
    results = []
    for fn in (fused, reference):
        leaves = [Tensor(a) for a in arrays]
        out = fn(*leaves)
        loss = out if weights is None else weighted_sum(out, weights)
        grads = backward(loss, wrt=leaves)
        results.append([out.data] + [grads[t] for t in leaves])
    for i, (a, b) in enumerate(zip(*results)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("n_nodes, n_clusters, batch", [
    (20, 10, None), (20, 10, 1), (20, 10, 32),  # the criterion-7 desk model
    (200, 100, None), (200, 100, 1), (200, 100, 32),  # the paper-scale default
])
def test_readout_matches_reference_composition_bit_for_bit(n_nodes, n_clusters, batch):
    rng = np.random.default_rng(n_nodes + (batch or 0))
    z_shape = (n_nodes, n_nodes) if batch is None else (batch, n_nodes, n_nodes)
    arrays = [rng.standard_normal(z_shape),
              np.linalg.qr(rng.standard_normal((n_nodes, n_clusters)))[0].T,
              rng.uniform(-0.2, 0.2, (n_nodes, 8))]
    equal_values_and_gradients(readout, readout_reference, arrays,
                               rng.standard_normal(z_shape[:-2] + (n_clusters * 8,)))


# the desk encoder's feed-forward (V=20, width 40), the heads' one-sample
# vectors and the paper-scale feed-forward (V=200, width 400)
@pytest.mark.parametrize("shape, width", [((6,), 5), ((32, 20, 20), 40), ((640, 20), 40),
                                          ((2, 200, 200), 400)])
def test_linear_with_a_slope_matches_separate_nodes_bit_for_bit(shape, width):
    rng = np.random.default_rng(width + len(shape))
    arrays = [rng.standard_normal(shape), rng.uniform(-0.3, 0.3, (shape[-1], width)),
              rng.uniform(-0.3, 0.3, width)]
    equal_values_and_gradients(lambda x, w, b: linear(x, w, b, 0.01),
                               lambda x, w, b: leaky_relu(linear(x, w, b), 0.01), arrays,
                               rng.standard_normal(shape[:-1] + (width,)))


# the desk encoder's two residual branches (attention, width 20; feed-forward,
# width 40 back to 20), one sample and the paper-scale feed-forward
@pytest.mark.parametrize("shape, width", [((32, 20, 20), 20), ((32, 20, 40), 20),
                                          ((20, 40), 20), ((2, 200, 400), 200)])
def test_linear_add_layer_norm_matches_separate_nodes_bit_for_bit(shape, width):
    rng = np.random.default_rng(width + shape[-1] + len(shape))
    arrays = [rng.standard_normal(shape[:-1] + (width,)), rng.standard_normal(shape),
              rng.uniform(-0.3, 0.3, (shape[-1], width)), rng.uniform(-0.3, 0.3, width),
              rng.uniform(0.5, 1.5, width), rng.standard_normal(width)]
    equal_values_and_gradients(
        linear_add_layer_norm,
        lambda x, h, w, b, gain, bias: add_layer_norm(x, linear(h, w, b), gain, bias), arrays,
        rng.standard_normal(shape[:-1] + (width,)))


@pytest.mark.parametrize("adopted", [True, False])
def test_linear_add_layer_norm_with_x_as_the_branch_input(adopted):
    # backward adopts x's gradient, the add-and-norm gradient itself, as x's
    # accumulator (unless x already has one) and adds the branch input's
    # gradient into it when both are one tensor; the weight and bias
    # gradients must still read it unsummed
    rng = np.random.default_rng(42)
    arrays = [rng.standard_normal((3, 4)), rng.uniform(-0.5, 0.5, (4, 4)),
              rng.uniform(-0.5, 0.5, 4), rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)]
    weights, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    results = []
    for fn in (linear_add_layer_norm,
               lambda x, h, w, b, gain, bias: add_layer_norm(x, linear(h, w, b), gain, bias)):
        leaves = [Tensor(a) for a in arrays]
        x = leaves[0]
        loss = weighted_sum(fn(x, x, *leaves[1:]), weights)
        if not adopted:  # a newer node gives x its first gradient
            loss = add(loss, weighted_sum(x, v))
        grads = backward(loss, wrt=leaves)
        results.append([grads[t] for t in leaves])
    for i, (a, b) in enumerate(zip(*results)):
        assert a.tobytes() == b.tobytes(), i


def test_readout_rejects_mismatched_shapes():
    z, centers, w_out = Tensor(np.ones((5, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
    for args in [(Tensor(np.ones(4)), centers, w_out),
                 (z, Tensor(np.ones((3, 5))), w_out),
                 (z, Tensor(np.ones(4)), w_out),
                 (z, centers, Tensor(np.ones((5, 2)))),
                 (z, centers, Tensor(np.ones(4))),
                 (Tensor(np.ones((2, 5, 3))), centers, w_out)]:
        with pytest.raises(GraphError, match="readout shape mismatch"):
            readout(*args)


def unit_vectors(rng, shape):
    rows = rng.standard_normal(shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_unit_rows_gradcheck(shape):
    rng = np.random.default_rng(35)
    weights = Tensor(rng.standard_normal(shape), requires_grad=False)
    gradcheck_each_input(lambda x: weighted_sum(unit_rows(x), weights),
                         [rng.standard_normal(shape)], 1e-6)
    out = unit_rows(Tensor(rng.standard_normal(shape)))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("query_shape, n_queue", [((4,), 0), ((4,), 5), ((3, 4), 0),
                                                  ((3, 4), 5)])
def test_contrastive_logits_gradcheck(query_shape, n_queue):
    rng = np.random.default_rng(36)
    keys, queue = unit_vectors(rng, query_shape), unit_vectors(rng, (n_queue, 4))
    weights = Tensor(rng.standard_normal(query_shape[:-1] + (1 + n_queue,)), requires_grad=False)
    gradcheck_each_input(lambda q: weighted_sum(contrastive_logits(q, keys, queue, 0.2), weights),
                         [unit_vectors(rng, query_shape)], 1e-6)
    out = contrastive_logits(Tensor(unit_vectors(rng, query_shape)), keys, queue, 0.2)
    assert out.shape == query_shape[:-1] + (1 + n_queue,)


@pytest.mark.parametrize("shape, labels", [((2,), 1), ((4, 2), [0, 1, 1, 0]), ((3, 6), [0, 0, 0])])
def test_mean_nll_gradcheck(shape, labels):
    rng = np.random.default_rng(37)
    gradcheck_each_input(lambda x: mean_nll(x, labels), [rng.standard_normal(shape)], 1e-6)
    logits = rng.standard_normal(shape)
    log_p = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    expected = -np.mean(np.take_along_axis(log_p, np.reshape(labels, shape[:-1] + (1,)), -1))
    np.testing.assert_allclose(mean_nll(Tensor(logits), labels).item(), expected, rtol=1e-14)


@pytest.mark.parametrize("shape", [(16,), (1, 16), (32, 16), (32, 128)])
def test_unit_rows_matches_reference_composition_bit_for_bit(shape):
    rng = np.random.default_rng(shape[-1] + len(shape))
    equal_values_and_gradients(unit_rows, unit_rows_reference, [rng.standard_normal(shape)],
                               rng.standard_normal(shape))


@pytest.mark.parametrize("query_shape, n_queue", [
    ((16,), 0), ((16,), 40), ((1, 16), 40),  # a single query; the empty-queue first step
    ((32, 16), 0), ((32, 16), 256), ((8, 128), 512),
])
def test_contrastive_logits_matches_reference_composition_bit_for_bit(query_shape, n_queue):
    rng = np.random.default_rng(query_shape[-1] + n_queue)
    keys, queue = unit_vectors(rng, query_shape), unit_vectors(rng, (n_queue, query_shape[-1]))
    labels = np.zeros(query_shape[:-1], dtype=np.intp)
    equal_values_and_gradients(lambda q: contrastive_logits(q, keys, queue, 0.07),
                               lambda q: contrastive_logits_reference(q, keys, queue, 0.07),
                               [unit_vectors(rng, query_shape)],
                               rng.standard_normal(query_shape[:-1] + (1 + n_queue,)))
    # and the whole InfoNCE loss, the log-softmax at the positive included
    equal_values_and_gradients(
        lambda q: mean_nll(contrastive_logits(q, keys, queue, 0.07), labels),
        lambda q: mean_nll_reference(contrastive_logits_reference(q, keys, queue, 0.07), labels),
        [unit_vectors(rng, query_shape)])


@pytest.mark.parametrize("shape, labels", [
    ((2,), 1), ((1, 2), [0]), ((32, 2), "random"),  # one-sample and batched cross-entropy
    ((32, 1), "zeros"), ((32, 257), "zeros"),  # InfoNCE: the positive is column 0
])
def test_mean_nll_matches_reference_composition_bit_for_bit(shape, labels):
    rng = np.random.default_rng(shape[-1] + len(shape))
    if labels == "random":
        labels = rng.integers(0, shape[-1], shape[:-1])
    elif labels == "zeros":
        labels = np.zeros(shape[:-1], dtype=np.intp)
    equal_values_and_gradients(lambda x: mean_nll(x, labels),
                               lambda x: mean_nll_reference(x, labels),
                               [rng.standard_normal(shape) * 3.0])


@pytest.mark.parametrize("fn, shapes", [
    (linear, [(4,), (4, 3), (3,)]),
    (linear, [(2, 5, 4), (4, 3), (3,)]),
    (lambda x, w, b: linear(x, w, b, 0.01), [(2, 5, 4), (4, 3), (3,)]),
    (lambda q, k, v: attention(q, k, v, 1), [(5, 4)] * 3),
    (lambda q, k, v: attention(q, k, v, 2), [(2, 5, 4)] * 3),
], ids=["linear_vector", "linear_batch", "linear_slope_batch", "attention_one_head",
        "attention_batch"])
def test_fused_gradients_are_fresh_arrays_backward_can_adopt(fn, shapes):
    rng = np.random.default_rng(33)
    out = fn(*(Tensor(rng.standard_normal(s)) for s in shapes))
    grads = list(out._vjp(rng.standard_normal(out.shape), (True,) * len(shapes)))
    for grad, shape in zip(grads, shapes):
        assert grad.shape == shape and grad.base is None and grad.flags.writeable


def test_leaky_relu_keeps_a_boolean_mask():
    # linear's leaky ReLU keeps no affine output: of the arrays of the
    # output's size, its backward holds only the boolean mask (read before
    # backward, which spends the node)
    x = Tensor([[-2.0, 0.0, 3.0, 1.0]])
    out = linear(x, Tensor(np.eye(4)[:, :3]), Tensor(np.zeros(3)), 0.1)
    np.testing.assert_array_equal(out.data, [[-0.2, 0.0, 3.0]])
    saved = [c.cell_contents for c in out._vjp.__closure__
             if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.size == out.data.size]
    assert [a.dtype for a in saved] == [np.bool_]
    np.testing.assert_array_equal(backward(total(out), wrt=[x])[x], [[0.1, 0.1, 1.0, 0.0]])


def test_leaky_relu_forward_is_the_slope_gather_bit_for_bit():
    x = np.random.default_rng(41).standard_normal((6, 5))
    x[0, :3] = [0.0, 1e-310, -1e-310]
    identity, zero = Tensor(np.eye(5)), Tensor(np.zeros(5))
    affine = linear(Tensor(x), identity, zero).data  # x, zeros and subnormals included
    for slope in (0.0, 0.01, 0.3, 1.0):
        expected = affine * np.array([slope, 1.0]).take(affine > 0)
        assert linear(Tensor(x), identity, zero, slope).data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("slope", [-0.01, 1.5, np.nan])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(slope):
    with pytest.raises(ValueError, match="negative_slope must lie in"):
        linear(Tensor([1.0, -1.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)), slope)


# ---------------------------------------------------------------------------
# node protocol: one vjp(g, needed) per node, one gradient per parent

# add, sub, mul, div, the matmuls, concat and add_layer_norm are the test
# references' own nodes: the compositions the fused nodes are checked against
# rely on the same protocol
PROTOCOL_CASES = {
    "add": (add, [(2, 3, 4), (4,)]),
    "sub": (sub, [(3, 1), (2, 3, 4)]),
    "mul": (mul, [(2, 1, 4), (3, 1)]),
    "div": (div, [(3, 4), (2, 1, 4)]),
    "matmul_vector": (matmul, [(4,), (4, 3)]),
    "matmul_matrix": (matmul, [(3, 4), (4,)]),
    "matmul_stacked": (matmul, [(2, 3, 4), (4, 5)]),
    "matmul_both_stacked": (matmul, [(2, 3, 4), (2, 4, 5)]),
    "concat": (lambda *t: concat(t, axis=-1), [(2, 3), (2, 1), (2, 4)]),
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)]),
    "linear_slope": (lambda x, w, b: linear(x, w, b, 0.01), [(2, 3, 4), (4, 5), (5,)]),
    "attention": (lambda q, k, v: attention(q, k, v, 2), [(2, 3, 4)] * 3),
    "add_layer_norm": (add_layer_norm, [(2, 3, 4), (2, 3, 4), (4,), (4,)]),
    "linear_add_layer_norm": (linear_add_layer_norm,
                              [(2, 3, 5), (2, 3, 4), (4, 5), (5,), (5,), (5,)]),
    "readout": (readout, [(2, 5, 4), (3, 4), (4, 2)]),
    "unit_rows": (unit_rows, [(2, 3)]),
    "contrastive_logits": (lambda q: contrastive_logits(q, np.ones((2, 3)), np.ones((4, 3)), 0.5),
                           [(2, 3)]),
    "mean_nll": (lambda x: mean_nll(x, [0, 2]), [(2, 3)]),
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
    assert (set(methods) | set(functions)) - called == set()
