import tracemalloc

import numpy as np
import pytest

from braincl.data import check_connectomes
from braincl.model import (
    LEAKY_SLOPE,
    EncoderConfig,
    RankDeficiencyError,
    as_tensors,
    classify,
    cross_entropy,
    encoder_forward,
    features,
    gram_schmidt,
    init_classifier_params,
    init_encoder_params,
    init_projection_params,
    parameter_counts,
    project,
)
from braincl.numcore import (NonFiniteError, Tensor, attention, backward, gradcheck, linear,
                             readout, unit_rows)
from references import (add, add_layer_norm, concat, div, index, layer_norm, leaky_relu, matmul,
                        mul, readout_reference, relabel_nodes, softmax, sqrt, stack, sub, total,
                        transpose, unit_rows_reference, weighted_sum)


def small_cfg(n_nodes=8, n_clusters=4, proj_dim=16) -> EncoderConfig:
    return EncoderConfig(n_nodes=n_nodes, layers=2, heads=4,
                         n_clusters=n_clusters, proj_dim=proj_dim)


def random_connectome(rng, n):
    m = rng.uniform(-0.9, 0.9, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    check_connectomes(m)
    return m


def full_params(cfg, seed=0):
    rng = np.random.default_rng(seed)
    arrays = init_encoder_params(cfg, rng)
    arrays.update(init_classifier_params(cfg, rng))
    arrays.update(init_projection_params(cfg, rng))
    return arrays


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(n_nodes=10, heads=3)  # 10 % 3 != 0
    with pytest.raises(ValueError):
        EncoderConfig(n_nodes=4, heads=2, n_clusters=8)  # clusters > width
    cfg = EncoderConfig(n_nodes=200)
    assert cfg.d_model == 200
    assert cfg.feature_dim == 800  # 8 per cluster, 100 clusters


def test_config_resolves_its_widths_once_built():
    # the paper's 4 heads and 100 clusters scale down to a small graph's width
    assert EncoderConfig(n_nodes=20) == \
        EncoderConfig(n_nodes=20, heads=4, d_model=20, ffn_dim=40, n_clusters=20)
    cfg = EncoderConfig(n_nodes=20, d_model=10)
    assert (cfg.heads, cfg.ffn_dim, cfg.n_clusters) == (2, 20, 10)
    assert (EncoderConfig(n_nodes=200).heads, EncoderConfig(n_nodes=200).n_clusters) == (4, 100)
    assert EncoderConfig(n_nodes=7).heads == 1
    assert EncoderConfig(n_nodes=20, ffn_dim=7).ffn_dim == 7
    # values given explicitly are validated as given
    with pytest.raises(ValueError, match="d_model must be positive, got 0"):
        EncoderConfig(n_nodes=20, d_model=0)
    with pytest.raises(ValueError, match="d_model 10 not divisible by heads 3"):
        EncoderConfig(n_nodes=20, d_model=10, heads=3)
    with pytest.raises(ValueError, match="n_clusters cannot exceed d_model"):
        EncoderConfig(n_nodes=20, n_clusters=21)


# ---------------------------------------------------------------------------
# encoder


def test_encoder_output_shape():
    cfg = EncoderConfig(n_nodes=20, n_clusters=10)
    params = as_tensors(init_encoder_params(cfg, np.random.default_rng(0)))
    conn = random_connectome(np.random.default_rng(1), 20)
    z = encoder_forward(conn, params, cfg)
    assert z.shape == (20, 20)


def test_duplicate_nodes_get_identical_embeddings():
    # two nodes with identical connectivity profiles are indistinguishable
    cfg = small_cfg()
    params = as_tensors(init_encoder_params(cfg, np.random.default_rng(2)))
    rng = np.random.default_rng(3)
    m = rng.uniform(-0.8, 0.8, (8, 8))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    m[3, :] = m[5, :]
    m[:, 3] = m[3, :]
    m[3, 3] = 1.0
    m[3, 5] = m[5, 3] = 1.0
    check_connectomes(m)
    assert np.array_equal(m[3], m[5])
    z = encoder_forward(m, params, cfg).data
    np.testing.assert_allclose(z[3], z[5], atol=1e-12)


def test_encoder_node_relabeling_equivariance():
    cfg = small_cfg()
    arrays = init_encoder_params(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    conn = random_connectome(rng, 8)
    z = encoder_forward(conn, as_tensors(arrays), cfg).data
    pooled = features(conn, as_tensors(arrays), cfg).data
    for _ in range(50):
        perm = rng.permutation(8)
        permuted = conn[perm][:, perm]
        check_connectomes(permuted)
        relabeled = as_tensors(relabel_nodes(arrays, perm))
        z_perm = encoder_forward(permuted, relabeled, cfg).data
        np.testing.assert_allclose(z_perm, z[perm], atol=1e-10)
        # cluster embeddings are invariant, not just equivariant
        pooled_perm = features(permuted, relabeled, cfg).data
        np.testing.assert_allclose(pooled_perm, pooled, atol=1e-10)


def test_forward_is_deterministic():
    cfg = small_cfg()
    arrays = full_params(cfg, seed=6)
    conn = random_connectome(np.random.default_rng(7), 8)
    a = features(conn, as_tensors(arrays), cfg).data
    b = features(conn, as_tensors(arrays), cfg).data
    assert np.array_equal(a, b)


def test_batched_features_match_per_sample():
    # one forward over a stacked (B, V, V) batch is the per-sample forward,
    # values and parameter gradients alike
    cfg = small_cfg()
    arrays = full_params(cfg, seed=25)
    rng = np.random.default_rng(26)
    conns = [random_connectome(rng, 8) for _ in range(5)]
    weights = rng.standard_normal((5, cfg.feature_dim))

    leaves = as_tensors(arrays)
    batched = features(np.stack(conns), leaves, cfg)
    assert batched.shape == (5, cfg.feature_dim)
    batched_grads = backward(weighted_sum(batched, weights), wrt=list(leaves.values()))

    leaves_one = as_tensors(arrays)
    singles = [features(c, leaves_one, cfg) for c in conns]
    loss = total(stack([weighted_sum(f, w) for f, w in zip(singles, weights)]))
    single_grads = backward(loss, wrt=list(leaves_one.values()))

    np.testing.assert_allclose(batched.data, np.stack([f.data for f in singles]),
                               rtol=0, atol=1e-12)
    for name in arrays:
        np.testing.assert_allclose(batched_grads[leaves[name]],
                                   single_grads[leaves_one[name]],
                                   rtol=0, atol=1e-12, err_msg=name)


def test_encoder_rejects_wrong_shape():
    cfg = small_cfg()
    params = as_tensors(init_encoder_params(cfg, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        encoder_forward(np.eye(9), params, cfg)


# ---------------------------------------------------------------------------
# gram_schmidt


def test_gram_schmidt_fixed_point_on_identity_block():
    e = Tensor(np.eye(4)[:3])
    out = gram_schmidt(e).data
    assert np.array_equal(out, np.eye(4)[:3])


def test_gram_schmidt_two_row_example():
    e = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
    out = gram_schmidt(e).data
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_gram_schmidt_orthonormality_and_span():
    rng = np.random.default_rng(8)
    e = rng.standard_normal((5, 9))
    out = gram_schmidt(Tensor(e)).data
    np.testing.assert_allclose(out @ out.T, np.eye(5), atol=1e-10)
    # span preserved: original rows are reproduced by their projections
    recon = (e @ out.T) @ out
    np.testing.assert_allclose(recon, e, atol=1e-10)


def test_gram_schmidt_idempotent():
    rng = np.random.default_rng(9)
    e = rng.standard_normal((6, 8))
    once = gram_schmidt(Tensor(e)).data
    twice = gram_schmidt(Tensor(once)).data
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_gram_schmidt_rank_deficiency_error_names_row():
    later = np.random.default_rng(10).standard_normal((4, 6))
    later[2] = later[0] - 2.0 * later[1]
    cases = [
        (np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), "row 1"),
        (later, "row 2"),  # the first dependent row is named, not row 0 or 3
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "row 2"),  # more rows than dims
    ]
    for e, row in cases:
        with pytest.raises(RankDeficiencyError, match=row):
            gram_schmidt(Tensor(e))
    # the threshold: row 2's residual norm is its last entry, and 1e-8 is the limit
    def near(residual):
        return Tensor([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, residual]])

    with pytest.raises(RankDeficiencyError, match=r"row 2 .*residual norm 1\.000e-09"):
        gram_schmidt(near(1e-9))
    np.testing.assert_allclose(gram_schmidt(near(1e-6)).data, np.eye(3), atol=1e-12)


def mgs_reference(centers: Tensor) -> Tensor:
    """Modified Gram-Schmidt as a graph of elementary ops: the reference the
    single-node QR form must reproduce, values and gradients."""
    rows: list[Tensor] = []
    for i in range(centers.shape[0]):
        v = index(centers, i)
        for q in rows:
            v = sub(v, mul(total(mul(v, q)), q))
        rows.append(div(v, sqrt(total(mul(v, v)))))
    return stack(rows)


@pytest.mark.parametrize("n_rows, dim", [(10, 20), (30, 60)])
def test_gram_schmidt_matches_mgs_graph(n_rows, dim):
    rng = np.random.default_rng(n_rows)
    e = rng.standard_normal((n_rows, dim))
    w = Tensor(rng.standard_normal((n_rows, dim)), requires_grad=False)
    results = []
    for fn in (gram_schmidt, mgs_reference):
        leaf = Tensor(e)
        out = fn(leaf)
        results.append((out.data, backward(weighted_sum(out, w), wrt=[leaf])[leaf]))
    (qr_out, qr_grad), (mgs_out, mgs_grad) = results
    assert np.abs(qr_out - mgs_out).max() < 1e-12
    assert np.abs(qr_grad - mgs_grad).max() < 1e-12

    leaf = Tensor(e)
    assert gram_schmidt(leaf).parents == (leaf,)


@pytest.mark.parametrize("n_rows, dim", [(1, 5), (3, 3), (4, 7)])
def test_gram_schmidt_gradcheck(n_rows, dim):
    rng = np.random.default_rng(dim)
    e = rng.standard_normal((n_rows, dim))
    w = Tensor(rng.standard_normal((n_rows, dim)), requires_grad=False)
    assert gradcheck(lambda t: weighted_sum(gram_schmidt(t), w), e) < 1e-6


def test_init_centers_orthonormal_at_paper_scale():
    cfg = EncoderConfig(n_nodes=200, layers=1, n_clusters=100)
    centers = init_encoder_params(cfg, np.random.default_rng(0))["readout.centers"]
    assert centers.shape == (100, 200)
    assert np.abs(centers @ centers.T - np.eye(100)).max() < 1e-12


# ---------------------------------------------------------------------------
# fused encoder and heads against the elementary-op composition


def affine_reference(x: Tensor, params, w: str, b: str) -> Tensor:
    return add(matmul(x, params[w]), params[b])


def encoder_reference(conn, params, cfg: EncoderConfig) -> Tensor:
    """The encoder as a graph of elementary ops (matmul plus bias add, a
    per-head loop of slices, a concat, add then layer_norm then affine): the
    reference the fused linear, attention and linear_add_layer_norm nodes must
    reproduce, values and gradients."""
    z = affine_reference(Tensor(conn, requires_grad=False), params, "embed.w", "embed.b")
    head_dim = cfg.d_model // cfg.heads
    scale = 1.0 / np.sqrt(head_dim)
    for i in range(cfg.layers):
        pre = f"layer{i}"
        q = affine_reference(z, params, f"{pre}.attn.wq", f"{pre}.attn.qb")
        k = affine_reference(z, params, f"{pre}.attn.wk", f"{pre}.attn.kb")
        v = affine_reference(z, params, f"{pre}.attn.wv", f"{pre}.attn.vb")
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * head_dim, (h + 1) * head_dim)
            scores = mul(matmul(index(q, np.s_[..., sl]), transpose(index(k, np.s_[..., sl]))),
                         scale)
            heads.append(matmul(softmax(scores, axis=-1), index(v, np.s_[..., sl])))
        attn = affine_reference(concat(heads, axis=-1), params,
                                f"{pre}.attn.wo", f"{pre}.attn.ob")
        z = add(mul(layer_norm(add(z, attn)), params[f"{pre}.norm1.gain"]),
                params[f"{pre}.norm1.bias"])
        hidden = leaky_relu(affine_reference(z, params, f"{pre}.ffn.w1", f"{pre}.ffn.b1"), 0.01)
        ffn = affine_reference(hidden, params, f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        z = add(mul(layer_norm(add(z, ffn)), params[f"{pre}.norm2.gain"]),
                params[f"{pre}.norm2.bias"])
    return z


def features_reference(conn, params, cfg: EncoderConfig) -> Tensor:
    z = encoder_reference(conn, params, cfg)
    return readout_reference(z, gram_schmidt(params["readout.centers"]), params["readout.w_out"])


def project_reference(feats: Tensor, params) -> Tensor:
    h = leaky_relu(affine_reference(feats, params, "project.w1", "project.b1"), 0.01)
    raw = affine_reference(h, params, "project.w2", "project.b2")
    return unit_rows_reference(raw)


def classify_reference(feats: Tensor, params) -> Tensor:
    h = leaky_relu(affine_reference(feats, params, "classifier.w1", "classifier.b1"), 0.01)
    h = leaky_relu(affine_reference(h, params, "classifier.w2", "classifier.b2"), 0.01)
    return affine_reference(h, params, "classifier.w3", "classifier.b3")


@pytest.mark.parametrize("n_nodes, n_clusters, batch", [(20, 10, 32), (200, 100, 2)])
def test_fused_model_matches_reference_composition(n_nodes, n_clusters, batch):
    # the desk config (criterion 7) and the paper-scale default encoder
    cfg = EncoderConfig(n_nodes=n_nodes, n_clusters=n_clusters, proj_dim=32)
    arrays = full_params(cfg, seed=n_nodes)
    rng = np.random.default_rng(n_nodes + 1)
    conns = np.stack([random_connectome(rng, n_nodes) for _ in range(batch)])
    paths = {
        "encoder_forward": (lambda p: encoder_forward(conns, p, cfg),
                            lambda p: encoder_reference(conns, p, cfg)),
        "features": (lambda p: features(conns, p, cfg),
                     lambda p: features_reference(conns, p, cfg)),
        "project": (lambda p: project(features(conns, p, cfg), p),
                    lambda p: project_reference(features_reference(conns, p, cfg), p)),
        "classify": (lambda p: classify(features(conns, p, cfg), p),
                     lambda p: classify_reference(features_reference(conns, p, cfg), p)),
    }
    for path, (fused, reference) in paths.items():
        results = []
        for fn in (fused, reference):
            leaves = as_tensors(arrays)
            out = fn(leaves)
            weights = Tensor(np.random.default_rng(3).standard_normal(out.shape),
                             requires_grad=False)
            grads = backward(weighted_sum(out, weights), wrt=list(leaves.values()))
            results.append((out.data, {n: grads[leaves[n]] for n in arrays}))
        (out, grads), (ref_out, ref_grads) = results
        assert np.abs(out - ref_out).max() <= 1e-12, path
        for name in arrays:
            bound = 1e-10 * (1.0 + np.abs(ref_grads[name]).max())
            assert np.abs(grads[name] - ref_grads[name]).max() <= bound, (path, name)


# ---------------------------------------------------------------------------
# fused encoder and heads against separate activation and add-norm nodes


def encoder_unfused(conn, params, cfg: EncoderConfig) -> Tensor:
    """The encoder with a node of its own for each leaky ReLU and each
    residual branch's last map: ``linear``, then the references'
    ``leaky_relu`` and ``add_layer_norm``, which ``linear``'s slope and
    ``linear_add_layer_norm`` fold together."""
    z = linear(Tensor(conn, requires_grad=False), params["embed.w"], params["embed.b"])
    for i in range(cfg.layers):
        pre = f"layer{i}"
        q, k, v = (linear(z, params[f"{pre}.attn.w{c}"], params[f"{pre}.attn.{c}b"])
                   for c in "qkv")
        attn = linear(attention(q, k, v, cfg.heads),
                      params[f"{pre}.attn.wo"], params[f"{pre}.attn.ob"])
        z = add_layer_norm(z, attn, params[f"{pre}.norm1.gain"], params[f"{pre}.norm1.bias"])
        hidden = leaky_relu(linear(z, params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.b1"]),
                            LEAKY_SLOPE)
        ffn = linear(hidden, params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.b2"])
        z = add_layer_norm(z, ffn, params[f"{pre}.norm2.gain"], params[f"{pre}.norm2.bias"])
    return z


def features_unfused(conn, params, cfg: EncoderConfig) -> Tensor:
    return readout(encoder_unfused(conn, params, cfg), gram_schmidt(params["readout.centers"]),
                   params["readout.w_out"])


@pytest.mark.parametrize("batch", [None, 32])
def test_fused_model_matches_separate_nodes_bit_for_bit(batch):
    # the desk config (criterion 7), one sample and a batch: the fused nodes
    # make the separate nodes' numpy calls, so every output and gradient has
    # the same bytes
    cfg = EncoderConfig(n_nodes=20, n_clusters=10, proj_dim=32)
    arrays = full_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    conns = [random_connectome(rng, 20) for _ in range(batch or 1)]
    conns = conns[0] if batch is None else np.stack(conns)

    def project_unfused(feats, p):
        h = leaky_relu(linear(feats, p["project.w1"], p["project.b1"]), LEAKY_SLOPE)
        return unit_rows(linear(h, p["project.w2"], p["project.b2"]))

    def classify_unfused(feats, p):
        h = leaky_relu(linear(feats, p["classifier.w1"], p["classifier.b1"]), LEAKY_SLOPE)
        h = leaky_relu(linear(h, p["classifier.w2"], p["classifier.b2"]), LEAKY_SLOPE)
        return linear(h, p["classifier.w3"], p["classifier.b3"])

    paths = {
        "features": (lambda p: features(conns, p, cfg), lambda p: features_unfused(conns, p, cfg)),
        "project": (lambda p: project(features(conns, p, cfg), p),
                    lambda p: project_unfused(features_unfused(conns, p, cfg), p)),
        "classify": (lambda p: classify(features(conns, p, cfg), p),
                     lambda p: classify_unfused(features_unfused(conns, p, cfg), p)),
    }
    for path, (fused, unfused) in paths.items():
        results = []
        for fn in (fused, unfused):
            leaves = as_tensors(arrays)
            out = fn(leaves)
            weights = np.random.default_rng(3).standard_normal(out.shape)
            grads = backward(weighted_sum(out, weights), wrt=list(leaves.values()))
            results.append([out.data] + [grads[leaves[n]] for n in arrays])
        for i, (a, b) in enumerate(zip(*results)):
            assert a.tobytes() == b.tobytes(), (path, i)


def test_fused_encoder_peaks_below_separate_nodes():
    # one query forward and backward through features on a fixed desk-config
    # batch (V=20, K=10, batch 32): the fused nodes keep neither the residual
    # branches' outputs nor the feed-forward's pre-activation, so the traced
    # peak of live arrays must fall below that of the same encoder built from
    # separate nodes, measured the same way in the same process
    cfg = EncoderConfig(n_nodes=20, n_clusters=10, proj_dim=32)
    arrays = init_encoder_params(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    conns = np.stack([random_connectome(rng, 20) for _ in range(32)])
    weights = rng.standard_normal((32, cfg.feature_dim))

    def traced_peak(forward) -> int:
        leaves = as_tensors(arrays)
        tracemalloc.start()
        try:
            backward(weighted_sum(forward(conns, leaves, cfg), weights), wrt=list(leaves.values()))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fused, unfused = traced_peak(features), traced_peak(features_unfused)
    assert fused < unfused, (fused, unfused)


# ---------------------------------------------------------------------------
# readout


def test_readout_assignments_sum_to_one_and_shape():
    cfg = small_cfg()
    arrays = init_encoder_params(cfg, np.random.default_rng(10))
    params = as_tensors(arrays)
    conn = random_connectome(np.random.default_rng(11), 8)
    z = encoder_forward(conn, params, cfg)
    centers = gram_schmidt(params["readout.centers"])
    assignments = softmax(matmul(z, centers.data.T), axis=-1).data
    np.testing.assert_allclose(assignments.sum(axis=1), np.ones(8), atol=1e-12)

    pooled = readout(z, centers, params["readout.w_out"])
    assert pooled.shape == (32,)
    assert np.array_equal(features(conn, params, cfg).data, pooled.data)


def test_readout_saturates_to_one_hot():
    cfg = small_cfg()
    params = as_tensors(init_encoder_params(cfg, np.random.default_rng(12)))
    centers = gram_schmidt(params["readout.centers"])
    target = 2
    z = Tensor(1e4 * centers.data[target][None, :], requires_grad=False)
    assignments = softmax(matmul(z, centers.data.T), axis=-1).data
    expect = np.zeros(4)
    expect[target] = 1.0
    np.testing.assert_allclose(assignments[0], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# heads


def test_classifier_zero_weights_zero_logits():
    cfg = small_cfg()
    params = {name: Tensor(np.zeros_like(arr))
              for name, arr in init_classifier_params(cfg, np.random.default_rng(0)).items()}
    logits = classify(Tensor(np.random.default_rng(13).standard_normal(32)), params)
    np.testing.assert_array_equal(logits.data, np.zeros(2))


def test_classifier_output_length():
    cfg = small_cfg()
    params = as_tensors(init_classifier_params(cfg, np.random.default_rng(14)))
    logits = classify(Tensor(np.random.default_rng(15).standard_normal(32)), params)
    assert logits.shape == (2,)


def test_classifier_gradcheck():
    cfg = small_cfg()
    params = as_tensors(init_classifier_params(cfg, np.random.default_rng(16)))
    x = np.random.default_rng(17).standard_normal(32)
    err = gradcheck(lambda t: cross_entropy(classify(t, params), 1), x)
    assert err < 1e-4


def test_projection_unit_norm_and_cosine():
    cfg = small_cfg()
    params = as_tensors(init_projection_params(cfg, np.random.default_rng(18)))
    rng = np.random.default_rng(19)
    for _ in range(10):
        out = project(Tensor(rng.standard_normal(32)), params)
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-12
    a = project(Tensor(np.ones(32)), params).data
    b = project(Tensor(np.ones(32)), params).data
    assert abs(float(a @ b) - 1.0) <= 1e-12
    # a (B, F) batch normalizes each row on its own
    batch = rng.standard_normal((5, 32))
    rows = project(Tensor(batch), params).data
    np.testing.assert_allclose(rows, [project(Tensor(r), params).data for r in batch],
                               rtol=0, atol=1e-15)


def test_projection_gradcheck_and_zero_error():
    cfg = small_cfg()
    params = as_tensors(init_projection_params(cfg, np.random.default_rng(20)))
    x = np.random.default_rng(21).standard_normal(32)
    w = Tensor(np.random.default_rng(22).standard_normal(16), requires_grad=False)
    err = gradcheck(lambda t: weighted_sum(project(t, params), w), x)
    assert err < 1e-4

    zero_params = {name: Tensor(np.zeros_like(p.data)) for name, p in params.items()}
    with pytest.raises(ValueError, match="zero vector"):
        project(Tensor(np.ones(32)), zero_params)
    # one collapsed row in a batch is enough: a zero input row with zero biases
    no_bias = {**params, "project.b1": Tensor(np.zeros(16)), "project.b2": Tensor(np.zeros(16))}
    batch = np.random.default_rng(23).standard_normal((3, 32))
    batch[1] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        project(Tensor(batch), no_bias)
    # a finite projection whose squared norm overflows is an error, not a zero row
    huge = {**params, "project.w2": Tensor(params["project.w2"].data * 1e200)}
    with pytest.raises(NonFiniteError, match="'unit_rows' squared norm"):
        project(Tensor(x), huge)


def test_cross_entropy_label_validation():
    with pytest.raises(ValueError):
        cross_entropy(Tensor([0.1, 0.2]), 2)
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((3, 2))), [0, 1, 2])
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((3, 2))), [0, 1])


def test_batched_cross_entropy_is_mean_of_per_sample():
    rng = np.random.default_rng(27)
    logits = rng.standard_normal((6, 2))
    labels = np.array([0, 1, 1, 0, 1, 0])
    per_sample = [cross_entropy(Tensor(row), int(y)).item() for row, y in zip(logits, labels)]
    assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(
        np.mean(per_sample), rel=0, abs=1e-15)
    assert cross_entropy(Tensor(logits), list(labels)).item() == pytest.approx(
        np.mean(per_sample), rel=0, abs=1e-15)
    assert gradcheck(lambda t: cross_entropy(t, labels), logits) < 1e-6


# ---------------------------------------------------------------------------
# end-to-end differentiability


def test_full_composition_gradcheck_wrt_input():
    cfg = small_cfg()
    params = as_tensors(full_params(cfg, seed=23))
    conn = random_connectome(np.random.default_rng(24), 8)

    def fn(t: Tensor) -> Tensor:
        return cross_entropy(classify(features(t, params, cfg), params), 0)

    assert gradcheck(fn, conn) < 1e-4


def test_parameter_counts_are_grouped():
    cfg = small_cfg()
    counts = parameter_counts(full_params(cfg))
    assert set(counts) >= {"embed", "layer0", "layer1", "readout", "classifier", "project"}
    assert counts["embed"] == 8 * 8 + 8
    assert counts["classifier"] == 32 * 256 + 256 + 256 * 32 + 32 + 32 * 2 + 2
