"""Graph-transformer encoder over connectome rows with a soft clustering
readout onto orthonormalized centers, plus the classification and
contrastive projection heads.

Node j enters the encoder as row j of the connectivity matrix, is embedded
once, then flows through post-norm attention/feed-forward blocks. Each block
is built from numcore's fused graph nodes, each with a closed-form backward:
one ``linear`` per query, key and value map, one ``attention`` for all
heads, one ``linear`` with its leaky ReLU for the feed-forward's first map
(the heads' hidden maps use it too), and one ``linear_add_layer_norm`` for
each residual branch's last map with its residual add, norm and affine step,
so no block keeps an array that no backward reads. ``features``
orthonormalizes a learnable center matrix every forward pass with one
sign-fixed QR node whose backward is closed-form (so the centers stay
trainable yet orthonormal); numcore's one ``readout`` node then softly
assigns node embeddings to centers, pools each cluster, projects it to a
fixed per-cluster width and flattens: the input of both heads.

Every forward path works over trailing axes: a (V, V) connectome is one
sample and a stacked (B, V, V) array is a batch that runs as one graph.

``EncoderConfig`` fills in what is left out when it is built: ``d_model``
(the node count), ``ffn_dim`` (twice ``d_model``), ``heads`` (the paper's 4,
halved until it divides ``d_model``) and ``n_clusters`` (the paper's 100, or
``d_model`` if smaller, since the centers must be orthonormal). So a built
config always holds every size, a small graph gets a working encoder from
its node count alone, and two configs of the same encoder compare equal.
Values given explicitly are validated as given.

Node relabeling: the embedding weight's input axis is the only
node-indexed parameter, so permuting a connectome's rows and columns
together with that axis permutes the encoder output rows the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import (Tensor, attention, freeze, linear, linear_add_layer_norm, mean_nll,
                      readout, unit_rows)

__all__ = ["EncoderConfig", "RankDeficiencyError", "init_encoder_params",
           "init_classifier_params", "init_projection_params", "as_tensors",
           "gram_schmidt", "encoder_forward", "features",
           "classify", "project", "cross_entropy", "parameter_counts"]

LEAKY_SLOPE = 0.01


class RankDeficiencyError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    n_nodes: int
    layers: int = 2
    heads: int | None = None  # None means 4, halved until it divides d_model
    d_model: int | None = None  # None means n_nodes
    ffn_dim: int | None = None  # None means 2 * d_model
    n_clusters: int | None = None  # None means min(100, d_model)
    cluster_dim: int = 8
    proj_dim: int = 128

    def __post_init__(self):
        # the sizes are written out here, so every reader sees them resolved
        if self.d_model is None:
            object.__setattr__(self, "d_model", self.n_nodes)
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 2 * self.d_model)
        if self.heads is None:
            heads = 4
            while self.d_model % heads:
                heads //= 2
            object.__setattr__(self, "heads", heads)
        if self.n_clusters is None:
            object.__setattr__(self, "n_clusters", min(100, self.d_model))
        for name in ("n_nodes", "layers", "heads", "d_model", "ffn_dim", "n_clusters",
                     "cluster_dim", "proj_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.n_clusters > self.d_model:
            raise ValueError("n_clusters cannot exceed d_model: centers could "
                             "never be orthonormal")

    @property
    def feature_dim(self) -> int:
        return self.n_clusters * self.cluster_dim


# ---------------------------------------------------------------------------
# parameter initialization


def _affine(rng: np.random.Generator, fan_in: int, fan_out: int):
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-bound, bound, (fan_in, fan_out))
    b = rng.uniform(-bound, bound, fan_out)
    return w, b


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d = cfg.d_model
    params: dict[str, np.ndarray] = {}
    params["embed.w"], params["embed.b"] = _affine(rng, cfg.n_nodes, d)
    for i in range(cfg.layers):
        pre = f"layer{i}"
        for w_name, b_name in (("wq", "qb"), ("wk", "kb"), ("wv", "vb"), ("wo", "ob")):
            params[f"{pre}.attn.{w_name}"], params[f"{pre}.attn.{b_name}"] = _affine(rng, d, d)
        params[f"{pre}.norm1.gain"] = np.ones(d)
        params[f"{pre}.norm1.bias"] = np.zeros(d)
        params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.b1"] = _affine(rng, d, cfg.ffn_dim)
        params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.b2"] = _affine(rng, cfg.ffn_dim, d)
        params[f"{pre}.norm2.gain"] = np.ones(d)
        params[f"{pre}.norm2.bias"] = np.zeros(d)
    # np.array owns its copy of the transposed view gram_schmidt returns
    params["readout.centers"] = np.array(
        gram_schmidt(Tensor(rng.standard_normal((cfg.n_clusters, d)))).data)
    params["readout.w_out"], _ = _affine(rng, d, cfg.cluster_dim)
    return freeze(params)


def init_classifier_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["classifier.w1"], params["classifier.b1"] = _affine(rng, cfg.feature_dim, 256)
    params["classifier.w2"], params["classifier.b2"] = _affine(rng, 256, 32)
    params["classifier.w3"], params["classifier.b3"] = _affine(rng, 32, 2)
    return freeze(params)


def init_projection_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["project.w1"], params["project.b1"] = _affine(rng, cfg.feature_dim, cfg.proj_dim)
    params["project.w2"], params["project.b2"] = _affine(rng, cfg.proj_dim, cfg.proj_dim)
    return freeze(params)


def as_tensors(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(arr) for name, arr in arrays.items()}


# ---------------------------------------------------------------------------
# forward paths


def gram_schmidt(centers: Tensor) -> Tensor:
    """Orthonormalize rows in one graph node: Q.T of the reduced QR of
    ``centers.T`` with R's diagonal made positive (modified Gram-Schmidt's
    rows), with the reduced-QR vjp of Seeger et al. 2017 (arXiv:1710.08717).
    Raises RankDeficiencyError naming the first row whose residual norm
    |R_ii| is below 1e-8.
    """
    if centers.ndim != 2:
        raise ValueError(f"expected a matrix of rows, got shape {centers.shape}")
    q, r = np.linalg.qr(centers.data.T)
    # R has one row per basis vector; rows of `centers` past those lie in their span
    residuals = np.append(np.abs(np.diagonal(r)), np.zeros(r.shape[1] - r.shape[0]))
    i = int(np.argmax(residuals < 1e-8))  # the first dependent row, if there is one
    if residuals[i] < 1e-8:
        raise RankDeficiencyError(
            f"row {i} is linearly dependent on the rows before it "
            f"(residual norm {residuals[i]:.3e})")
    signs = np.sign(np.diagonal(r))
    q, r = q * signs, r * signs[:, None]

    def vjp(g, _):
        m = -g @ q
        m = np.tril(m) + np.tril(m, -1).T  # symmetric from the lower triangle
        return (np.linalg.solve(r, g + m @ q.T),)

    return Tensor(q.T, op="gram_schmidt", parents=(centers,), vjp=vjp)


def encoder_forward(conn, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Node embeddings, one row per node: (V, V) -> (V, d), and a stacked
    batch (B, V, V) -> (B, V, d)."""
    x = conn if isinstance(conn, Tensor) else Tensor(conn, requires_grad=False)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.n_nodes, cfg.n_nodes):
        raise ValueError(f"input shape {x.shape} does not match V={cfg.n_nodes}")

    z = linear(x, params["embed.w"], params["embed.b"])
    for i in range(cfg.layers):
        pre = f"layer{i}"
        q = linear(z, params[f"{pre}.attn.wq"], params[f"{pre}.attn.qb"])
        k = linear(z, params[f"{pre}.attn.wk"], params[f"{pre}.attn.kb"])
        v = linear(z, params[f"{pre}.attn.wv"], params[f"{pre}.attn.vb"])
        z = linear_add_layer_norm(z, attention(q, k, v, cfg.heads),
                                  params[f"{pre}.attn.wo"], params[f"{pre}.attn.ob"],
                                  params[f"{pre}.norm1.gain"], params[f"{pre}.norm1.bias"])
        hidden = linear(z, params[f"{pre}.ffn.w1"], params[f"{pre}.ffn.b1"], LEAKY_SLOPE)
        z = linear_add_layer_norm(z, hidden, params[f"{pre}.ffn.w2"], params[f"{pre}.ffn.b2"],
                                  params[f"{pre}.norm2.gain"], params[f"{pre}.norm2.bias"])
    return z


def features(conn, params: dict[str, Tensor], cfg: EncoderConfig,
             centers: Tensor | None = None) -> Tensor:
    """Flattened readout of length n_clusters * cluster_dim, one row per
    sample when ``conn`` is a stacked (B, V, V) batch; ``centers`` may be
    passed in already orthonormalized."""
    z = encoder_forward(conn, params, cfg)
    if centers is None:
        centers = gram_schmidt(params["readout.centers"])
    return readout(z, centers, params["readout.w_out"])


def classify(feats: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Two-way logits from the flattened readout (along the last axis)."""
    h = linear(feats, params["classifier.w1"], params["classifier.b1"], LEAKY_SLOPE)
    h = linear(h, params["classifier.w2"], params["classifier.b2"], LEAKY_SLOPE)
    return linear(h, params["classifier.w3"], params["classifier.b3"])


def project(feats: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Unit-norm contrastive embedding per row, through numcore's
    ``unit_rows`` node (a row that collapses to zero is a ``ValueError``);
    cosine of two outputs is their dot."""
    h = linear(feats, params["project.w1"], params["project.b1"], LEAKY_SLOPE)
    return unit_rows(linear(h, params["project.w2"], params["project.b2"]))


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Mean negative log-likelihood of ``label`` (an int for (2,) logits,
    an array of ints for a (B, 2) batch), as numcore's one ``mean_nll`` node."""
    labels = np.asarray(label)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {label}")
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels of shape {labels.shape} for logits of shape {logits.shape}")
    return mean_nll(logits, labels.astype(np.intp))


# ---------------------------------------------------------------------------
# utilities


def parameter_counts(arrays: dict[str, np.ndarray]) -> dict[str, int]:
    """Value counts grouped by top-level component name."""
    counts: dict[str, int] = {}
    for name, arr in arrays.items():
        group = name.split(".")[0]
        counts[group] = counts.get(group, 0) + int(np.asarray(arr).size)
    return counts
