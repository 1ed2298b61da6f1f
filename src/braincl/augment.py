"""Connectome view generation: node dilation/shrinkage plus background noise.

A view is built in three steps, all driven by one explicit random generator
(the seed policy: callers own the rng, every function is pure given it):

1. pick k nodes, k uniform in [k_min, k_max];
2. for each picked node, grow or shrink the absolute correlation of every
   incident edge by a per-edge random increment, preserving sign — shrinking
   a whole row toward zero mimics node deletion, growing it node addition;
3. perturb the edges *between unpicked nodes* with background noise so the
   encoder cannot key on untouched entries.

Edges whose endpoints are both picked are modified once, by the
lower-indexed endpoint's direction, so the result does not depend on
iteration order.

``make_view_pair`` works over trailing axes, as ``model.features`` does: a
(V, V) matrix is one sample and a stacked (B, V, V) array a batch, and it
returns the first and second views in the input's shape. Each view makes
these draws, samples in order and view 1 before view 2 of a sample, so a
batch consumes the generator exactly as one call per sample would:

- ``integers(k_min, k_max + 1)`` for k, then ``choice(V, k, replace=False)``
  (skipped for k = 0);
- ``random(k)`` for the directions, in sorted node order (< 0.5 dilates);
- ``uniform(0, delta_max, k(V-k) + k(k-1)/2)``, one increment per touched
  upper-triangle edge in row-major order;
- the noise draw, one value per edge between unpicked nodes in row-major
  order (none for ``none`` noise).

The arithmetic then runs once over the (2B, V, V) stack of views, and one
``check_connectomes`` call over the whole stack (finite, exactly symmetric,
unit diagonal, entries in [-1, 1]) checks every view.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .data import check_connectomes
from .tables import format_value

__all__ = ["NoiseSpec", "AugmentConfig", "make_view_pair"]


@dataclass(frozen=True)
class NoiseSpec:
    """Background-noise distribution: gaussian(sigma), uniform(low, high), or none."""

    kind: str = "gaussian"
    sigma: float = 0.01
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"gaussian sigma must be non-negative and finite, got {self.sigma}")
        if self.kind == "uniform" and not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"uniform noise needs finite bounds, got ({self.low}, {self.high})")
        if self.kind == "uniform" and self.low > self.high:
            raise ValueError("uniform noise needs low <= high")

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Accepts 'none', 'N(0,0.01)' (second value is sigma), 'uniform(-0.1,0.1)'."""
        s = text.strip().lower().replace(" ", "")
        if s in ("none", "off", ""):
            return cls(kind="none")
        m = re.fullmatch(r"n\(([^,]+),([^)]+)\)", s)
        if m:
            mean, sigma = float(m.group(1)), float(m.group(2))
            if mean != 0.0:
                raise ValueError("only zero-mean gaussian noise is supported")
            return cls(kind="gaussian", sigma=sigma)
        m = re.fullmatch(r"uniform\(([^,]+),([^)]+)\)", s)
        if m:
            return cls(kind="uniform", low=float(m.group(1)), high=float(m.group(2)))
        raise ValueError(f"cannot parse noise spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "gaussian":
            return f"N(0,{format_value(self.sigma)})"
        return f"uniform({format_value(self.low)},{format_value(self.high)})"

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, count)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, count)
        return np.zeros(count)


@dataclass(frozen=True)
class AugmentConfig:
    """How a view is altered: k in [k_min, k_max] picked nodes, each edge
    moved by at most ``delta_max``, then background noise. The paper's range
    is 5-20; a ``k_min`` left out follows ``k_max`` below 5, and one given
    is validated as given."""

    k_min: int | None = None  # None means min(5, k_max)
    k_max: int = 20
    delta_max: float = 0.5
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.k_min is None:
            object.__setattr__(self, "k_min", min(5, self.k_max))
        if not 0 <= self.k_min <= self.k_max:
            raise ValueError(f"need 0 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if not 0.0 < self.delta_max <= 1.0:
            raise ValueError("delta_max must lie in (0, 1]")


def _pick(n_nodes: int, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of k distinct nodes, k uniform in [k_min, k_max]."""
    if cfg.k_max > n_nodes:
        raise ValueError(f"k_max={cfg.k_max} exceeds node count {n_nodes}")
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    return np.sort(rng.choice(n_nodes, size=k, replace=False))


def _directions(picks: list[np.ndarray], coins: np.ndarray, n_nodes: int) -> np.ndarray:
    """(N, V) per-view node directions: +1 dilate, -1 shrink, 0 unpicked."""
    direction = np.zeros((len(picks), n_nodes))
    views = np.repeat(np.arange(len(picks)), [nodes.size for nodes in picks])
    direction[views, np.concatenate(picks)] = np.where(coins < 0.5, 1.0, -1.0)
    return direction


def _upper(n_nodes: int) -> np.ndarray:
    return np.triu(np.ones((n_nodes, n_nodes), dtype=bool), k=1)


def _dilate(m: np.ndarray, direction: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Stacked dilation: ``m`` (N, V, V), ``direction`` (N, V), ``deltas``
    the increments of every view's touched edges, view by view."""
    picked = direction != 0.0
    # a boolean mask selects in C order: view by view, row-major within a
    # view, as the increments were drawn
    edges = _upper(m.shape[-1]) & (picked[:, :, None] | picked[:, None, :])
    # the row node is the lower-indexed endpoint, the owner when it is picked
    row_dir = np.broadcast_to(direction[:, :, None], m.shape)[edges]
    col_dir = np.broadcast_to(direction[:, None, :], m.shape)[edges]
    owner = np.where(row_dir != 0.0, row_dir, col_dir)
    vals = m[edges]
    new = np.sign(vals) * np.clip(np.abs(vals) + owner * deltas, 0.0, 1.0)
    out = m.copy()
    out[edges] = new
    np.swapaxes(out, -1, -2)[edges] = new  # the mirror below the diagonal
    return out


def _add_noise(m: np.ndarray, picked: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Stacked noise on the edges between unpicked nodes: ``picked`` (N, V)."""
    free = ~picked
    edges = _upper(m.shape[-1]) & free[:, :, None] & free[:, None, :]
    new = np.clip(m[edges] + eps, -1.0, 1.0)
    out = m.copy()
    out[edges] = new
    np.swapaxes(out, -1, -2)[edges] = new
    return out


def make_view_pair(conn: np.ndarray, cfg: AugmentConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independently augmented views of each connectome: ``conn`` is a
    (V, V) matrix or a stacked (B, V, V) array, and ``(firsts, seconds)``
    are two arrays of its shape.
    """
    sources = np.asarray(conn, dtype=np.float64)
    n = sources.shape[-1]
    samples = sources.reshape(-1, n, n)
    picks, coins, deltas, eps = [], [], [], []
    for _ in range(2 * len(samples)):
        nodes = _pick(n, cfg, rng)
        k = nodes.size
        picks.append(nodes)
        coins.append(rng.random(k))
        deltas.append(rng.uniform(0.0, cfg.delta_max, k * (n - k) + k * (k - 1) // 2))
        if cfg.noise.kind != "none":
            eps.append(cfg.noise.draw(rng, (n - k) * (n - k - 1) // 2))
    direction = _directions(picks, np.concatenate(coins), n)

    # view 1 then view 2 of each sample, matching the draw order above
    views = np.repeat(samples, 2, axis=0)
    views = _dilate(views, direction, np.concatenate(deltas))
    if cfg.noise.kind != "none":
        views = _add_noise(views, direction != 0.0, np.concatenate(eps))
    check_connectomes(views)
    views = views.reshape(sources.shape[:-2] + (2, n, n))
    return views[..., 0, :, :], views[..., 1, :, :]
