"""Synthetic two-class connectome generator.

Each class is built from a latent block-community template: the V regions
are partitioned into ``blocks`` contiguous communities, every region loads
on its community's latent factor, and sample i observes the series

    x[t, :] = (loadings_class + jitter_i) @ z[t] + noise_sd * eps[t, :]

with z ~ N(0, I) factors and white noise eps. Class 0 uses the base
partition; class 1 uses the same partition rotated by half a community
width, with loadings interpolated toward the rotated template by
``separation``. At separation 0 both classes share one template and are
statistically indistinguishable; at 1 their correlation structure differs
on every community boundary.

``sample_jitter`` perturbs each sample's loading matrix once (fixed across
time), giving every subject a stable personal connectivity signature the
way real subjects have one — without it, same-class samples would be
statistically identical and instance discrimination would be ill-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectome import pearson_connectomes
from .io import Dataset, DatasetError

__all__ = ["ClassSpec", "synth_dataset"]


@dataclass(frozen=True)
class ClassSpec:
    separation: float = 1.0
    blocks: int = 4
    noise_sd: float = 1.0
    sample_jitter: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.separation <= 1.0:
            raise ValueError("separation must lie in [0, 1]")
        if self.blocks < 1:
            raise ValueError("blocks must be positive")
        if self.noise_sd < 0 or self.sample_jitter < 0:
            raise ValueError("noise_sd and sample_jitter must be non-negative")


def _loadings(n_nodes: int, blocks: int, shift: int) -> np.ndarray:
    out = np.zeros((n_nodes, blocks))
    for i in range(n_nodes):
        out[i, ((i + shift) % n_nodes) * blocks // n_nodes] = 1.0
    return out


def synth_dataset(n: int, n_nodes: int, length: int,
                  spec: ClassSpec = ClassSpec(), seed: int = 0) -> Dataset:
    """Deterministic labeled dataset of ``n`` samples, balanced within one,
    that keeps its series."""
    if n < 1 or n_nodes < 1 or length < 2:
        raise ValueError("need n >= 1, n_nodes >= 1, length >= 2")
    shift = n_nodes // (2 * spec.blocks)
    if spec.separation > 0.0 and (spec.blocks < 2 or shift == 0):
        raise DatasetError(
            "class templates would be identical (too few blocks for this V) "
            "but separation > 0 was requested")

    base = _loadings(n_nodes, spec.blocks, 0)
    rotated = _loadings(n_nodes, spec.blocks, shift)
    templates = {
        0: base,
        1: (1.0 - spec.separation) * base + spec.separation * rotated,
    }

    rng = np.random.default_rng(seed)
    width = len(str(max(n - 1, 1)))
    series = np.empty((n, length, n_nodes))
    for i in range(n):
        loadings = templates[i % 2]
        if spec.sample_jitter > 0:
            loadings = loadings + spec.sample_jitter * rng.standard_normal(loadings.shape)
        factors = rng.standard_normal((length, spec.blocks))
        noise = rng.standard_normal((length, n_nodes))
        series[i] = factors @ loadings.T + spec.noise_sd * noise
    stack = np.empty((n, n_nodes, n_nodes))
    for rows, matrices in pearson_connectomes(enumerate(series)):
        stack[rows] = matrices
    return Dataset(tuple(f"synth{i:0{width}d}" for i in range(n)), stack,
                   tuple(i % 2 for i in range(n)), series=series)
