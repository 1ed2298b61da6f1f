"""Connectivity matrices and their construction from region time series."""

from __future__ import annotations

import numpy as np

__all__ = ["Connectome", "check_connectomes", "validate_time_series", "pearson_connectome"]


def check_connectomes(m: np.ndarray) -> None:
    """Raise ValueError unless every trailing (V, V) matrix of ``m`` is finite,
    exactly symmetric, has a unit diagonal and entries in [-1, 1]."""
    if not np.isfinite(m).all():
        raise ValueError("connectome contains non-finite values")
    if not np.array_equal(m, np.swapaxes(m, -1, -2)):
        raise ValueError("connectome must be exactly symmetric")
    if not (np.diagonal(m, axis1=-2, axis2=-1) == 1.0).all():
        raise ValueError("connectome diagonal must be exactly 1")
    if np.abs(m).max() > 1.0:
        raise ValueError("connectome entries must lie in [-1, 1]")


class Connectome:
    """A symmetric V x V correlation matrix with unit diagonal.

    Values live in [-1, 1]; symmetry is exact (bitwise), not approximate.
    The matrix is read-only; augmentation and ingestion build new instances.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"connectome must be square, got shape {m.shape}")
        check_connectomes(m)
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Connectome) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self) -> str:
        return f"Connectome(n_nodes={self.n_nodes})"


def validate_time_series(ts: np.ndarray) -> np.ndarray:
    """Check an L x V series: at least two time points, all values finite."""
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"time series must be 2-D (time x regions), got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("time series needs at least 2 time points")
    if not np.isfinite(arr).all():
        raise ValueError("time series contains non-finite values")
    return arr


def pearson_connectome(ts: np.ndarray) -> Connectome:
    """Pairwise Pearson correlation of the columns of an L x V series.

    Zero-variance regions get 0 off-diagonal by convention (no evidence of
    connectivity either way); the diagonal is forced to 1. Covariances use
    the population (1/L) normalization, which cancels in the ratio.
    """
    arr = validate_time_series(ts)
    length = arr.shape[0]
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered / length
    std = np.sqrt(np.diagonal(cov))
    degenerate = std == 0.0
    denom = np.outer(std, std)
    denom[denom == 0.0] = 1.0  # placeholder; those entries are zeroed below
    corr = cov / denom
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    corr = (corr + corr.T) / 2.0  # exact symmetry (commutative adds)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return Connectome(corr)
