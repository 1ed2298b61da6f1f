"""Connectivity matrices and their construction from region time series."""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Connectome", "check_connectomes", "validate_time_series", "pearson_connectome",
           "pearson_connectomes"]


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
    The matrix is read-only.
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

    def __repr__(self) -> str:
        return f"Connectome(n_nodes={self.n_nodes})"


def validate_time_series(ts: np.ndarray) -> np.ndarray:
    """Check an L x V series: at least two time points, all values finite."""
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"time series must be 2-D (time x regions), got shape {arr.shape}")
    return _check_series(arr)


def _check_series(arr: np.ndarray) -> np.ndarray:
    """Check every trailing L x V series of ``arr``."""
    if arr.shape[-2] < 2:
        raise ValueError("time series needs at least 2 time points")
    if not np.isfinite(arr).all():
        raise ValueError("time series contains non-finite values")
    return arr


def pearson_connectome(ts: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of the columns of an L x V series, as a
    V x V matrix; of an N x L x V stack of series, as the N x V x V matrices.

    The stack is one batched pass whose every matrix is bit for bit the one
    its series alone gives; ``pearson_connectomes`` wraps each in a
    Connectome, which checks it. Zero-variance regions get 0 off-diagonal
    by convention (no evidence of connectivity either way); the diagonal is
    forced to 1. Covariances use the population (1/L) normalization, which
    cancels in the ratio.
    """
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim == 3:
        _check_series(arr)
    else:
        arr = validate_time_series(arr)
    length, n = arr.shape[-2:]
    centered = arr - arr.mean(axis=-2, keepdims=True)
    cov = np.swapaxes(centered, -1, -2) @ centered
    cov /= length
    std = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    degenerate = std == 0.0
    denom = std[..., :, None] * std[..., None, :]
    denom[denom == 0.0] = 1.0  # placeholder; those entries are zeroed below
    corr = np.divide(cov, denom, out=cov)
    corr[degenerate[..., :, None] | degenerate[..., None, :]] = 0.0
    corr = corr + np.swapaxes(corr, -1, -2)  # exact symmetry (commutative adds)
    corr /= 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    diag = np.arange(n)
    corr[..., diag, diag] = 1.0
    return corr


# Bytes in any one temporary of a batched pass (the N x L x V series or the
# N x V x V matrices), which bounds one batch's memory however large the
# dataset. It also keeps each temporary under glibc's default 128 KiB mmap
# threshold, which a larger freed block raises for the rest of the process:
# the CLI fixes that threshold (braincl.heap), but a library caller that
# loads a dataset keeps glibc's dynamic one, and there one pass over a whole
# 200-subject desk dataset left the peak RSS of the finetuning that followed
# 4% higher.
_BATCH_BYTES = 64 * 1024


def pearson_connectomes(series: Iterable[np.ndarray]) -> list[Connectome]:
    """``pearson_connectome`` of each L x V series, in order, computed in
    batched calls over series of one shape (sites differ in scan length).
    The series are taken one at a time and a batch is computed once it is
    full, so at most one batch per shape is held: a loader that hands over
    each series as it parses it keeps none."""
    out: list[Connectome | None] = []
    pending: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}  # by shape

    def flush(shape):
        batch = pending.pop(shape)
        for (i, _), m in zip(batch, pearson_connectome(np.stack([ts for _, ts in batch]))):
            out[i] = Connectome(m)

    for i, ts in enumerate(series):
        out.append(None)
        shape = np.shape(ts)
        pending.setdefault(shape, []).append((i, ts))
        if len(pending[shape]) >= max(1, _BATCH_BYTES // (8 * max(shape[-2:]) * shape[-1])):
            flush(shape)
    for shape in list(pending):
        flush(shape)
    return out
