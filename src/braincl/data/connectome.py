"""Connectivity matrices, each a plain float64 (V, V) array that passes
``check_connectomes``, and their construction from region time series."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["check_connectomes", "validate_time_series", "pearson_connectome",
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
    its series alone gives, and every matrix passes ``check_connectomes``.
    Zero-variance regions get 0 off-diagonal
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
# N x V x V matrices) or of the check of a slice of a dataset's stack: a
# bound however large the dataset. It also keeps each temporary under glibc's
# default 128 KiB mmap threshold, which a larger freed block raises for the
# rest of the process: the CLI fixes that threshold (braincl.heap), but a
# library caller that loads a dataset keeps glibc's dynamic one, and there
# one pass over a whole 200-subject desk dataset left the peak RSS of the
# finetuning that followed 4% higher.
_BATCH_BYTES = 64 * 1024


def pearson_connectomes(series: Iterable[tuple[int, np.ndarray]]
                        ) -> Iterator[tuple[list[int], np.ndarray]]:
    """``pearson_connectome`` of each (row, L x V series) pair, in batched
    calls over series of one shape (sites differ in scan length), yielded as
    (rows, matrices) for the caller to write into its stack. A batch is
    computed once full, so at most one per shape is held: a loader that hands
    over each series as it parses it keeps none."""
    pending: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}  # by shape

    def computed(shape):
        rows, batch = zip(*pending.pop(shape))
        return list(rows), pearson_connectome(np.stack(batch))  # a tuple would index axes

    for row, ts in series:
        shape = np.shape(ts)
        pending.setdefault(shape, []).append((row, ts))
        if len(pending[shape]) >= max(1, _BATCH_BYTES // (8 * max(shape[-2:]) * shape[-1])):
            yield computed(shape)
    for shape in list(pending):
        yield computed(shape)
