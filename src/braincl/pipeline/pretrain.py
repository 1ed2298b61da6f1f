"""Contrastive pretraining loop.

Each step augments the stacked batch into two views per sample in one call
(samples in batch order, which fixes the RNG stream), embeds the stacked
first views with the query encoder and the stacked second views with
the trailing key encoder (one batched forward each), scores every query
against its key and the queue of past keys, and updates:
gradient step on the query side, exponential trailing on the key side,
batch keys pushed into the queue. Labels are never consulted.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..augment import AugmentConfig, make_view_pair
from ..contrastive import MoCoState, info_nce, momentum_update, queue_push
from ..data import Dataset
from ..model import (
    EncoderConfig,
    as_tensors,
    features,
    gram_schmidt,
    init_encoder_params,
    init_projection_params,
    project,
)
from ..numcore import NonFiniteError, Tensor, backward, opt_step, sgd
from .config import PretrainConfig

__all__ = ["PretrainResult", "PipelineError", "pretrain", "ENCODER_PREFIXES",
           "encoder_only", "batched_indices", "non_finite_guard"]

ENCODER_PREFIXES = ("embed.", "layer", "readout.")


class PipelineError(RuntimeError):
    pass


@contextmanager
def non_finite_guard(where: str):
    """Re-raise a NaN/Inf failure inside the block as a PipelineError."""
    try:
        yield
    except NonFiniteError as exc:
        raise PipelineError(f"non-finite value during {where}: {exc}") from exc


@dataclass(frozen=True)
class PretrainResult:
    encoder_params: dict[str, np.ndarray]  # query-side encoder, the checkpoint payload
    projection_params: dict[str, np.ndarray]
    epoch_log: tuple[tuple[int, float, int, float], ...]  # epoch, loss_mean, queue_len, lr


def encoder_only(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v for k, v in arrays.items() if k.startswith(ENCODER_PREFIXES)}


def batched_indices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Full batches plus the trailing partial batch (kept, not dropped)."""
    return [order[start:start + batch_size] for start in range(0, order.size, batch_size)]


def pretrain(ds: Dataset, encoder_cfg: EncoderConfig, cfg: PretrainConfig,
             augment_cfg: AugmentConfig | None = None) -> PretrainResult:
    if len(ds) == 0:
        raise PipelineError("cannot pretrain on an empty dataset")
    if augment_cfg is None:
        augment_cfg = AugmentConfig()

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])
    augment_rng = np.random.default_rng(seeds[2])

    query = init_encoder_params(encoder_cfg, init_rng)
    query.update(init_projection_params(encoder_cfg, init_rng))
    moco = MoCoState.fresh(query, dim=encoder_cfg.proj_dim,
                           capacity=cfg.queue_capacity,
                           momentum=cfg.momentum,
                           temperature=cfg.temperature)
    optimizer = sgd(lr=cfg.lr)

    def step(query: dict[str, np.ndarray], moco: MoCoState, batch: np.ndarray):
        """One forward and backward pass. Only the loss value, the gradient
        arrays and the batch keys leave it, so its graph is freed when it
        returns, before the next step augments."""
        leaves = as_tensors(query)
        key_leaves = {k: Tensor(v, requires_grad=False) for k, v in moco.key_params.items()}
        centers = gram_schmidt(leaves["readout.centers"])
        key_centers = gram_schmidt(key_leaves["readout.centers"])

        firsts, seconds = make_view_pair(
            np.stack([ds.samples[int(idx)].connectome.matrix for idx in batch]),
            augment_cfg, augment_rng)

        q_vecs = project(features(firsts, leaves, encoder_cfg, centers=centers), leaves)
        k_vecs = project(features(seconds, key_leaves, encoder_cfg, centers=key_centers),
                         key_leaves)
        loss = info_nce(q_vecs, k_vecs, moco.queue, moco.temperature)
        grads = backward(loss, wrt=list(leaves.values()))
        return loss.item(), {name: grads[leaf].data for name, leaf in leaves.items()}, k_vecs.data

    log: list[tuple[int, float, int, float]] = []
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(ds))
        loss_total = 0.0
        for batch_no, batch in enumerate(batched_indices(order, cfg.batch_size)):
            with non_finite_guard(f"pretraining epoch {epoch} batch {batch_no}"):
                loss, grads, keys = step(query, moco, batch)
            query = opt_step(optimizer, query, grads)
            moco = queue_push(
                replace(moco, key_params=momentum_update(moco.key_params, query, moco.momentum)),
                keys)
            loss_total += loss * len(batch)
        log.append((epoch, loss_total / len(ds), moco.queue.shape[0], cfg.lr))

    return PretrainResult(encoder_params=encoder_only(query),
                          projection_params={k: v for k, v in query.items()
                                             if k.startswith("project.")},
                          epoch_log=tuple(log))
