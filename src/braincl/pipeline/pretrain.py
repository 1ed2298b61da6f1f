"""Contrastive pretraining loop.

Each step augments the stacked batch into two views per sample in one call
(samples in batch order, which fixes the RNG stream), embeds the stacked
second views with the trailing key encoder and then the stacked first views
with the query encoder (one batched forward each; the key forward keeps no
graph, so it runs before the query graph exists), scores every query
against its key and the queue of past keys, and updates:
gradient step on the query side, exponential trailing on the key side,
batch keys pushed into the queue. The key parameters and the queue are two
plain values the loop holds between steps. The gradients never leave the
step function and the keys die once queued, so the next step holds none of
them. Labels are never consulted.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..augment import AugmentConfig, make_view_pair
from ..contrastive import info_nce, momentum_update, queue_push
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

__all__ = ["PretrainResult", "PipelineError", "pretrain", "batched_indices",
           "non_finite_guard", "train_epochs"]


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
    epoch_log: tuple[tuple[int, float, int, float], ...]  # epoch, loss_mean, queue_len, lr


def batched_indices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Full batches plus the trailing partial batch (kept, not dropped)."""
    return [order[start:start + batch_size] for start in range(0, order.size, batch_size)]


def train_epochs(size: int, epochs: range, batch_size: int, order_rng: np.random.Generator,
                 step: Callable[[np.ndarray], float], verb: str) -> Iterator[tuple[int, float]]:
    """The training loop of both verbs: per epoch, shuffle ``size`` indices,
    run ``step(batch) -> loss`` on each batch under a non-finite guard naming
    the verb, epoch and batch, and yield the epoch with its sample-weighted
    mean loss. The caller does its epoch-end work between yields."""
    for epoch in epochs:
        order = order_rng.permutation(size)
        loss_total = 0.0
        for batch_no, batch in enumerate(batched_indices(order, batch_size)):
            with non_finite_guard(f"{verb} epoch {epoch} batch {batch_no}"):
                loss_total += step(batch) * len(batch)
        yield epoch, loss_total / size


def pretrain(ds: Dataset, encoder_cfg: EncoderConfig, cfg: PretrainConfig,
             augment_cfg: AugmentConfig) -> PretrainResult:
    if len(ds) == 0:
        raise PipelineError("cannot pretrain on an empty dataset")

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])
    augment_rng = np.random.default_rng(seeds[2])

    query = init_encoder_params(encoder_cfg, init_rng)
    query.update(init_projection_params(encoder_cfg, init_rng))
    key_params = query
    queue = np.zeros((0, encoder_cfg.proj_dim))  # past keys, oldest first
    optimizer = sgd(lr=cfg.lr)

    def step(batch: np.ndarray) -> float:
        """One forward and backward pass, the gradient step, the key trailing
        and the queue push, its last call. The key encoder keeps no graph, so it
        runs before the query graph is built; the graph and gradients are freed
        before the trailing, and only the loss leaves the step."""
        nonlocal query, key_params, queue
        leaves = as_tensors(query)
        key_leaves = {k: Tensor(v, requires_grad=False) for k, v in key_params.items()}
        firsts, seconds = make_view_pair(ds.gather(batch), augment_cfg, augment_rng)

        key_centers = gram_schmidt(key_leaves["readout.centers"])
        k_vecs = project(features(seconds, key_leaves, encoder_cfg, centers=key_centers),
                         key_leaves)
        centers = gram_schmidt(leaves["readout.centers"])
        q_vecs = project(features(firsts, leaves, encoder_cfg, centers=centers), leaves)
        loss = info_nce(q_vecs, k_vecs, queue, cfg.temperature)
        grads = backward(loss, wrt=list(leaves.values()))
        query = opt_step(optimizer, query, {name: grads[leaf] for name, leaf in leaves.items()})
        loss_value = loss.item()
        del leaves, grads, loss
        key_params = momentum_update(key_params, query, cfg.momentum)
        queue = queue_push(queue, k_vecs.data, cfg.queue_capacity)
        return loss_value

    log = [(epoch, loss_mean, queue.shape[0], cfg.lr)
           for epoch, loss_mean in train_epochs(len(ds), range(cfg.epochs), cfg.batch_size,
                                                order_rng, step, "pretraining")]
    encoder = {k: v for k, v in query.items() if not k.startswith("project.")}
    return PretrainResult(encoder_params=encoder, epoch_log=tuple(log))
