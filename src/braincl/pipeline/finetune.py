"""Supervised finetuning with best-validation-epoch selection.

The encoder starts from pretrained weights (or a fresh init for the
from-scratch baseline), a new classification head is attached, and the
whole model trains under cross-entropy (with ``freeze_encoder`` only the
head does, and the encoder enters the graph as constants). After every
epoch the validation AUROC is computed; the snapshot with the highest value
(earliest epoch on ties) is evaluated exactly once on the held-out test
fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset, stratified_split
from ..metrics import ScoredSet, auroc, confusion_metrics
from ..model import (
    EncoderConfig,
    as_tensors,
    classify,
    cross_entropy,
    features,
    gram_schmidt,
    init_classifier_params,
    init_encoder_params,
)
from ..numcore import Tensor, adam, backward, opt_step
from .config import FinetuneConfig
from .pretrain import PipelineError, batched_indices, non_finite_guard

__all__ = ["FinetuneResult", "finetune", "score_dataset", "summarize_scores"]

SCORE_BATCH = 64  # samples per batched forward in score_dataset


@dataclass(frozen=True)
class FinetuneResult:
    params: dict[str, np.ndarray]  # best-validation snapshot (encoder + head)
    best_epoch: int
    epoch_log: tuple[tuple[int, float, float], ...]  # epoch, train_loss, val_auroc
    test_scores: ScoredSet
    test_metrics: dict[str, float]
    split_ids: tuple[frozenset[str], frozenset[str], frozenset[str]]


def score_dataset(ds: Dataset, arrays: dict[str, np.ndarray],
                  cfg: EncoderConfig) -> ScoredSet:
    """Class-1 probabilities for every (labeled) sample, scored in batched
    slices of SCORE_BATCH samples."""
    params = {k: Tensor(v, requires_grad=False) for k, v in arrays.items()}
    centers = gram_schmidt(params["readout.centers"])
    scores = []
    for start in range(0, len(ds), SCORE_BATCH):
        conns = np.stack([s.connectome.matrix for s in ds.samples[start:start + SCORE_BATCH]])
        logits = classify(features(conns, params, cfg, centers=centers), params)
        scores.append(logits.softmax(axis=-1).data[:, 1])
    return ScoredSet(scores=np.concatenate(scores) if scores else np.array([]),
                     labels=np.array([s.label for s in ds]))


def summarize_scores(scores: ScoredSet) -> dict[str, float]:
    cm = confusion_metrics(scores, threshold=0.5)
    return {
        "accuracy": cm.accuracy,
        "auroc": auroc(scores),
        "sensitivity": cm.sensitivity if cm.sensitivity is not None else float("nan"),
        "specificity": cm.specificity if cm.specificity is not None else float("nan"),
    }


def _check_compatible(ckpt: dict[str, np.ndarray], reference: dict[str, np.ndarray]) -> None:
    if set(ckpt) != set(reference):
        missing = sorted(set(reference) - set(ckpt))
        extra = sorted(set(ckpt) - set(reference))
        raise PipelineError(f"incompatible checkpoint: missing {missing[:4]}, "
                            f"unexpected {extra[:4]}")
    for name, arr in reference.items():
        if ckpt[name].shape != arr.shape:
            raise PipelineError(f"incompatible checkpoint: {name!r} has shape "
                                f"{ckpt[name].shape}, expected {arr.shape}")


def finetune(ds: Dataset, encoder_ckpt: dict[str, np.ndarray] | None,
             encoder_cfg: EncoderConfig, cfg: FinetuneConfig) -> FinetuneResult:
    labeled = ds.labeled()
    if len(labeled) != len(ds):
        raise PipelineError("finetuning requires a fully labeled dataset")

    train, val, test = stratified_split(labeled, cfg.split)
    ids = tuple(frozenset(s.subject_id for s in part) for part in (train, val, test))
    if ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2]:
        raise PipelineError("split produced overlapping folds")
    for name, part in zip(("train", "validation", "test"), (train, val, test)):
        if len(set(part.labels)) < 2:
            raise PipelineError(f"{name} fold ended up single-class; "
                                f"dataset too small for these fractions")

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])

    params = init_encoder_params(encoder_cfg, init_rng)
    if encoder_ckpt is not None:
        _check_compatible(encoder_ckpt, params)
        params = dict(encoder_ckpt)
    params.update(init_classifier_params(encoder_cfg, init_rng))

    # a frozen encoder enters the graph as constants, so no encoder gradient is formed
    trainable = [k for k in params if not cfg.freeze_encoder or k.startswith("classifier.")]

    optimizer = adam(lr=cfg.lr, weight_decay=cfg.weight_decay)

    def step(params: dict[str, np.ndarray], batch: np.ndarray):
        """One forward and backward pass and the Adam step. Only the loss value
        and the new trainable parameters leave it, so its graph and gradients
        are freed when it returns."""
        leaves = as_tensors({k: params[k] for k in trainable})
        leaves.update({k: Tensor(v, requires_grad=False)
                       for k, v in params.items() if k not in leaves})
        centers = gram_schmidt(leaves["readout.centers"])
        samples = [train.samples[int(idx)] for idx in batch]
        conns = np.stack([sample.connectome.matrix for sample in samples])
        logits = classify(features(conns, leaves, encoder_cfg, centers=centers), leaves)
        loss = cross_entropy(logits, [sample.label for sample in samples])
        grads = backward(loss, wrt=[leaves[k] for k in trainable])
        return loss.item(), opt_step(optimizer, {k: params[k] for k in trainable},
                                     {k: grads[leaves[k]] for k in trainable})

    best_auroc = -1.0
    best_epoch = -1
    best_params = params
    log: list[tuple[int, float, float]] = []

    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(train))
        loss_total = 0.0
        for batch_no, batch in enumerate(batched_indices(order, cfg.batch_size)):
            with non_finite_guard(f"finetuning epoch {epoch} batch {batch_no}"):
                loss, trained = step(params, batch)
            params = {**params, **trained}
            loss_total += loss * len(batch)

        with non_finite_guard(f"finetuning epoch {epoch} validation"):
            val_auroc = auroc(score_dataset(val, params, encoder_cfg))
        log.append((epoch, loss_total / len(train), val_auroc))
        if val_auroc > best_auroc:
            best_auroc = val_auroc
            best_epoch = epoch
            best_params = params

    with non_finite_guard("test scoring"):
        test_scores = score_dataset(test, best_params, encoder_cfg)
    return FinetuneResult(
        params=best_params,
        best_epoch=best_epoch,
        epoch_log=tuple(log),
        test_scores=test_scores,
        test_metrics=summarize_scores(test_scores),
        split_ids=ids,
    )
