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
from ..metrics import ScoredSet, auroc
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
from ..numcore.tensor import _softmax_in_place
from .config import FinetuneConfig
from .pretrain import PipelineError, non_finite_guard, train_epochs
# unused: perfbench/probe.py's EPOCH_START looks the name up here until it drops it
from .pretrain import batched_indices  # noqa: F401

__all__ = ["FinetuneResult", "check_compatible", "finetune", "score_dataset",
           "summarize_scores"]

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
        conns = ds.gather(slice(start, start + SCORE_BATCH))
        logits = classify(features(conns, params, cfg, centers=centers), params)
        scores.append(_softmax_in_place(logits.data.copy())[:, 1])
    return ScoredSet(scores=np.concatenate(scores) if scores else np.array([]),
                     labels=np.array(ds.labels))


def summarize_scores(scores: ScoredSet) -> dict[str, float]:
    """AUROC, and accuracy, sensitivity and specificity with a sample
    predicted class 1 iff its class-1 probability is at least 0.5. ``auroc``
    runs first: it raises unless both classes are present, so neither rate
    below divides by zero."""
    area = auroc(scores)
    predicted = scores.scores >= 0.5
    positive = scores.labels == 1
    return {
        "accuracy": int((predicted == positive).sum()) / positive.size,
        "auroc": area,
        "sensitivity": int((predicted & positive).sum()) / int(positive.sum()),
        "specificity": int((~predicted & ~positive).sum()) / int((~positive).sum()),
    }


def check_compatible(ckpt: dict[str, np.ndarray], reference: dict[str, np.ndarray]) -> None:
    """Raise a PipelineError unless ``ckpt`` has exactly the names and shapes
    of ``reference``."""
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
    if None in ds.labels:
        raise PipelineError("finetuning requires a fully labeled dataset")

    train, val, test = stratified_split(ds, cfg.split, cfg.seed)
    ids = tuple(frozenset(part.ids) for part in (train, val, test))
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
        check_compatible(encoder_ckpt, params)
        params = dict(encoder_ckpt)
    params.update(init_classifier_params(encoder_cfg, init_rng))

    # a frozen encoder enters the graph as constants, so no encoder gradient is formed
    trainable = [k for k in params if not cfg.freeze_encoder or k.startswith("classifier.")]

    optimizer = adam(lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_labels = np.array(train.labels)

    def step(batch: np.ndarray) -> float:
        """One forward and backward pass and the Adam step, its last call. Only
        the loss leaves it, so its graph and gradients die when it returns."""
        nonlocal params
        leaves = as_tensors({k: params[k] for k in trainable})
        leaves.update({k: Tensor(v, requires_grad=False)
                       for k, v in params.items() if k not in leaves})
        centers = gram_schmidt(leaves["readout.centers"])
        logits = classify(features(train.gather(batch), leaves, encoder_cfg, centers=centers),
                          leaves)
        loss = cross_entropy(logits, train_labels[batch])
        grads = backward(loss, wrt=[leaves[k] for k in trainable])
        params = {**params, **opt_step(optimizer, {k: params[k] for k in trainable},
                                       {k: grads[leaves[k]] for k in trainable})}
        return loss.item()

    best_auroc = -1.0
    best_epoch = -1
    best_params = params
    log: list[tuple[int, float, float]] = []
    for epoch, train_loss in train_epochs(len(train), range(1, cfg.epochs + 1), cfg.batch_size,
                                          order_rng, step, "finetuning"):
        with non_finite_guard(f"finetuning epoch {epoch} validation"):
            val_auroc = auroc(score_dataset(val, params, encoder_cfg))
        log.append((epoch, train_loss, val_auroc))
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
