"""Training-behavior oracles that go beyond mechanical contracts: the
synthetic data is genuinely separable by a linear baseline, and pretrained
initialization is never slower than random initialization to a target
validation score."""

import numpy as np

from braincl.augment import AugmentConfig, NoiseSpec
from braincl.data import ClassSpec, SplitSpec, stratified_split, synth_dataset
from braincl.metrics import ScoredSet, auroc
from braincl.model import EncoderConfig
from braincl.pipeline import FinetuneConfig, PretrainConfig, finetune, pretrain


def linear_baseline_auroc(ds, seed) -> float:
    """Least squares on the flattened upper triangle, scored on the test fold."""
    train, _, test = stratified_split(ds, SplitSpec(), seed)
    iu = np.triu_indices(ds.n_nodes, k=1)

    def design(part):
        rows = part.gather(slice(None))[:, iu[0], iu[1]]
        return np.column_stack([rows, np.ones(len(part))])

    targets = np.array([2.0 * label - 1.0 for label in train.labels])
    weights, *_ = np.linalg.lstsq(design(train), targets, rcond=None)
    raw = design(test) @ weights
    scores = 1.0 / (1.0 + np.exp(-raw))
    return auroc(ScoredSet(scores=scores, labels=np.array(test.labels)))


def test_linear_baseline_confirms_desk_separability():
    ds = synth_dataset(200, n_nodes=20, length=30, spec=ClassSpec(), seed=0)
    values = [linear_baseline_auroc(ds, seed) for seed in range(3)]
    assert min(values) >= 0.9

    flat = synth_dataset(200, n_nodes=20, length=30,
                         spec=ClassSpec(separation=0.0), seed=0)
    null_values = [linear_baseline_auroc(flat, seed) for seed in range(3)]
    assert max(null_values) < 0.8  # no linearly recoverable signal


def test_pretrained_init_is_no_slower_than_scratch():
    cfg = EncoderConfig(n_nodes=12, layers=1, heads=2, n_clusters=6, proj_dim=16)
    augment = AugmentConfig(k_min=1, k_max=3, delta_max=0.2,
                            noise=NoiseSpec(sigma=0.01))
    ds = synth_dataset(80, n_nodes=12, length=20, spec=ClassSpec(blocks=3), seed=2)
    pre = pretrain(ds, cfg,
                   PretrainConfig(epochs=12, lr=0.05, batch_size=16,
                                  queue_capacity=64, momentum=0.9, seed=3),
                   augment)

    target = 0.8
    max_epochs = 10

    def epochs_to_target(ckpt, seed) -> int:
        fcfg = FinetuneConfig(epochs=max_epochs, lr=1e-3, weight_decay=1e-4,
                              batch_size=16, repeats=1, seed=seed)
        result = finetune(ds, ckpt, cfg, fcfg)
        for epoch, _, val_auroc in result.epoch_log:
            if val_auroc >= target:
                return epoch
        return max_epochs + 1

    warm = [epochs_to_target(pre.encoder_params, seed) for seed in range(5)]
    cold = [epochs_to_target(None, seed) for seed in range(5)]
    assert np.median(warm) <= np.median(cold), (warm, cold)
