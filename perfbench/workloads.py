"""The benchmark's workloads: a dataset shape, a CLI verb and its config.

Each run generates its dataset from the workload seed with ``synth_dataset``
and writes it as time-series CSVs before timing starts, so the program only
ever receives files. The same seed is passed to the CLI as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The acceptance suite's criterion-7 desk configuration (K=10, proj 32,
# batch 32, queue 128, SGD, augment k 2-5, N(0,0.01)).
DESK_MODEL = """\
[model]
n_clusters = 10
proj_dim = 32

[augment]
k_min = 2
k_max = 5
delta_max = 0.2
noise = N(0,0.01)
"""


@dataclass(frozen=True)
class Workload:
    verb: str  # "pretrain" | "finetune"
    subjects: int
    nodes: int
    length: int  # time points per subject series
    blocks: int  # synth_dataset community count
    config: str  # INI text passed with --config
    min_invocations: int  # an untraced run makes at least this many CLI invocations


WORKLOADS = {
    # Per-op Python overhead and one graph per sample dominate; every
    # contrastive layer runs and Gram-Schmidt at K=10 is a small share.
    "desk_pretrain": Workload(
        verb="pretrain", subjects=200, nodes=20, length=30,
        blocks=4, min_invocations=5,
        config=DESK_MODEL + """
[pretrain]
epochs = 2
lr = 0.05
batch_size = 32
queue_capacity = 128
momentum = 0.99
temperature = 0.07
"""),
    # Same encoder, used differently: Adam and cross-entropy, inference-only
    # scoring every epoch, per-repeat artifacts. No augmentation or
    # contrastive code runs, so a pretrain-only change must not move it.
    # lr 1e-3, not the paper's 5e-5: in two epochs the last-epoch loss falls
    # to about 0.53, so finetuning that stopped learning (ln 2 = 0.693)
    # would worsen final_loss by more than its bound.
    "desk_finetune": Workload(
        verb="finetune", subjects=200, nodes=20, length=30,
        blocks=4, min_invocations=4,
        config=DESK_MODEL + """
[pretrain]
epochs = 0

[finetune]
epochs = 2
lr = 0.001
weight_decay = 0.00005
batch_size = 16
repeats = 3
"""),
    # Paper-scale model: the two O(K^2) Gram-Schmidt sweeps per step
    # (query and key encoder) dominate; CSV parsing of V=200 series counts
    # toward set-up. Temperature 1.0, not 0.07: with four subjects the
    # final-epoch loss sums over at most three queue keys, and at 0.07 it
    # swung threefold across seeds. Temperature does not change the work.
    "paper_pretrain": Workload(
        verb="pretrain", subjects=4, nodes=200, length=120,
        blocks=4, min_invocations=4,
        config="""\
[model]
n_clusters = 100
proj_dim = 128

[augment]
k_min = 5
k_max = 20
delta_max = 0.5
noise = N(0,0.01)

[pretrain]
epochs = 1
lr = 0.00001
batch_size = 1
queue_capacity = 512
momentum = 0.999
temperature = 1.0
"""),
}

