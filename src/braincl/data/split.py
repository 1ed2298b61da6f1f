"""Stratified train/validation/test partitioning: ``SplitSpec`` holds the
three fractions, and the seed is an argument of ``stratified_split``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import Dataset, DatasetError

__all__ = ["SplitSpec", "stratified_split"]


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.70
    val: float = 0.10
    test: float = 0.20

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        for name, f in zip(("train", "val", "test"), fracs):
            if not 0.0 < f < math.inf:
                raise ValueError(f"{name}_fraction must be positive and finite, got {f}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


def _apportion(count: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder rounding; ties go to the earlier part."""
    quotas = [count * f for f in fractions]
    base = [int(np.floor(q)) for q in quotas]
    shortfall = count - sum(base)
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:shortfall]:
        base[i] += 1
    return base


def stratified_split(ds: Dataset, spec: SplitSpec,
                     seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a labeled dataset preserving class proportions per part.

    Within each class, members are shuffled by a generator seeded with
    ``seed`` (a finetuning run passes its own seed) and dealt to
    train/val/test according to largest-remainder quotas, so per-class
    counts match the fractions to within one sample. Deterministic: the
    same (dataset, spec, seed) always yields the same partition.
    """
    unlabeled = [s.subject_id for s in ds if s.label is None]
    if unlabeled:
        raise DatasetError(f"cannot stratify unlabeled samples: {unlabeled[:5]}")
    by_class: dict[int, list[int]] = {}
    for idx, s in enumerate(ds):
        by_class.setdefault(s.label, []).append(idx)
    for label, members in sorted(by_class.items()):
        if len(members) < 3:
            raise DatasetError(f"class {label} has only {len(members)} samples; need >= 3")

    rng = np.random.default_rng(seed)
    fractions = (spec.train, spec.val, spec.test)
    part_indices: tuple[list[int], ...] = ([], [], [])
    for label in sorted(by_class):
        members = np.array(by_class[label])
        rng.shuffle(members)
        counts = _apportion(len(members), fractions)
        start = 0
        for part, c in zip(part_indices, counts):
            part.extend(int(i) for i in members[start:start + c])
            start += c

    samples = ds.samples
    return tuple(Dataset(tuple(samples[i] for i in sorted(part)))
                 for part in part_indices)
