"""Binary-classification metrics: AUROC and ROC curves.

AUROC uses the rank form (probability a random positive outscores a random
negative, ties counting one half), which coincides exactly with the
trapezoidal area under the ROC curve produced by `roc_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import write_csv

__all__ = ["ScoredSet", "RocCurve", "auroc", "roc_points",
           "write_roc_csv", "write_roc_svg"]


@dataclass(frozen=True)
class ScoredSet:
    """Per-sample class-1 probabilities in [0, 1] with {0,1} labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        if scores.ndim != 1 or labels.ndim != 1 or scores.size != labels.size:
            raise ValueError("scores and labels must be 1-D and the same length")
        if scores.size < 1:
            raise ValueError("need at least one sample")
        if not np.isfinite(scores).all() or scores.min() < 0.0 or scores.max() > 1.0:
            raise ValueError("scores must lie in [0, 1]")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def n_positive(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def n_negative(self) -> int:
        return int((self.labels == 0).sum())


def _require_both_classes(s: ScoredSet, what: str) -> None:
    if s.n_positive == 0 or s.n_negative == 0:
        raise ValueError(f"{what} needs at least one sample of each class")


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank range."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    end = np.cumsum(counts) - 1  # 0-based sorted position of each group's last value
    start = end - counts + 1
    return ((start + end) / 2.0 + 1.0)[group]


def auroc(s: ScoredSet) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + P(equal)/2."""
    _require_both_classes(s, "auroc")
    ranks = _tied_ranks(s.scores)
    n_pos, n_neg = s.n_positive, s.n_negative
    pos_rank_sum = float(ranks[s.labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class RocCurve:
    """Operating points (threshold, fpr, tpr), threshold descending.

    The first point is the predict-nothing sentinel (inf, 0, 0); the last
    always reaches (1, 1). Both rates are non-decreasing along the curve.
    """

    points: tuple[tuple[float, float, float], ...]

    def area(self) -> float:
        total = 0.0
        for (_, fpr0, tpr0), (_, fpr1, tpr1) in zip(self.points, self.points[1:]):
            total += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
        return total


def roc_points(s: ScoredSet) -> RocCurve:
    """One point per distinct score (predict positive iff score >= t)."""
    _require_both_classes(s, "roc_points")
    order = np.argsort(-s.scores, kind="mergesort")
    scores = s.scores[order]
    tp = np.cumsum(s.labels[order] == 1)  # positives at or above each sorted position
    fp = np.arange(1, scores.size + 1) - tp
    first = np.r_[True, scores[1:] != scores[:-1]]  # a distinct score starts here
    last = np.r_[first[1:], True]  # and ends here
    points = [(float("inf"), 0.0, 0.0)]
    points += zip(scores[first].tolist(), (fp[last] / s.n_negative).tolist(),
                  (tp[last] / s.n_positive).tolist())
    return RocCurve(points=tuple(points))


# ---------------------------------------------------------------------------
# emission


def write_roc_csv(path, curve: RocCurve) -> None:
    write_csv(path, ["threshold", "fpr", "tpr"], curve.points)


_SVG_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
               "#16a085", "#7f8c8d", "#2c3e50")
_SVG_SIZE = 480  # width and height, in pixels


def write_roc_svg(path, curves: dict[str, RocCurve]) -> None:
    """Standalone SVG: unit axes with ticks, one polyline per named curve."""
    margin = 56
    span = _SVG_SIZE - 2 * margin

    def x(fpr: float) -> float:
        return margin + fpr * span

    def y(tpr: float) -> float:
        return _SVG_SIZE - margin - tpr * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(1)}" y2="{y(0)}" stroke="black"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(0)}" y2="{y(1)}" stroke="black"/>',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(1)}" y2="{y(1)}" '
        f'stroke="#999" stroke-dasharray="6,4"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<line x1="{x(tick)}" y1="{y(0)}" x2="{x(tick)}" y2="{y(0) + 5}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x(tick)}" y="{y(0) + 20}" font-size="11" '
                     f'text-anchor="middle">{tick:g}</text>')
        parts.append(f'<line x1="{x(0) - 5}" y1="{y(tick)}" x2="{x(0)}" y2="{y(tick)}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x(0) - 9}" y="{y(tick) + 4}" font-size="11" '
                     f'text-anchor="end">{tick:g}</text>')
    parts.append(f'<text x="{x(0.5)}" y="{_SVG_SIZE - 12}" font-size="13" '
                 f'text-anchor="middle">False positive rate</text>')
    parts.append(f'<text x="16" y="{y(0.5)}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {y(0.5)})">True positive rate</text>')

    for idx, (name, curve) in enumerate(curves.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        # escaped by hand: importing html.escape raised a desk run's peak RSS by 0.4 MB
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        coords = " ".join(f"{x(fpr):.2f},{y(tpr):.2f}" for _, fpr, tpr in curve.points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{x(0.62)}" y="{y(0.05) - 16 * idx}" font-size="11" '
                     f'fill="{color}">{label} (AUROC {curve.area():.3f})</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
