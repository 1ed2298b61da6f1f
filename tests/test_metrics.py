import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braincl.metrics import (
    RocCurve,
    ScoredSet,
    _tied_ranks,
    auroc,
    roc_points,
    write_roc_csv,
    write_roc_svg,
)
from braincl.pipeline import summarize_scores
from references import confusion_metrics


def brute_force_auroc(scores, labels) -> float:
    """O(n^2) pair counting: wins + half ties over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# auroc


def test_perfect_separation_scores_one():
    s = ScoredSet(scores=[0.9, 0.8, 0.2, 0.1], labels=[1, 1, 0, 0])
    assert auroc(s) == 1.0


def test_all_ties_score_half():
    s = ScoredSet(scores=[0.5] * 6, labels=[0, 1, 0, 1, 0, 1])
    assert auroc(s) == 0.5


def test_worked_four_sample_example():
    # pairs (pos, neg): (0.35 vs 0.1) win, (0.35 vs 0.4) loss,
    # (0.8 vs 0.1) win, (0.8 vs 0.4) win -> 3/4
    s = ScoredSet(scores=[0.1, 0.4, 0.35, 0.8], labels=[0, 0, 1, 1])
    assert auroc(s) == 0.75


def test_auroc_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        s = ScoredSet(scores=scores, labels=labels)
        assert abs(auroc(s) - brute_force_auroc(scores, labels)) < 1e-12


def test_auroc_invariant_under_monotone_transform_and_flip():
    rng = np.random.default_rng(1)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    base = auroc(ScoredSet(scores=scores, labels=labels))
    squashed = auroc(ScoredSet(scores=scores ** 3, labels=labels))
    assert abs(base - squashed) < 1e-12
    # no ties almost surely, so flipping labels complements the area
    flipped = auroc(ScoredSet(scores=scores, labels=1 - labels))
    assert abs(flipped - (1.0 - base)) < 1e-12


def test_auroc_rejects_single_class():
    with pytest.raises(ValueError):
        auroc(ScoredSet(scores=[0.1, 0.9], labels=[1, 1]))


def test_scored_set_validation():
    with pytest.raises(ValueError):
        ScoredSet(scores=[1.5], labels=[1])
    with pytest.raises(ValueError):
        ScoredSet(scores=[0.5, 0.5], labels=[0, 2])
    with pytest.raises(ValueError):
        ScoredSet(scores=[], labels=[])


# ---------------------------------------------------------------------------
# the summary of a scored set: auroc, and the three rates at 0.5


def two_class_set(rng, decimals=None) -> ScoredSet:
    n = int(rng.integers(2, 40))
    labels = rng.integers(0, 2, n)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    scores = rng.random(n) if decimals is None else np.round(rng.random(n), decimals)
    return ScoredSet(scores=scores, labels=labels)


def test_confusion_perfect_two_samples():
    m = summarize_scores(ScoredSet(scores=[0.6, 0.4], labels=[1, 0]))
    assert m == {"accuracy": 1.0, "auroc": 1.0, "sensitivity": 1.0, "specificity": 1.0}


def test_confusion_all_positive_predictions():
    m = summarize_scores(ScoredSet(scores=[0.9, 0.8, 0.7, 0.6], labels=[1, 0, 1, 0]))
    assert m["specificity"] == 0.0
    assert m["sensitivity"] == 1.0
    assert m["accuracy"] == 0.5


def test_confusion_worked_example():
    # enumerate by hand: predictions at 0.5 are (1, 1, 0, 0) against labels
    # (1, 0, 1, 0), so TP=FP=FN=TN=1
    s = ScoredSet(scores=[0.9, 0.6, 0.3, 0.2], labels=[1, 0, 1, 0])
    oracle = confusion_metrics(s)
    assert (oracle["tp"], oracle["fp"], oracle["fn"], oracle["tn"]) == (1, 1, 1, 1)
    m = summarize_scores(s)
    assert m["accuracy"] == 0.5
    assert m["sensitivity"] == 0.5
    assert m["specificity"] == 0.5


def test_confusion_boundary_score_counts_positive():
    # a score of exactly 0.5 predicts class 1: a true positive here, a false one below
    m = summarize_scores(ScoredSet(scores=[0.5, 0.2], labels=[1, 0]))
    assert m["sensitivity"] == 1.0 and m["specificity"] == 1.0 and m["accuracy"] == 1.0
    m = summarize_scores(ScoredSet(scores=[0.2, 0.5], labels=[1, 0]))
    assert m["sensitivity"] == 0.0 and m["specificity"] == 0.0 and m["accuracy"] == 0.0


def test_accuracy_decomposition_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = two_class_set(rng)
        m = summarize_scores(s)
        n_pos, n_neg = s.n_positive, s.n_negative
        assert abs(m["accuracy"] - (m["sensitivity"] * n_pos + m["specificity"] * n_neg)
                   / (n_pos + n_neg)) < 1e-12


def test_summary_rates_equal_the_confusion_oracle():
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = two_class_set(rng, decimals=int(rng.integers(0, 3)))  # many scores at 0.5
        m = summarize_scores(s)
        oracle = confusion_metrics(s)
        assert list(m) == ["accuracy", "auroc", "sensitivity", "specificity"]
        for name in ("accuracy", "sensitivity", "specificity"):
            assert m[name] == oracle[name], name
        assert m["auroc"] == auroc(s)


def test_summary_of_a_one_class_set_raises_naming_auroc():
    for labels in ([1, 1], [0, 0]):
        with pytest.raises(ValueError, match="auroc needs at least one sample of each class"):
            summarize_scores(ScoredSet(scores=[0.3, 0.7], labels=labels))


# ---------------------------------------------------------------------------
# roc curve


def test_roc_perfect_classifier_passes_through_corner():
    s = ScoredSet(scores=[0.9, 0.8, 0.2, 0.1], labels=[1, 1, 0, 0])
    curve = roc_points(s)
    assert (0.0, 1.0) in {(fpr, tpr) for _, fpr, tpr in curve.points}
    assert curve.points[0][1:] == (0.0, 0.0)
    assert curve.points[-1][1:] == (1.0, 1.0)


def test_roc_degenerate_all_tied():
    s = ScoredSet(scores=[0.5] * 4, labels=[0, 1, 0, 1])
    curve = roc_points(s)
    assert [p[1:] for p in curve.points] == [(0.0, 0.0), (1.0, 1.0)]
    assert curve.area() == 0.5


def test_roc_area_equals_auroc():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 50
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = np.round(rng.random(n), 1)
        s = ScoredSet(scores=scores, labels=labels)
        assert abs(roc_points(s).area() - auroc(s)) < 1e-12


def test_roc_monotone_rates():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    s = ScoredSet(scores=rng.random(30), labels=labels)
    pts = roc_points(s).points
    fprs = [p[1] for p in pts]
    tprs = [p[2] for p in pts]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    thresholds = [p[0] for p in pts]
    assert thresholds == sorted(thresholds, reverse=True)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_roc_area_identity_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(n), 2)
    s = ScoredSet(scores=scores, labels=labels)
    assert abs(roc_points(s).area() - auroc(s)) < 1e-12


def loop_tied_ranks(values):
    """Reference: walk the sorted values, one tie group at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_roc_points(s):
    """Reference: one point per distinct score, counting each tie group's labels."""
    order = np.argsort(-s.scores, kind="mergesort")
    scores, labels = s.scores[order], s.labels[order]
    points = [(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[j + 1] == scores[i]:
            j += 1
        tp += int((labels[i:j + 1] == 1).sum())
        fp += int((labels[i:j + 1] == 0).sum())
        points.append((float(scores[i]), fp / s.n_negative, tp / s.n_positive))
        i = j + 1
    return tuple(points)


def test_grouped_ranks_and_roc_match_the_loops_exactly():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.random(n), int(rng.integers(0, 4)))  # heavy ties
        labels = rng.integers(0, 2, n)
        labels[rng.choice(n, 2, replace=False)] = [0, 1]
        s = ScoredSet(scores=scores, labels=labels)
        assert np.array_equal(_tied_ranks(s.scores), loop_tied_ranks(s.scores))
        assert roc_points(s).points == loop_roc_points(s)
    one = ScoredSet(scores=[0.5], labels=[1])
    assert np.array_equal(_tied_ranks(one.scores), loop_tied_ranks(one.scores))


# ---------------------------------------------------------------------------
# emission


def test_roc_csv_and_svg_outputs(tmp_path):
    s = ScoredSet(scores=[0.9, 0.7, 0.4, 0.2], labels=[1, 0, 1, 0])
    curve = roc_points(s)
    csv_path = tmp_path / "roc.csv"
    write_roc_csv(csv_path, curve)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == len(curve.points) + 1

    svg_path = tmp_path / "roc.svg"
    write_roc_svg(svg_path, {"demo": curve, "other": RocCurve(points=(
        (float("inf"), 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 1.0, 1.0)))})
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "False positive rate" in text and "True positive rate" in text
