"""Evaluation metrics: average F1 over an optimal cluster matching, and
the ROC-distance outlier score M_e."""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


@dataclass(frozen=True)
class Clustering:
    """Point-index cluster sets (possibly overlapping) plus an outlier set."""

    clusters: tuple
    outliers: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(frozenset(c) for c in self.clusters))
        object.__setattr__(self, "outliers", frozenset(self.outliers))


def clustering_from_result(hard_assignments, n_clusters: int, outlier_flags=None) -> Clustering:
    """Build a Clustering from per-point assignment sets (any iterables of
    cluster labels in [0, n_clusters), such as frozensets or lists)."""
    sets = list(hard_assignments)
    try:
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        labels = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
    except (TypeError, ValueError, OverflowError):
        raise MetricError("hard assignments must be collections of integer labels") from None
    if labels.size and not (0 <= labels.min() and labels.max() < n_clusters):
        bad = labels[(labels < 0) | (labels >= n_clusters)][0]
        raise MetricError(f"cluster label {bad} outside [0, {n_clusters})")
    # group the point indices by label: one stable sort, one slice per cluster
    order = np.argsort(labels, kind="stable")
    members = np.repeat(np.arange(len(sets)), sizes)[order].tolist()
    ends = np.cumsum(np.bincount(labels, minlength=n_clusters)).tolist()
    clusters = tuple(frozenset(members[a:b]) for a, b in zip([0] + ends, ends))
    outliers = frozenset()
    if outlier_flags is not None:
        outliers = frozenset(np.flatnonzero(np.asarray(outlier_flags, bool)).tolist())
    return Clustering(clusters, outliers)


def f1_single(tp: int, fp: int, fn: int) -> float:
    """F1 = TP / (TP + (FP + FN)/2); the all-zero case counts as a perfect
    vacuous match and returns 1."""
    if tp < 0 or fp < 0 or fn < 0:
        raise MetricError("counts must be nonnegative")
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return tp / (tp + 0.5 * (fp + fn))


def _pair_f1(pred: frozenset, true: frozenset) -> float:
    tp = len(pred & true)
    return f1_single(tp, len(pred) - tp, len(true) - tp)


def f1_matrix(predicted_sets, truth_sets) -> np.ndarray:
    return np.array([[_pair_f1(p, t) for t in truth_sets] for p in predicted_sets])


def average_f1(predicted: Clustering, truth: Clustering) -> float:
    """Mean per-cluster F1 over truth clusters after the exact
    maximum-weight one-to-one matching of predicted to truth clusters.

    When the truth contains outliers, each side's outlier set joins the
    matching as one extra cluster.  Truth clusters left unmatched score 0.
    """
    pred_sets = list(predicted.clusters)
    truth_sets = list(truth.clusters)
    if truth.outliers:
        pred_sets.append(predicted.outliers)
        truth_sets.append(truth.outliers)
    if not truth_sets:
        raise MetricError("truth clustering is empty")
    scores = f1_matrix(pred_sets, truth_sets)
    rows, cols = linear_sum_assignment(scores, maximize=True)
    return float(scores[rows, cols].sum() / len(truth_sets))


def me_score(predicted_flags, truth_flags) -> float:
    """Distance of the outlier classifier from the perfect ROC point:
    sqrt(FP_rate^2 + (1 - TP_rate)^2), in [0, sqrt(2)]."""
    pred = np.asarray(predicted_flags, dtype=bool)
    true = np.asarray(truth_flags, dtype=bool)
    if pred.shape != true.shape or pred.ndim != 1:
        raise MetricError("flag vectors must be 1-d and the same length")
    n_out = int(true.sum())
    n_in = true.size - n_out
    if n_out == 0 or n_in == 0:
        raise MetricError("truth must contain at least one outlier and one inlier")
    tp = int((pred & true).sum())
    fp = int((pred & ~true).sum())
    tp_rate = tp / n_out
    fp_rate = fp / n_in
    return float(np.hypot(fp_rate, 1.0 - tp_rate))
