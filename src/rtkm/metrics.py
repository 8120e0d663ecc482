"""Evaluation metrics: average F1 over an optimal cluster matching, and
the ROC-distance outlier score M_e."""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment

from .solver import as_boolean


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


@dataclass(frozen=True, eq=False)
class Clustering:
    """A (k, N) boolean cluster matrix, whose row j marks the points of
    cluster j (rows may overlap), plus an (N,) boolean outlier vector
    (default: no outliers)."""

    clusters: np.ndarray
    outliers: np.ndarray = None

    def __post_init__(self):
        clusters = as_boolean(self.clusters, MetricError, "clusters")
        if clusters.ndim != 2:
            raise MetricError("clusters must be a k x N matrix")
        outliers = np.zeros(clusters.shape[1], dtype=bool)
        if self.outliers is not None:
            outliers = as_boolean(self.outliers, MetricError, "outlier flags")
        if outliers.shape != (clusters.shape[1],):
            raise MetricError("outlier flags must be one per point")
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "outliers", outliers)


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
    clusters = np.zeros((n_clusters, len(sets)), dtype=bool)
    clusters[labels, np.repeat(np.arange(len(sets)), sizes)] = True
    return Clustering(clusters, outlier_flags)


def average_f1(predicted: Clustering, truth: Clustering) -> float:
    """Mean per-cluster F1 over truth clusters after the exact
    maximum-weight one-to-one matching of predicted to truth clusters.

    The F1 of clusters p and t is 2|p & t| / (|p| + |t|), and 1 when both
    are empty.  When the truth contains outliers, each side's outlier set
    joins the matching as one extra cluster.  Truth clusters left
    unmatched score 0.
    """
    pred, true = predicted.clusters, truth.clusters
    if pred.shape[1] != true.shape[1]:
        raise MetricError("clusterings cover different numbers of points")
    if truth.outliers.any():
        pred = np.vstack([pred, predicted.outliers])
        true = np.vstack([true, truth.outliers])
    if true.shape[0] == 0:
        raise MetricError("truth clustering is empty")
    tp = pred.astype(float) @ true.T.astype(float)
    sizes = pred.sum(axis=1)[:, None] + true.sum(axis=1)[None, :]
    scores = np.where(sizes == 0, 1.0, 2.0 * tp / np.maximum(sizes, 1))
    rows, cols = linear_sum_assignment(scores, maximize=True)
    return float(scores[rows, cols].sum() / true.shape[0])


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
