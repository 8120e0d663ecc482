"""Evaluation metrics: average F1 over an optimal cluster matching, and
the ROC-distance outlier score M_e."""

from dataclasses import dataclass
from itertools import chain

import numpy as np

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
    integer cluster labels in [0, n_clusters), such as frozensets or lists).
    A label that is a float or a bool is refused, not read as an integer."""
    sets = list(hard_assignments)
    try:
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        flat = list(chain.from_iterable(sets))
        if not all(t is not bool and issubclass(t, (int, np.integer))
                   for t in set(map(type, flat))):
            raise TypeError
        labels = np.fromiter(flat, dtype=np.intp, count=len(flat))
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
    rows, cols = _max_weight_matching(scores)
    return float(scores[rows, cols].sum() / true.shape[0])


def _max_weight_matching(scores):
    """Rows and columns of a maximum-weight one-to-one matching of the rows
    to the columns of a finite (r, c) matrix: min(r, c) pairs, rows ascending.

    Shortest augmenting paths with dual potentials: the Jonker-Volgenant
    variant in D. F. Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE Trans. Aerosp. Electron. Syst. 52(4), 2016, on the
    negated matrix, transposed so that rows <= columns.  Each row joins the
    matching along a shortest path of reduced costs to a free column
    (Dijkstra over the columns), after which the potentials u, v are moved
    so that every reduced cost stays >= 0 and is 0 on matched pairs.  The
    column order of the scan, the swap-with-last removal and the tie rule
    (among columns at the least distance, the last free one, else the
    first) are those of scipy's linear_sum_assignment, so the two return
    the same pairs.
    """
    transpose = scores.shape[1] < scores.shape[0]
    cost = -(scores.T if transpose else scores)
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    path = np.full(n_cols, -1)
    col4row, row4col = np.full(n_rows, -1), np.full(n_cols, -1)
    for row in range(n_rows):
        dist = np.full(n_cols, np.inf)
        scanned_rows = np.zeros(n_rows, dtype=bool)
        remaining = np.arange(n_cols - 1, -1, -1)
        lowest, i = 0.0, row
        while True:
            scanned_rows[i] = True
            reduced = lowest + cost[i, remaining] - u[i] - v[remaining]
            shorter = reduced < dist[remaining]
            path[remaining[shorter]] = i
            dist[remaining[shorter]] = reduced[shorter]
            left = dist[remaining]
            lowest = left.min()
            ties = np.flatnonzero(left == lowest)
            free = ties[row4col[remaining[ties]] < 0]
            index = free[-1] if free.size else ties[0]
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]
            if row4col[j] < 0:
                break
            i = row4col[j]
        scanned_cols = np.ones(n_cols, dtype=bool)
        scanned_cols[remaining] = False
        u[row] += lowest
        others = np.flatnonzero(scanned_rows)
        others = others[others != row]
        u[others] += lowest - dist[col4row[others]]
        v[scanned_cols] -= lowest - dist[scanned_cols]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    if not transpose:
        return np.arange(n_rows), col4row
    order = np.argsort(col4row)
    return col4row[order], order


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
