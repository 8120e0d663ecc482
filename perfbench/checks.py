"""Correctness checks made apart from the program.

Metrics are recomputed from boolean indicator matrices and
scipy.optimize.linear_sum_assignment, and the fit outputs are checked
against properties the method must have.  Every function returns a list
of problems; an empty list means the check passed.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

METRIC_TOL = 1e-12


def trim_count(alpha_text, n):
    """round-half-up(alpha * N), computed exactly from the decimal alpha."""
    return math.floor(Fraction(alpha_text) * n + Fraction(1, 2))


def indicator(sets, n_rows):
    """(n_rows, N) boolean matrix from per-point sets of row indices."""
    lengths = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
    rows = np.fromiter((j for s in sets for j in s), dtype=np.int64,
                       count=int(lengths.sum()))
    out = np.zeros((n_rows, len(sets)), dtype=bool)
    out[rows, np.repeat(np.arange(len(sets)), lengths)] = True
    return out


def average_f1(pred, pred_out, truth, truth_out):
    """Mean F1 over truth clusters after the best one-to-one matching; each
    side's outlier set joins as one more cluster when the truth has outliers."""
    if truth_out.any():
        pred = np.vstack([pred, pred_out])
        truth = np.vstack([truth, truth_out])
    tp = pred.astype(float) @ truth.T.astype(float)
    sizes = pred.sum(axis=1)[:, None] + truth.sum(axis=1)[None, :]
    f1 = np.where(sizes == 0, 1.0, 2.0 * tp / np.maximum(sizes, 1))
    rows, cols = linear_sum_assignment(f1, maximize=True)
    return float(f1[rows, cols].sum() / truth.shape[0])


def me_score(pred_out, truth_out):
    """Distance from the perfect ROC point of the outlier flags."""
    tpr = (pred_out & truth_out).sum() / truth_out.sum()
    fpr = (pred_out & ~truth_out).sum() / (~truth_out).sum()
    return float(math.hypot(fpr, 1.0 - tpr))


def fit_problems(label, *, flags, weights, trace, sets, n_out, s, descent):
    """Properties of one fit: the outlier count, the inlier weights, descent
    of the objective and the size of every inlier's assignment set."""
    n = flags.size
    problems = []
    if int(flags.sum()) != n_out:
        problems.append(f"{label}: {int(flags.sum())} outliers flagged, expected {n_out}")
    if weights.min() < 0.0 or weights.max() > 1.0:
        problems.append(f"{label}: inlier weights leave [0, 1]")
    if abs(weights.sum() - (n - n_out)) > 1e-9 * n:
        problems.append(f"{label}: inlier weights sum to {weights.sum()!r}, "
                        f"expected {n - n_out}")
    if descent:
        rises = [i for i in range(1, len(trace))
                 if trace[i] > trace[i - 1] + 1e-12 * abs(trace[i - 1])]
        if rises:
            problems.append(f"{label}: objective rises at iterations {rises[:5]}")
    sizes = np.fromiter((len(x) for x in sets), dtype=np.int64, count=n)
    if (sizes[flags] != 0).any():
        problems.append(f"{label}: a flagged outlier keeps clusters")
    if (sizes[~flags] < s).any():
        problems.append(f"{label}: an inlier has fewer than s={s} clusters")
    return problems


def close(label, ours, theirs):
    if theirs is None or abs(ours - theirs) > METRIC_TOL:
        return [f"{label}: recomputed {ours!r}, program reported {theirs!r}"]
    return []
