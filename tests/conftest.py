import numpy as np
import pytest
from hypothesis import settings

from rtkm import Clustering, Dataset

# --hypothesis-profile=ci draws the same examples on every run, so a failure
# in CI replays locally; print_blob prints the line that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)


def grid_projection_oracle(y, mass, levels=16, grid=21):
    """Brute-force projection onto {w in [0,1]^n : sum w = mass} by grid
    refinement over the first n-1 coordinates (n <= 4)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    assert 2 <= n <= 4
    lows = np.zeros(n - 1)
    highs = np.ones(n - 1)
    best = None
    best_dist = np.inf
    for _ in range(levels):
        axes = [np.linspace(lows[d], highs[d], grid) for d in range(n - 1)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
        last = mass - mesh.sum(axis=1)
        feasible = (last >= -1e-9) & (last <= 1 + 1e-9)
        cand = np.concatenate([mesh, last[:, None]], axis=1)[feasible]
        if len(cand):
            dist = ((cand - y) ** 2).sum(axis=1)
            i = int(np.argmin(dist))
            if dist[i] < best_dist:
                best, best_dist = cand[i], dist[i]
        # window of +/- 4 grid steps: the sum constraint makes the sliced
        # objective a narrow valley, so a tight window can shed the
        # optimum and stall the refinement
        step = (highs - lows) / (grid - 1)
        lows = np.clip(best[: n - 1] - 4 * step, 0, 1)
        highs = np.clip(best[: n - 1] + 4 * step, 0, 1)
    return np.clip(best, 0.0, 1.0)


def clustering(sets, n_points, outliers=()):
    """A Clustering of n_points points from per-cluster sets of point indices."""
    clusters = np.zeros((len(sets), n_points), dtype=bool)
    for j, members in enumerate(sets):
        clusters[j, list(members)] = True
    flags = np.zeros(n_points, dtype=bool)
    flags[list(outliers)] = True
    return Clustering(clusters, flags)


def pair_f1(pred, true):
    """F1 = TP / (TP + (FP + FN)/2) of two point sets; two empty sets are a
    perfect vacuous match."""
    tp = len(pred & true)
    fp, fn = len(pred) - tp, len(true) - tp
    return 1.0 if tp == fp == fn == 0 else tp / (tp + 0.5 * (fp + fn))


def exhaustive_average_f1(pred_sets, truth_sets):
    """Maximum of the mean per-truth-cluster F1 over every one-to-one
    matching, by enumerating permutations (small instances only)."""
    from itertools import permutations

    scores = np.array([[pair_f1(p, t) for t in truth_sets] for p in pred_sets])
    n_pred, n_truth = scores.shape
    best = 0.0
    if n_pred >= n_truth:
        for perm in permutations(range(n_pred), n_truth):
            best = max(best, sum(scores[p, t] for t, p in enumerate(perm)))
    else:
        for perm in permutations(range(n_truth), n_pred):
            best = max(best, sum(scores[p, t] for p, t in enumerate(perm)))
    return best / n_truth


def exact_trimmed_minimum(points, k, s, n_trim):
    """Minimum of sum_j sum_{i in S_j} ||x_i - mean(S_j)||^2 over every set
    of n_trim trimmed points of the (m, N) points and every choice of s of
    the k clusters S_j for each kept point; an empty cluster adds 0.  The
    C(k, s)^(N - n_trim) C(N, n_trim) configurations are enumerated at once
    (tiny instances only).

    It is the global minimum of sum_i v_i sum_j w_ji ||x_i - c_j||^2 over
    (C, W, v) with the columns of W on the s-capped simplex and v on the
    (N - n_trim)-capped one: for fixed centers the best W puts each point
    on its s nearest centers, whatever v is, the best v then keeps the
    N - n_trim smallest losses, and the best centers of a configuration
    are its cluster means."""
    from itertools import combinations

    X = np.asarray(points, dtype=float).T  # (N, m)
    n = len(X)
    # a point's options: each s-set of clusters, then (with n_trim) trimmed
    options = [[j in chosen for j in range(k)] for chosen in combinations(range(k), s)]
    options = np.array(options + [[False] * k] * (n_trim > 0))
    labels = np.indices((len(options),) * n).reshape(n, -1).T  # (configurations, N)
    labels = labels[(labels == len(options) - 1).sum(axis=1) == n_trim] if n_trim else labels
    members = options[labels].transpose(0, 2, 1)  # (configurations, k, N)
    counts = members.sum(axis=2, keepdims=True)
    means = (members @ X) / np.maximum(counts, 1)  # (configurations, k, m)
    deviations = ((X - means[:, :, None, :]) ** 2).sum(axis=3)  # (configurations, k, N)
    return float(np.where(members, deviations, 0.0).sum(axis=(1, 2)).min())


def make_blobs_with_outliers(gen_seed=42, spread=0.6, per_cluster=50,
                             outliers=((120.0, 120.0), (-110.0, 90.0))):
    """Three well-separated 2-d Gaussian blobs plus fixed far outliers."""
    rng = np.random.default_rng(gen_seed)
    means = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
    chunks = [m[:, None] + spread * rng.standard_normal((2, per_cluster)) for m in means]
    if outliers:
        chunks.append(np.array(outliers, dtype=float).T)
    pts = np.concatenate(chunks, axis=1)
    n_out = len(outliers)
    n = pts.shape[1]
    members = np.zeros((3, n), dtype=bool)
    for j in range(3):
        members[j, j * per_cluster:(j + 1) * per_cluster] = True
    flags = np.zeros(n, dtype=bool)
    if n_out:
        flags[-n_out:] = True
    return Dataset(pts, members, flags)


@pytest.fixture
def blobs_dataset():
    return make_blobs_with_outliers()
