"""Clustering solvers: Lloyd k-means, relaxed k-means, robust trimmed
k-means (RTKM), and the staged trimmed-k-means baseline.

All solvers minimize the weighted squared-distance objective
    sum_i v_i sum_j w_ji ||x_i - c_j||^2
with the columns of W constrained to the s-capped simplex and, for RTKM,
the inlier vector v constrained to the (N - [alpha*N])-capped simplex.
The relaxed solver and RTKM use proximal (projected) block updates for W
and v with fixed step divisors d, e > 1; the center update is the exact
weighted mean.  Two engines run the four solvers: the hard engine
(_hard_fit) runs k-means and trimmed k-means, the soft engine (_pam_fit)
runs relaxed k-means and RTKM.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import project_columns, project_mass


class ConfigError(ValueError):
    """Invalid solver configuration or incompatible dimensions."""


W_INIT_MODES = ("projected", "hard", "random")
INIT_MODES = ("random-points", "kmeans++")
SUPPORT_EPS = 1e-6  # for s > 1, a point belongs to clusters whose weight exceeds this


def trim_count(alpha: float, n_points: int) -> int:
    """Number of trimmed points [alpha*N]: nearest integer, halves round up."""
    target = np.round(alpha * n_points, 9)  # absorb binary representation error
    return int(np.floor(target + 0.5))


@dataclass(frozen=True)
class Dataset:
    """Column-point data matrix with optional ground truth.

    points is m features x N points; truth_memberships (when present) is a
    length-N tuple of cluster-index frozensets, empty for truth outliers.
    """

    points: np.ndarray
    truth_memberships: tuple = None
    truth_outliers: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigError("points must be an m x N matrix with m, N >= 1")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("points contain non-finite entries")
        object.__setattr__(self, "points", pts)
        if self.truth_memberships is not None:
            members = tuple(map(frozenset, self.truth_memberships))
            if len(members) != pts.shape[1]:
                raise ConfigError("truth_memberships length must equal N")
            object.__setattr__(self, "truth_memberships", members)
        if self.truth_outliers is not None:
            flags = np.asarray(self.truth_outliers, dtype=bool)
            if flags.shape != (pts.shape[1],):
                raise ConfigError("truth_outliers length must equal N")
            if self.truth_memberships is not None:
                for i in np.flatnonzero(flags):
                    if self.truth_memberships[i]:
                        raise ConfigError(
                            f"point {i} is flagged as outlier but has cluster labels"
                        )
            object.__setattr__(self, "truth_outliers", flags)

    @property
    def n_features(self) -> int:
        return self.points.shape[0]

    @property
    def n_points(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    k: int
    s: int = 1
    alpha: float = 0.0
    step_d: float = 1.1
    step_e: float = 1.1
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    init: str = "random-points"
    w_init: str = "random"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 1 <= self.s <= self.k:
            raise ConfigError("s must satisfy 1 <= s <= k")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError("alpha must lie in [0, 1)")
        if self.step_d <= 1.0 or self.step_e <= 1.0:
            raise ConfigError("step divisors must exceed 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        if self.init not in INIT_MODES:
            raise ConfigError(f"init must be one of {INIT_MODES}")
        if self.w_init not in W_INIT_MODES:
            raise ConfigError(f"w_init must be one of {W_INIT_MODES}")


@dataclass(frozen=True)
class FitResult:
    centers: np.ndarray  # (m, k)
    memberships: np.ndarray  # (k, N)
    inliers: np.ndarray  # (N,), all ones for the non-robust solvers
    hard_assignments: tuple  # length N, frozensets of cluster indices
    outlier_flags: np.ndarray  # (N,) bool
    objective_trace: tuple
    iterations: int
    converged: bool
    stop_reason: str


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, N) matrix of squared Euclidean distances ||x_i - c_j||^2.

    Raises FloatingPointError when a distance overflows to a non-finite value.
    """
    d2 = cdist(centers.T, points.T, metric="sqeuclidean")
    if not np.isfinite(d2).all():
        raise FloatingPointError("squared distances overflow; rescale the data")
    return d2


def objective_kmeans(data: Dataset, centers: np.ndarray, memberships: np.ndarray) -> float:
    """Weighted k-means objective sum_ji w_ji ||x_i - c_j||^2 (objective_rtkm
    with every inlier weight 1)."""
    return objective_rtkm(data, centers, memberships, np.ones(data.n_points))


def objective_rtkm(data: Dataset, centers: np.ndarray, memberships: np.ndarray,
                   inliers: np.ndarray) -> float:
    """Robust objective sum_i v_i sum_j w_ji ||x_i - c_j||^2."""
    centers = np.asarray(centers, dtype=float)
    memberships = np.asarray(memberships, dtype=float)
    inliers = np.asarray(inliers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] != data.n_features:
        raise ConfigError("centers must be m x k")
    if memberships.shape != (centers.shape[1], data.n_points):
        raise ConfigError("membership matrix must be k x N")
    if inliers.shape != (data.n_points,):
        raise ConfigError("inlier vector length must equal N")
    per_point = (memberships * squared_distances(data.points, centers)).sum(axis=0)
    return float((inliers * per_point).sum())


def init_centers(data: Dataset, config: SolverConfig) -> np.ndarray:
    """Seeded initial centers: k distinct data columns (random-points) or
    squared-distance-proportional sampling (kmeans++)."""
    return _start_centers(data, config, None, np.random.default_rng(config.seed))


def _start_centers(data, config, initial_centers, rng):
    """A validated copy of initial_centers, or k centers drawn with rng."""
    X = data.points
    k, n = config.k, data.n_points
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of points N={n}")
    if initial_centers is not None:
        C = np.asarray(initial_centers, dtype=float).copy()
        if C.shape != (data.n_features, k):
            raise ConfigError("initial_centers must be m x k")
        return C
    if config.init == "random-points":
        idx = rng.choice(n, size=k, replace=False)
        return X[:, idx].copy()
    # kmeans++
    idx = [int(rng.integers(n))]
    d2 = ((X - X[:, idx[0]][:, None]) ** 2).sum(axis=0)
    for _ in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise FloatingPointError("kmeans++ distances overflow; rescale the data")
        if total <= 0:
            choices = np.setdiff1d(np.arange(n), idx)
            nxt = int(rng.choice(choices))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        idx.append(nxt)
        d2 = np.minimum(d2, ((X - X[:, nxt][:, None]) ** 2).sum(axis=0))
    return X[:, idx].copy()


def hard_assign(memberships: np.ndarray, inliers: np.ndarray, alpha: float, s: int = 1):
    """Extract final assignments from converged (W, v).

    s=1 gives singleton argmax sets (ties to the lowest index); s>1 keeps
    every cluster with weight above SUPPORT_EPS.  The [alpha*N] points of
    smallest v (ties to the lowest index) are flagged as outliers and get
    empty assignment sets.
    """
    w = np.asarray(memberships, dtype=float)
    v = np.asarray(inliers, dtype=float)
    k, n = w.shape
    n_out = trim_count(alpha, n)
    flags = np.zeros(n, dtype=bool)
    if n_out > 0:
        flags[np.argsort(v, kind="stable")[:n_out]] = True
    if s == 1:
        singles = [frozenset((j,)) for j in range(k)]
        best = w.argmax(axis=0).tolist()
        sets = [frozenset() if out else singles[j] for j, out in zip(best, flags.tolist())]
    else:
        support = w > SUPPORT_EPS
        support[:, flags] = False
        _, clusters = np.nonzero(support.T)  # point-major: each point's clusters in a run
        ends = np.cumsum(support.sum(axis=0)).tolist()
        clusters = clusters.tolist()
        sets = [frozenset(clusters[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return tuple(sets), flags


def _fit_result(C, W, v, alpha, config, trace, iters, converged, reason):
    sets, flags = hard_assign(W, v, alpha, s=config.s)
    return FitResult(
        centers=C,
        memberships=W,
        inliers=v,
        hard_assignments=sets,
        outlier_flags=flags,
        objective_trace=tuple(trace),
        iterations=iters,
        converged=converged,
        stop_reason=reason,
    )


def _hard_fit(data: Dataset, config: SolverConfig, initial_centers, trim: bool) -> FitResult:
    """The hard engine.  A Lloyd phase with nothing trimmed alternates
    nearest-center assignment and mean updates; with trim, a trimming phase
    follows in which each step first trims the [alpha*N] points furthest from
    their centers and updates the centers from the rest.  Each phase stops
    when its partition repeats or after max_iters steps."""
    X = data.points
    n, k = data.n_points, config.k
    cols = np.arange(n)
    C = _start_centers(data, config, initial_centers, np.random.default_rng(config.seed))
    d2 = squared_distances(X, C)
    assign = d2.argmin(axis=0)
    trimmed = np.zeros(n, dtype=bool)
    trace = [float(d2[assign, cols].sum())]
    iters = 0
    phases = (0, trim_count(config.alpha, n)) if trim else (0,)
    for n_trim in phases:
        converged = False
        for _ in range(config.max_iters):
            iters += 1
            new_trimmed = np.zeros(n, dtype=bool)
            if n_trim > 0:  # d2 holds the distances to the current centers
                new_trimmed[np.argsort(-d2[assign, cols], kind="stable")[:n_trim]] = True
            for j in range(k):
                members = (assign == j) & ~new_trimmed
                if members.any():
                    C[:, j] = X[:, members].mean(axis=1)
                # empty cluster: keep the previous center
            d2 = squared_distances(X, C)
            new_assign = d2.argmin(axis=0)
            trace.append(float(d2[new_assign, cols][~new_trimmed].sum()))
            converged = (np.array_equal(new_assign, assign)
                         and np.array_equal(new_trimmed, trimmed))
            assign, trimmed = new_assign, new_trimmed
            if converged:
                break
    reason = "max_iters"
    if converged:
        reason = "partition_stable" if trim else "assignments_stable"
    return _fit_result(C, _one_hot(assign, k), (~trimmed).astype(float),
                       config.alpha if trim else 0.0, config, trace, iters, converged, reason)


def _one_hot(assign, k):
    W = np.zeros((k, assign.size))
    W[assign, np.arange(assign.size)] = 1.0
    return W


def _initial_weights(G0, v0, config, rng):
    k, n = G0.shape
    s = float(config.s)
    if config.w_init == "random":
        return project_columns(rng.random((k, n)), s)
    if config.w_init == "hard":
        order = np.argsort(G0, axis=0, kind="stable")
        W = np.zeros((k, n))
        for r in range(config.s):
            W[order[r], np.arange(n)] = 1.0
        return W
    # "projected": one proximal step from the uniform point using the
    # initial centers.  The uniform point itself is a fixed point of the
    # iteration (all centers collapse onto the weighted global mean), so it
    # is no start; "random" and "projected" both break that symmetry.
    return project_columns(np.full((k, n), s / k) - (v0[None, :] * G0) / config.step_d, s)


def _pam_fit(data: Dataset, config: SolverConfig, alpha: float, initial_centers=None) -> FitResult:
    """The soft engine: proximal block updates of the centers, W and v."""
    X = data.points
    n = data.n_points
    s = config.s
    n_out = trim_count(alpha, n)
    if n_out >= n:
        raise ConfigError("alpha trims every point; no inliers remain")
    inlier_mass = n - n_out

    rng = np.random.default_rng(config.seed)  # draws the centers, then W
    C = _start_centers(data, config, initial_centers, rng)
    v = np.full(n, inlier_mass / n)
    G = squared_distances(X, C)
    W = _initial_weights(G, v, config, rng)

    trace = []
    prev_obj = None
    converged = False
    reason = "max_iters"
    iters = 0
    for iters in range(1, config.max_iters + 1):
        vw = v[None, :] * W
        den = vw.sum(axis=1)
        num = X @ vw.T
        ok = den > 0.0
        C = np.where(ok[None, :], num / np.where(ok, den, 1.0)[None, :], C)
        G = squared_distances(X, C)
        W = project_columns(W - (v[None, :] * G) / config.step_d, float(s))
        per_point = (W * G).sum(axis=0)
        if n_out > 0:
            v = project_mass(v - per_point / config.step_e, float(inlier_mass))
        obj = float((v * per_point).sum())
        trace.append(obj)
        if prev_obj is not None and abs(prev_obj - obj) <= config.tol * max(1.0, prev_obj):
            converged = True
            reason = "objective_stationary"
            break
        prev_obj = obj

    return _fit_result(C, W, v, alpha, config, trace, iters, converged, reason)


def fit_kmeans(data: Dataset, config: SolverConfig, initial_centers=None) -> FitResult:
    """Lloyd's algorithm: alternate nearest-center assignment and mean
    updates until the assignment repeats or max_iters."""
    if config.s != 1:
        raise ConfigError("k-means requires s = 1")
    return _hard_fit(data, config, initial_centers, trim=False)


def fit_relaxed_kmeans(data: Dataset, config: SolverConfig, initial_centers=None) -> FitResult:
    """Relaxed k-means: continuous membership columns on the s-capped
    simplex, proximal weight updates, exact mean center updates."""
    return _pam_fit(data, config, alpha=0.0, initial_centers=initial_centers)


def fit_rtkm(data: Dataset, config: SolverConfig, initial_centers=None) -> FitResult:
    """Robust trimmed k-means: joint descent over centers, memberships,
    and the inlier vector; flags exactly [alpha*N] outliers."""
    return _pam_fit(data, config, alpha=config.alpha, initial_centers=initial_centers)


def fit_trimmed_kmeans(data: Dataset, config: SolverConfig, initial_centers=None) -> FitResult:
    """Staged baseline: run standard k-means, then repeat {trim the
    [alpha*N] points furthest from their centers, recompute centers from
    the remainder, reassign} until the partition stabilizes."""
    if config.s != 1:
        raise ConfigError("trimmed k-means requires s = 1")
    if config.k > data.n_points - trim_count(config.alpha, data.n_points):
        raise ConfigError("k exceeds the number of untrimmed points")
    return _hard_fit(data, config, initial_centers, trim=True)


ALGORITHMS = {
    "kmeans": fit_kmeans,
    "relaxed": fit_relaxed_kmeans,
    "rtkm": fit_rtkm,
    "trimmed": fit_trimmed_kmeans,
}
