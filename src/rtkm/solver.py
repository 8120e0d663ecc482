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
from functools import cached_property

import numpy as np

from .geometry import project_columns, project_mass


class ConfigError(ValueError):
    """Invalid solver configuration or incompatible dimensions."""


W_INIT_MODES = ("hard", "random")
INIT_MODES = ("random-points", "kmeans++")
SUPPORT_EPS = 1e-6  # for s > 1, a point belongs to clusters whose weight exceeds this


def trim_count(alpha: float, n_points: int) -> int:
    """Number of trimmed points [alpha*N]: nearest integer, halves round up."""
    target = np.round(alpha * n_points, 9)  # absorb binary representation error
    return int(np.floor(target + 0.5))


def as_boolean(values, error, what):
    """values as a boolean array.  Raises error when values is ragged or
    has entries that are not booleans, so that per-point label lists or
    0/1 integers are never read as a matrix of flags."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise error(f"{what} must be a rectangular boolean array") from None
    if array.dtype != bool and array.size:
        raise error(f"{what} must be a boolean array, not {array.dtype}")
    return array.astype(bool, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Column-point data matrix with optional ground truth.

    points is m features x N points; truth_memberships (when present) is a
    (k, N) boolean matrix whose row j marks the points of truth cluster j
    (a point may be in several; truth outliers are in none).
    """

    points: np.ndarray
    truth_memberships: np.ndarray = None
    truth_outliers: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigError("points must be an m x N matrix with m, N >= 1")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("points contain non-finite entries")
        object.__setattr__(self, "points", pts)
        if self.truth_memberships is not None:
            members = as_boolean(self.truth_memberships, ConfigError, "truth_memberships")
            if members.ndim != 2 or members.shape[1] != pts.shape[1]:
                raise ConfigError("truth_memberships must be a k x N matrix")
            object.__setattr__(self, "truth_memberships", members)
        if self.truth_outliers is not None:
            flags = as_boolean(self.truth_outliers, ConfigError, "truth_outliers")
            if flags.shape != (pts.shape[1],):
                raise ConfigError("truth_outliers length must equal N")
            if self.truth_memberships is not None:
                labeled = flags & self.truth_memberships.any(axis=0)
                if labeled.any():
                    raise ConfigError(f"point {np.flatnonzero(labeled)[0]} is flagged "
                                      "as outlier but has cluster labels")
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
        if not (1.0 < self.step_d < np.inf and 1.0 < self.step_e < np.inf):  # refuses nan
            raise ConfigError("step divisors must be finite and exceed 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError("tol must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.init not in INIT_MODES:
            raise ConfigError(f"init must be one of {INIT_MODES}")
        if self.w_init not in W_INIT_MODES:
            raise ConfigError(f"w_init must be one of {W_INIT_MODES}")


@dataclass(frozen=True)
class FitResult:
    centers: np.ndarray  # (m, k)
    memberships: np.ndarray  # (k, N)
    inliers: np.ndarray  # (N,), all ones for the non-robust solvers
    assignments: np.ndarray  # (k, N) bool: the hard clusters of each point
    outlier_flags: np.ndarray  # (N,) bool
    objective_trace: tuple
    iterations: int
    converged: bool
    stop_reason: str

    def label_lists(self) -> list:
        """Each point's cluster indices in increasing order, one tuple per
        point.  json writes the tuples as arrays.  Tuples of ints, unlike
        lists, leave the garbage collector's tracking at its first pass, so
        N of them do not make it rescan the heap while they live."""
        _, labels = np.nonzero(self.assignments.T)  # point-major
        ends = np.cumsum(self.assignments.sum(axis=0)).tolist()
        labels = labels.tolist()
        # list slices, not one N-tuple's: see ROADMAP item 8 on peak_rss_mb
        return [tuple(labels[a:b]) for a, b in zip([0] + ends[:-1], ends)]

    @cached_property
    def hard_assignments(self) -> tuple:
        """One frozenset of cluster indices per point, built from assignments
        on first access."""
        return tuple(map(frozenset, self.label_lists()))


def _centred(points):
    """points about their column mean: (mean, centred points, squared norms
    of the centred columns)."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught later
        mean = points.mean(axis=1, keepdims=True)
        centred = points - mean
        return mean, centred, np.einsum("ij,ij->j", centred, centred)


def squared_distances(points: np.ndarray, centers: np.ndarray, norms=None,
                      out=None) -> np.ndarray:
    """(k, N) matrix of squared Euclidean distances ||x_i - c_j||^2.

    Computed as ||x_i||^2 - 2 c_j.x_i + ||c_j||^2 with one matrix product.
    That expansion cancels when the points lie far from the origin relative
    to their spread, so without norms the points and centers are first
    moved by the points' mean.  Passing norms, the squared column norms of
    points, says that the caller has already done so (as each fit does
    once).  An entry within the expansion's rounding error of 0, (m+2) ulps
    of the norms, is 0: a center that equals a point is at distance exactly
    0, and no entry is negative.  out, a C-contiguous (k, N) float array,
    receives the matrix.

    Raises FloatingPointError when a distance overflows to a non-finite
    value.
    """
    if norms is None:
        mean, points, norms = _centred(np.asarray(points, dtype=float))
        centers = np.asarray(centers, dtype=float) - mean
    elif np.shape(norms) != points.shape[1:]:
        raise ValueError("norms must hold one value per point")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        d2 = np.matmul(centers.T * -2.0, points, out=out)
        d2 += norms
        center_norms = np.einsum("ij,ij->j", centers, centers)
        d2 += center_norms[:, None]
        if not d2.size:  # no centers or no points
            return d2
        lowest = d2.min()
        if not (np.isfinite(lowest) and np.isfinite(d2.max())):
            raise FloatingPointError("squared distances overflow; rescale the data")
        # The norms and the product each carry at most m rounding errors of
        # the size of the norms, so below this floor an entry cannot be told
        # from 0.  Most matrices have no entry below it and skip the pass.
        ulps = (points.shape[0] + 2) * np.finfo(float).eps
        if lowest <= ulps * (norms.max() + center_norms.max()):
            np.copyto(d2, 0.0, where=d2 <= ulps * (norms + center_norms.max()))
    return d2


def _distances_to(points, out):
    """The function of the centers that writes their squared distances to
    points into out, with points centred and their norms taken once."""
    mean, centred, norms = _centred(points)
    return lambda centers: squared_distances(centred, centers - mean, norms, out)


def _first_extreme(matrix, extreme):
    """Each column's extreme entry (extreme is np.minimum or np.maximum)
    and the lowest row index that holds it, as argmin or argmax over axis 0
    gives for finite entries, without their transposed copy of the matrix."""
    best = extreme.reduce(matrix, axis=0)
    index = np.zeros(matrix.shape[1], dtype=np.intp)
    searching = np.ones(matrix.shape[1], dtype=bool)  # no row so far holds best
    differs = np.empty_like(searching)
    for row in matrix[:-1]:
        np.not_equal(row, best, out=differs)
        searching &= differs
        index += searching
    return index, best


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
        if not np.isfinite(C).all():
            raise ConfigError("initial_centers must be finite")
        return C
    if config.init == "random-points":
        idx = rng.choice(n, size=k, replace=False)
        return X[:, idx].copy()
    # kmeans++, with the points centred once for the distance kernel
    _, centred, norms = _centred(X)
    idx = [int(rng.integers(n))]
    d2 = squared_distances(centred, centred[:, idx], norms)[0]
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
        np.minimum(d2, squared_distances(centred, centred[:, [nxt]], norms)[0], out=d2)
    return X[:, idx].copy()


def _smallest(values, count):
    """Flags of the count smallest of the N values (count <= N), ties to
    the lowest index: the set np.argsort(values, kind="stable")[:count]
    gives, found by one partition instead of a sort."""
    if count == 0:
        return np.zeros(values.size, dtype=bool)
    kth = np.partition(values, count - 1)[count - 1]
    if np.isnan(kth):  # argsort puts nan last
        flags, ties = ~np.isnan(values), np.isnan(values)
    else:
        flags, ties = values < kth, values == kth
    flags[np.flatnonzero(ties)[:count - np.count_nonzero(flags)]] = True
    return flags


def _update_centers(C, X, labels):
    """Set each center (column of C) to the mean of the points (columns of
    X) labelled with its index, summed in point order; label k marks a
    trimmed point, and a cluster with no points keeps its center."""
    k = C.shape[1]
    counts = np.bincount(labels, minlength=k + 1)[:k]
    filled = counts > 0
    for row, center in zip(X, C):
        sums = np.bincount(labels, weights=row, minlength=k + 1)[:k]
        center[filled] = sums[filled] / counts[filled]


def hard_assign(memberships: np.ndarray, inliers: np.ndarray, alpha: float, s: int = 1):
    """Extract final assignments from converged (W, v) of the soft engine.

    Returns a (k, N) boolean assignment matrix and the (N,) outlier flags.
    s=1 assigns each point to its cluster of largest weight (ties to the
    lowest index; the weights must be finite);
    s>1 to every cluster with weight above SUPPORT_EPS.  The [alpha*N]
    points of smallest v (ties to the lowest index) are flagged as outliers
    and assigned to no cluster.
    """
    w = np.asarray(memberships, dtype=float)
    v = np.asarray(inliers, dtype=float)
    k, n = w.shape
    flags = _smallest(v, trim_count(alpha, n))
    if s == 1:
        assigned = np.zeros((k, n), dtype=bool)
        assigned[_first_extreme(w, np.maximum)[0], np.arange(n)] = True
    else:
        assigned = w > SUPPORT_EPS
    assigned[:, flags] = False
    return assigned, flags


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
    distances = _distances_to(X, np.empty((k, n)))
    assign, nearest = _first_extreme(distances(C), np.minimum)
    trimmed = np.zeros(n, dtype=bool)
    trace = [float(nearest.sum())]
    iters = 0
    phases = (0, trim_count(config.alpha, n)) if trim else (0,)
    for n_trim in phases:
        converged = False
        for _ in range(config.max_iters):
            iters += 1
            # nearest holds the distances to the current centers
            new_trimmed = _smallest(-nearest, n_trim)
            _update_centers(C, X, np.where(new_trimmed, k, assign))
            new_assign, nearest = _first_extreme(distances(C), np.minimum)
            trace.append(float(nearest[~new_trimmed].sum()))
            converged = (np.array_equal(new_assign, assign)
                         and np.array_equal(new_trimmed, trimmed))
            assign, trimmed = new_assign, new_trimmed
            if converged:
                break
    reason = "max_iters"
    if converged:
        reason = "partition_stable" if trim else "assignments_stable"
    assigned = np.zeros((k, n), dtype=bool)
    assigned[assign, cols] = True
    W = assigned.astype(float)  # W keeps the trimmed points' clusters
    assigned[:, trimmed] = False
    return FitResult(C, W, (~trimmed).astype(float), assigned, trimmed, tuple(trace),
                     iters, converged, reason)


def _initial_weights(distances, C0, n, config, rng):
    if config.w_init == "random":
        return project_columns(rng.random((config.k, n)), float(config.s))
    order = np.argsort(distances(C0), axis=0, kind="stable")  # "hard": the s nearest
    W = np.zeros((config.k, n))
    for r in range(config.s):
        W[order[r], np.arange(n)] = 1.0
    return W


def _pam_fit(data: Dataset, config: SolverConfig, alpha: float, initial_centers=None) -> FitResult:
    """The soft engine: proximal block updates of the centers, W and v."""
    X = data.points
    n, k = data.n_points, config.k
    s = config.s
    n_out = trim_count(alpha, n)
    if n_out >= n:
        raise ConfigError("alpha trims every point; no inliers remain")
    inlier_mass = n - n_out

    rng = np.random.default_rng(config.seed)  # draws the centers, then W
    C = _start_centers(data, config, initial_centers, rng)
    v = np.full(n, inlier_mass / n)
    distances = _distances_to(X, np.empty((k, n)))  # the buffer G lives in
    W = _initial_weights(distances, C, n, config, rng)
    work = np.empty((k, n))  # each (k, N) temporary of an iteration in turn

    trace = []
    prev_obj = None
    converged = False
    reason = "max_iters"
    iters = 0
    for iters in range(1, config.max_iters + 1):
        vw = np.multiply(v, W, out=work)
        den = vw.sum(axis=1)
        num = X @ vw.T
        ok = den > 0.0
        C = np.where(ok[None, :], num / np.where(ok, den, 1.0)[None, :], C)
        G = distances(C)
        step = np.multiply(v, G, out=work)
        step /= config.step_d
        np.subtract(W, step, out=work)
        del W  # freed before the projection allocates its output
        W = project_columns(work, float(s))
        per_point = np.multiply(W, G, out=work).sum(axis=0)
        if n_out > 0:
            v = project_mass(v - per_point / config.step_e, float(inlier_mass))
        obj = float((v * per_point).sum())
        trace.append(obj)
        if prev_obj is not None and abs(prev_obj - obj) <= config.tol * max(1.0, prev_obj):
            converged = True
            reason = "objective_stationary"
            break
        prev_obj = obj

    assigned, flags = hard_assign(W, v, alpha, s=s)
    return FitResult(C, W, v, assigned, flags, tuple(trace), iters, converged, reason)


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
