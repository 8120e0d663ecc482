"""Clustering solvers: Lloyd k-means, relaxed k-means, robust trimmed
k-means (RTKM), and the staged trimmed-k-means baseline.

All solvers minimize the weighted squared-distance objective
    sum_i v_i sum_j w_ji ||x_i - c_j||^2
with the columns of W constrained to the s-capped simplex and, for RTKM,
the inlier vector v constrained to the (N - [alpha*N])-capped simplex.
The relaxed solver and RTKM use proximal (projected) block updates for W
and v with fixed step divisors d, e > 1.  One driver (_descend) runs the
four solvers on two step kinds: the hard step (_hard_fit) of k-means and
trimmed k-means, and the soft step (_pam_fit) of relaxed k-means and
RTKM.  Both update the centers with one function (_weighted_means), the
exact weighted mean X (v*W)^T / sum(v*W), summed over fixed blocks of
points so that its bits do not change with the BLAS thread count at the
shapes the README lists under "BLAS threads".
"""

import numbers
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .geometry import project_columns, project_mass


class ConfigError(ValueError):
    """Invalid solver configuration or incompatible dimensions."""


W_INIT_MODES = ("hard", "random")
INIT_MODES = ("random-points", "kmeans++")
SUPPORT_EPS = 1e-6  # for s > 1, a point belongs to clusters whose weight exceeds this
_POINT_BLOCK = 1024  # points per block of the center product (_weighted_means)


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
    """Column-point data matrix with its ground truth.

    points is m features x N points; truth_memberships is a (k, N)
    boolean matrix whose row j marks the points of truth cluster j (a
    point may be in several; truth outliers are in none), and
    truth_outliers the (N,) boolean truth outlier flags.  A truth field
    left empty (the default) holds no truth: a (0, N) matrix, N false
    flags.
    """

    points: np.ndarray
    truth_memberships: np.ndarray = ()
    truth_outliers: np.ndarray = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigError("points must be an m x N matrix with m, N >= 1")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("points contain non-finite entries")
        n = pts.shape[1]
        members = as_boolean(self.truth_memberships, ConfigError, "truth_memberships")
        if members.shape == (0,):
            members = members.reshape(0, n)
        if members.ndim != 2 or members.shape[1] != n:
            raise ConfigError("truth_memberships must be a k x N matrix")
        flags = as_boolean(self.truth_outliers, ConfigError, "truth_outliers")
        if flags.shape == (0,):
            flags = np.zeros(n, dtype=bool)
        if flags.shape != (n,):
            raise ConfigError("truth_outliers length must equal N")
        labeled = flags & members.any(axis=0)
        if labeled.any():
            raise ConfigError(f"point {np.flatnonzero(labeled)[0]} is flagged "
                              "as outlier but has cluster labels")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "truth_memberships", members)
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
        for field in fields(self):  # int fields take integers, float fields reals; no bools
            value = getattr(self, field.name)
            kind = {int: numbers.Integral, float: numbers.Real}.get(field.type, field.type)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{field.name} must be {field.type.__name__}, not {value!r}")
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


def squared_distances(points: np.ndarray, centers: np.ndarray, norms: np.ndarray,
                      out=None) -> np.ndarray:
    """(k, N) matrix of squared Euclidean distances ||x_i - c_j||^2 of
    centred points, given norms, their squared column norms.

    Computed as ||x_i||^2 - 2 c_j.x_i + ||c_j||^2 with one matrix product.
    That expansion cancels when the points lie far from the origin relative
    to their spread, so the points and centers are moved by the points'
    mean first: _distances_to does so, once per fit.  An entry within the
    expansion's rounding error of 0, (m+2) ulps of the norms, is 0: a
    center that equals a point is at distance exactly 0, and no entry is
    negative.  out, a C-contiguous (k, N) float array, receives the matrix.

    Raises FloatingPointError when a distance overflows to a non-finite
    value.
    """
    if np.shape(norms) != points.shape[1:]:
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


def _distances_to(points):
    """The function distances(centers, out=None) of the (k, N) squared
    distances from the centers to the columns of points, written into out
    if given.  It is the one place that centres points: they are moved by
    their mean, and their norms taken, once, here."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught later
        mean = points.mean(axis=1, keepdims=True)
        centred = points - mean
        norms = np.einsum("ij,ij->j", centred, centred)
    return lambda centers, out=None: squared_distances(centred, centers - mean, norms, out)


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


def _total(values, axis=None):
    """values.sum(axis), raising FloatingPointError (with no warning) if
    a sum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        total = values.sum(axis=axis)
    if not np.isfinite(total).all():
        raise FloatingPointError("a sum of squared distances overflows; rescale the data")
    return total


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
    distances = _distances_to(data.points)(centers)
    with np.errstate(over="ignore", invalid="ignore"):  # the sums raise
        per_point = _total(memberships * distances, axis=0)
        return float(_total(inliers * per_point))


def init_centers(data: Dataset, config: SolverConfig) -> np.ndarray:
    """Seeded initial centers: k distinct data columns (random-points) or
    squared-distance-proportional sampling (kmeans++)."""
    return _start_centers(data, config, None, np.random.default_rng(config.seed),
                          _distances_to(data.points))


def _start_centers(data, config, initial_centers, rng, distances):
    """A validated copy of initial_centers, or k centers drawn with rng;
    kmeans++ measures with distances, the fit's _distances_to."""
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
    idx = [int(rng.integers(n))]  # kmeans++
    d2 = distances(X[:, idx])[0]
    for _ in range(1, k):
        total = _total(d2)
        if total <= 0:
            choices = np.setdiff1d(np.arange(n), idx)
            nxt = int(rng.choice(choices))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        idx.append(nxt)
        np.minimum(d2, distances(X[:, [nxt]])[0], out=d2)
    return X[:, idx].copy()


def _smallest(values, count):
    """Flags of the count smallest of the N values (count <= N, no nan),
    ties to the lowest index: the set np.argsort(values, kind="stable")[:count]
    gives, found by one partition instead of a sort."""
    if count == 0:
        return np.zeros(values.size, dtype=bool)
    kth = np.partition(values, count - 1)[count - 1]
    flags, ties = values < kth, values == kth
    flags[np.flatnonzero(ties)[:count - np.count_nonzero(flags)]] = True
    return flags


def _weighted_means(C, X, vw):
    """Set each center (column of C) to the mean of the points (columns of
    X) weighted by its row of the (k, N) weights vw: C = X vw^T / sum(vw).
    The product is summed over fixed blocks of _POINT_BLOCK points, in
    order, so its bits do not depend on how BLAS splits one product among
    its threads.  A center with zero weight keeps its value."""
    sums = np.zeros(C.shape)
    for start in range(0, X.shape[1], _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        sums += X[:, block] @ vw[:, block].T
    weights = vw.sum(axis=1)
    filled = weights > 0.0
    C[:, filled] = sums[:, filled] / weights[filled]


def hard_assign(memberships: np.ndarray, inliers: np.ndarray, alpha: float, s: int = 1):
    """Extract final assignments from the (W, v) of a fit of either engine.

    Returns a (k, N) boolean assignment matrix and the (N,) outlier flags.
    s=1 assigns each point to its cluster of largest weight (ties to the
    lowest index); s>1 to every cluster with weight above SUPPORT_EPS.  The
    [alpha*N] points of smallest v (ties to the lowest index) are flagged
    as outliers and assigned to no cluster.  W must be a finite (k, N)
    matrix, s lie in [1, k], alpha in [0, 1), and v have N finite entries.
    """
    w = np.asarray(memberships, dtype=float)
    v = np.asarray(inliers, dtype=float)
    if w.ndim != 2 or not 1 <= s <= len(w):
        raise ConfigError("memberships must be a (k, N) matrix and 1 <= s <= k")
    k, n = w.shape
    if not 0.0 <= alpha < 1.0:
        raise ConfigError("alpha must lie in [0, 1)")
    if v.shape != (n,):
        raise ConfigError("inlier vector length must equal N")
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ConfigError("memberships and inliers must be finite")
    flags = _smallest(v, trim_count(alpha, n))
    if s == 1:
        assigned = np.zeros((k, n), dtype=bool)
        assigned[_first_extreme(w, np.maximum)[0], np.arange(n)] = True
    else:
        assigned = w > SUPPORT_EPS
    assigned[:, flags] = False
    return assigned, flags


def _descend(steps, max_iters, trace):
    """Run each phase's step up to max_iters times, appending the objective
    it returns to trace, until it also returns a reason to stop (at a fixed
    point).  Returns FitResult's (iterations, converged, stop_reason)."""
    first = len(trace)
    for step in steps:
        for _ in range(max_iters):
            objective, reason = step()
            trace.append(objective)
            if reason:
                break
        else:
            reason = "max_iters"
    return len(trace) - first, reason != "max_iters", reason


def _hard_fit(data: Dataset, config: SolverConfig, initial_centers, trim: bool) -> FitResult:
    """The hard engine.  A Lloyd phase with nothing trimmed alternates
    nearest-center assignment and mean updates; with trim, a trimming phase
    follows whose steps first trim the [alpha*N] points furthest from their
    centers.  A phase stops when its partition repeats.  W is one-hot on the
    nearest centers (the trimmed points' too), v is 0 on the trimmed points."""
    if config.s != 1:
        raise ConfigError(f"{'trimmed k-means' if trim else 'k-means'} requires s = 1")
    X = data.points
    n, k = data.n_points, config.k
    alpha = config.alpha if trim else 0.0
    if trim and k > n - trim_count(alpha, n):
        raise ConfigError("k exceeds the number of untrimmed points")
    distances = _distances_to(X)
    C = _start_centers(data, config, initial_centers, np.random.default_rng(config.seed),
                       distances)
    buffer = np.empty((k, n))  # the distances, then the weights of the center update
    assign, nearest = _first_extreme(distances(C, buffer), np.minimum)
    trimmed = np.zeros(n, dtype=bool)
    points = np.arange(n)
    stable = "partition_stable" if trim else "assignments_stable"

    def step(n_trim):
        nonlocal assign, nearest, trimmed
        # nearest holds the distances to the current centers
        new_trimmed = _smallest(-nearest, n_trim)
        buffer.fill(0.0)  # one-hot on the nearest centers, 0 on trimmed points
        buffer[assign, points] = ~new_trimmed
        _weighted_means(C, X, buffer)
        new_assign, nearest = _first_extreme(distances(C, buffer), np.minimum)
        repeated = np.array_equal(new_assign, assign) and np.array_equal(new_trimmed, trimmed)
        assign, trimmed = new_assign, new_trimmed
        return float(_total(nearest[~trimmed])), stable if repeated else None

    trace = [float(_total(nearest))]
    phases = (0, trim_count(alpha, n)) if trim else (0,)
    run = _descend([partial(step, n_trim) for n_trim in phases], config.max_iters, trace)
    W = np.zeros((k, n))
    W[assign, points] = 1.0
    v = (~trimmed).astype(float)
    return FitResult(C, W, v, *hard_assign(W, v, alpha), tuple(trace), *run)


def _pam_fit(data: Dataset, config: SolverConfig, alpha: float, initial_centers=None) -> FitResult:
    """The soft engine: proximal block updates of the centers, W and v."""
    X = data.points
    n, k = data.n_points, config.k
    s = config.s
    n_out = trim_count(alpha, n)
    if n_out >= n:
        raise ConfigError("alpha trims every point; no inliers remain")
    inlier_mass = n - n_out

    distances = _distances_to(X)
    rng = np.random.default_rng(config.seed)  # draws the centers, then W
    C = _start_centers(data, config, initial_centers, rng, distances)
    v = np.full(n, inlier_mass / n)
    G = np.empty((k, n))  # the distances to the centers
    if config.w_init == "random":
        W = project_columns(rng.random((k, n)), float(s))
    else:  # "hard": 1 on each point's s nearest start centers
        W = np.zeros((k, n))
        np.put_along_axis(W, np.argsort(distances(C, G), axis=0, kind="stable")[:s], 1.0, axis=0)
    work = np.empty((k, n))  # each (k, N) temporary of an iteration in turn
    trace = []

    def step():
        nonlocal W, v
        _weighted_means(C, X, np.multiply(v, W, out=work))
        distances(C, G)
        update = np.multiply(v, G, out=work)
        update /= config.step_d
        np.subtract(W, update, out=work)
        del W  # freed before the projection allocates its output
        W = project_columns(work, float(s))
        per_point = _total(np.multiply(W, G, out=work), axis=0)  # finite for the v step
        v = project_mass(v - per_point / config.step_e, float(inlier_mass))
        obj = float(_total(v * per_point))
        stationary = trace and abs(trace[-1] - obj) <= config.tol * max(1.0, trace[-1])
        return obj, "objective_stationary" if stationary else None

    run = _descend([step], config.max_iters, trace)
    return FitResult(C, W, v, *hard_assign(W, v, alpha, s), tuple(trace), *run)


def fit_kmeans(data: Dataset, config: SolverConfig, initial_centers=None) -> FitResult:
    """Lloyd's algorithm: alternate nearest-center assignment and mean
    updates until the assignment repeats or max_iters."""
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
    return _hard_fit(data, config, initial_centers, trim=True)


ALGORITHMS = {
    "kmeans": fit_kmeans,
    "relaxed": fit_relaxed_kmeans,
    "rtkm": fit_rtkm,
    "trimmed": fit_trimmed_kmeans,
}
