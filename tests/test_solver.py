import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rtkm import (
    ALGORITHMS,
    ConfigError,
    Dataset,
    SolverConfig,
    fit_kmeans,
    fit_relaxed_kmeans,
    fit_rtkm,
    fit_trimmed_kmeans,
    generate_synthetic,
    hard_assign,
    init_centers,
    objective_rtkm,
    trim_count,
)
from rtkm.solver import (INIT_MODES, SUPPORT_EPS, _first_extreme, _smallest, _update_centers,
                         squared_distances)

from conftest import make_blobs_with_outliers


def random_dataset(seed, n_max=200, m_max=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return Dataset(rng.normal(0, 3, (m, n)))


# --- objectives ---------------------------------------------------------
# With every inlier weight 1, objective_rtkm is the weighted k-means
# objective sum_ji w_ji ||x_i - c_j||^2.

def test_objective_zero_at_own_center():
    ds = Dataset([[1.0], [2.0]])
    assert objective_rtkm(ds, [[1.0], [2.0]], [[1.0]], [1.0]) == 0.0


def test_objective_hand_computed():
    ds = Dataset([[0.0]])
    c = np.array([[1.0, -1.0]])
    w = np.array([[0.5], [0.5]])
    assert objective_rtkm(ds, c, w, [1.0]) == pytest.approx(1.0)


def test_objective_two_identical_points():
    d = 3.0
    ds = Dataset([[d, d]])
    assert objective_rtkm(ds, [[0.0]], [[1.0, 1.0]], np.ones(2)) == pytest.approx(2 * d * d)


def test_objective_rtkm_all_ones_matches_kmeans():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(0, 1, (3, 20)))
    c = rng.normal(0, 1, (3, 4))
    w = np.abs(rng.normal(0, 1, (4, 20)))
    kmeans = sum(w[j, i] * ((ds.points[:, i] - c[:, j]) ** 2).sum()
                 for j in range(4) for i in range(20))
    assert objective_rtkm(ds, c, w, np.ones(20)) == pytest.approx(kmeans)


def test_objective_rtkm_zero_weight_point():
    ds = Dataset([[0.0, 100.0]])
    c = np.array([[0.0]])
    w = np.ones((1, 2))
    v = np.array([1.0, 0.0])
    assert objective_rtkm(ds, c, w, v) == 0.0


def test_objective_rtkm_half_weight():
    ds = Dataset([[0.0]])
    assert objective_rtkm(ds, [[2.0]], [[1.0]], [0.5]) == pytest.approx(2.0)


def test_objective_dimension_mismatch():
    ds = Dataset([[0.0, 1.0]])
    with pytest.raises(ConfigError):
        objective_rtkm(ds, [[0.0]], [[1.0]], np.ones(2))


# --- squared distances --------------------------------------------------

@st.composite
def _distance_inputs(draw):
    """Points at a drawn scale and offset, and centers of which some are
    copies of points.  Returns (points, centers, indices of the copied
    points, -1 for a drawn center)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, k = draw(st.integers(1, 64)), draw(st.integers(1, 40)), draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e6])) * rng.choice([-1.0, 1.0], (m, 1))
    points = offset + scale * rng.standard_normal((m, n))
    centers = offset + scale * rng.standard_normal((m, k))
    copied = np.where(rng.random(k) < 0.5, rng.integers(0, n, k), -1)
    centers[:, copied >= 0] = points[:, copied[copied >= 0]]
    return points, centers, copied


@settings(max_examples=300, deadline=None)
@given(_distance_inputs())
def test_squared_distances_properties(inputs):
    """The product form matches cdist to 1e-12 of the largest distance, also
    for points 1e6 from the origin, is never negative, and is exactly 0
    where a center is a copy of a point.  Given the norms of centred points
    it writes the same matrix into out."""
    points, centers, copied = inputs
    d2 = squared_distances(points, centers)
    want = cdist(centers.T, points.T, metric="sqeuclidean")
    assert d2.shape == want.shape
    np.testing.assert_allclose(d2, want, rtol=0, atol=1e-12 * want.max())
    assert d2.min() >= 0.0
    rows = np.flatnonzero(copied >= 0)
    assert (d2[rows, copied[rows]] == 0.0).all()
    mean = points.mean(axis=1, keepdims=True)
    centred = points - mean
    out = np.empty_like(d2)
    got = squared_distances(centred, centers - mean, (centred ** 2).sum(axis=0), out)
    assert got is out
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


def test_squared_distances_to_no_centers_is_empty():
    assert squared_distances(np.ones((2, 3)), np.zeros((2, 0))).shape == (0, 3)
    ds = Dataset(np.arange(6.0).reshape(2, 3))
    assert objective_rtkm(ds, np.zeros((2, 0)), np.zeros((0, 3)), np.ones(3)) == 0.0


def test_squared_distances_checks_norms_shape():
    with pytest.raises(ValueError, match="norms"):
        squared_distances(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2))


@pytest.mark.parametrize("fit", [fit_kmeans, fit_trimmed_kmeans, fit_rtkm])
def test_fit_far_from_origin_keeps_distances_accurate(fit):
    """A fit of points 1e6 from the origin reports the objective of its
    output to 1e-9.  The product form without centring misses it by 2e-7 to
    8e-5 here."""
    ds = Dataset(make_blobs_with_outliers().points + 1e6)
    res = fit(ds, SolverConfig(k=3, alpha=2 / 152, seed=0))
    direct = ((ds.points[:, None, :] - res.centers[:, :, None]) ** 2).sum(axis=0)
    want = float((res.inliers * (res.memberships * direct).sum(axis=0)).sum())
    assert res.objective_trace[-1] == pytest.approx(want, rel=1e-9)


OVERFLOWING = Dataset([[1e200, 2.0, 3.0, -1e200, 5.0]])


def test_squared_distances_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            squared_distances(OVERFLOWING.points, OVERFLOWING.points[:, :2])


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("init", INIT_MODES)
def test_fit_overflow_raises_without_warning(name, init):
    """The only signal of an overflow is the FloatingPointError."""
    config = SolverConfig(k=2, alpha=0.2 if name in ("rtkm", "trimmed") else 0.0, init=init)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            ALGORITHMS[name](OVERFLOWING, config)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_first_extreme_matches_argmin_and_argmax(k, n, seed):
    """Ties go to the lowest row, as with argmin and argmax: the entries are
    drawn from a few integers and signed zeros, so most columns tie."""
    rng = np.random.default_rng(seed)
    matrix = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], (k, n))
    cols = np.arange(n)
    for extreme, arg in ((np.minimum, np.argmin), (np.maximum, np.argmax)):
        index, best = _first_extreme(matrix, extreme)
        np.testing.assert_array_equal(index, arg(matrix, axis=0))
        np.testing.assert_array_equal(best, matrix[index, cols])


# --- trim_count ---------------------------------------------------------

@pytest.mark.parametrize("alpha,n,expected", [
    (0.05, 10, 1),   # [0.5] = 1: halves round up
    (0.1, 10, 1),
    (0.15, 10, 2),   # [1.5] = 2
    (0.05, 11, 1),
    (0.1, 11, 1),
    (0.15, 11, 2),
    (0.0, 100, 0),
    (2 / 152, 152, 2),
])
def test_trim_count(alpha, n, expected):
    assert trim_count(alpha, n) == expected


# --- init_centers -------------------------------------------------------

def test_init_centers_all_points_when_k_equals_n():
    ds = Dataset([[0.0, 1.0, 2.0]])
    c = init_centers(ds, SolverConfig(k=3, seed=5))
    assert sorted(c.ravel().tolist()) == [0.0, 1.0, 2.0]


def test_init_centers_deterministic():
    ds = random_dataset(0)
    cfg = SolverConfig(k=4, seed=17)
    np.testing.assert_array_equal(init_centers(ds, cfg), init_centers(ds, cfg))


def test_init_centers_draws_data_columns():
    ds = random_dataset(1)
    c = init_centers(ds, SolverConfig(k=1, seed=3))
    assert any(np.array_equal(c[:, 0], ds.points[:, i]) for i in range(ds.n_points))


def test_init_centers_kmeanspp_distinct():
    ds = random_dataset(2)
    c = init_centers(ds, SolverConfig(k=5, seed=3, init="kmeans++"))
    assert c.shape == (ds.n_features, 5)
    assert len({tuple(col) for col in c.T}) == 5


def test_init_centers_k_exceeds_n():
    ds = Dataset([[0.0, 1.0]])
    with pytest.raises(ConfigError):
        init_centers(ds, SolverConfig(k=3))


def _kmeanspp_reference(X, k, rng):
    """The indices kmeans++ picks, with each squared distance taken by the
    direct formula ((x - c) ** 2).sum()."""
    n = X.shape[1]
    idx = [int(rng.integers(n))]
    d2 = ((X - X[:, idx[0]][:, None]) ** 2).sum(axis=0)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx.append(int(rng.choice(np.setdiff1d(np.arange(n), idx))))
        else:
            idx.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, ((X - X[:, idx[-1]][:, None]) ** 2).sum(axis=0))
    return idx


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e7]),
       st.data())
def test_kmeanspp_picks_the_points_of_the_direct_formula(n, m, seed, coarse, scale, offset,
                                                         data):
    """kmeans++ takes its distances from squared_distances and picks the
    points that the direct formula picks, also among duplicate points (a
    coarse grid) and far from the origin."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (m, n)).astype(float) if coarse else rng.normal(0.0, 1.0, (m, n))
    X = X * scale + offset
    cfg = SolverConfig(k=data.draw(st.integers(1, n)), seed=data.draw(st.integers(0, 99)),
                       init="kmeans++")
    want = _kmeanspp_reference(X, cfg.k, np.random.default_rng(cfg.seed))
    np.testing.assert_array_equal(init_centers(Dataset(X), cfg), X[:, want])


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_refuses_non_finite_initial_centers(name, bad):
    ds = random_dataset(7)
    cfg = SolverConfig(k=2, seed=0)
    centers = init_centers(ds, cfg)
    centers[0, 1] = bad
    with pytest.raises(ConfigError, match="initial_centers must be finite"):
        ALGORITHMS[name](ds, cfg, initial_centers=centers)


# --- k-means ------------------------------------------------------------

def test_kmeans_two_pairs():
    ds = Dataset(np.array([[0.0, 1.0, 10.0, 11.0]]))
    res = fit_kmeans(ds, SolverConfig(k=2, seed=0))
    assert {frozenset(np.flatnonzero(row).tolist()) for row in res.assignments} == {
        frozenset({0, 1}), frozenset({2, 3})}
    centers = sorted(res.centers.ravel().tolist())
    assert centers == pytest.approx([0.5, 10.5])
    # within-pair: 2 * (0.5^2) per pair
    assert res.objective_trace[-1] == pytest.approx(4 * 0.25)


def test_kmeans_k1_center_is_mean():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.normal(0, 2, (3, 40)))
    res = fit_kmeans(ds, SolverConfig(k=1, seed=0))
    np.testing.assert_allclose(res.centers[:, 0], ds.points.mean(axis=1), atol=1e-12)


def test_kmeans_requires_s_one():
    ds = random_dataset(5)
    with pytest.raises(ConfigError):
        fit_kmeans(ds, SolverConfig(k=3, s=2))


def test_kmeans_singleton_assignments_and_all_inliers():
    ds = random_dataset(6)
    res = fit_kmeans(ds, SolverConfig(k=3, seed=1))
    assert (res.assignments.sum(axis=0) == 1).all()
    assert not res.outlier_flags.any()
    np.testing.assert_array_equal(res.inliers, np.ones(ds.n_points))


def test_kmeans_outlier_captures_center_some_seed(blobs_dataset):
    # at least one of 10 seeds yields a degraded clustering on the
    # blobs-plus-far-outliers scenario
    bad = 0
    means = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
    for seed in range(10):
        res = fit_kmeans(blobs_dataset, SolverConfig(k=3, seed=seed))
        dists = np.sqrt(((res.centers.T[:, None, :] - means[None, :, :]) ** 2).sum(-1))
        if dists.min(axis=1).max() > 2.0:  # some center far from every true mean
            bad += 1
    assert bad >= 1


# --- relaxed k-means ----------------------------------------------------

def test_relaxed_weights_reach_vertices():
    ds = make_blobs_with_outliers(outliers=())
    res = fit_relaxed_kmeans(ds, SolverConfig(k=3, s=1, seed=0))
    w_max = res.memberships.max(axis=0)
    assert np.all(w_max > 1.0 - 1e-6)


def test_relaxed_s_equals_k_collapses_to_mean():
    ds = random_dataset(7)
    res = fit_relaxed_kmeans(ds, SolverConfig(k=3, s=3, seed=0))
    np.testing.assert_array_equal(res.memberships, np.ones((3, ds.n_points)))
    for j in range(3):
        np.testing.assert_allclose(res.centers[:, j], ds.points.mean(axis=1),
                                   atol=1e-12)


def test_relaxed_single_point():
    ds = Dataset([[3.0], [4.0]])
    res = fit_relaxed_kmeans(ds, SolverConfig(k=1, s=1, seed=0))
    np.testing.assert_allclose(res.centers[:, 0], [3.0, 4.0], atol=1e-12)
    assert res.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)


def test_relaxed_columns_feasible_every_run():
    for seed in range(5):
        ds = random_dataset(seed + 20)
        res = fit_relaxed_kmeans(ds, SolverConfig(k=4, s=2, seed=seed))
        w = res.memberships
        assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12
        np.testing.assert_allclose(w.sum(axis=0), 2.0, atol=1e-8)


def test_relaxed_matches_kmeans_partition_from_same_centers():
    # vertex-initialized weights on well-separated data: relaxed k-means
    # with s=1 reproduces Lloyd's partition from the same start
    matched = 0
    means = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]]).T
    for seed in range(20):
        ds = make_blobs_with_outliers(gen_seed=seed + 100, outliers=())
        cfg = SolverConfig(k=3, s=1, seed=seed, w_init="hard")
        rng = np.random.default_rng(seed)
        centers0 = means + rng.normal(0, 1.0, means.shape)
        relaxed = fit_relaxed_kmeans(ds, cfg, initial_centers=centers0)
        lloyd = fit_kmeans(ds, cfg, initial_centers=centers0)
        if np.array_equal(relaxed.assignments, lloyd.assignments):
            matched += 1
    assert matched == 20


# --- RTKM ---------------------------------------------------------------

def test_rtkm_alpha_zero_equals_relaxed():
    for seed in range(20):
        ds = random_dataset(seed + 40, n_max=80)
        cfg = SolverConfig(k=3, s=1, alpha=0.0, seed=seed)
        robust = fit_rtkm(ds, cfg)
        relaxed = fit_relaxed_kmeans(ds, cfg)
        assert len(robust.objective_trace) == len(relaxed.objective_trace)
        np.testing.assert_allclose(robust.objective_trace, relaxed.objective_trace,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(robust.assignments, relaxed.assignments)


def test_rtkm_recovers_fig1_scenario(blobs_dataset):
    n = blobs_dataset.n_points
    res = fit_rtkm(blobs_dataset, SolverConfig(k=3, s=1, alpha=2 / n, seed=0))
    assert res.outlier_flags.sum() == 2
    assert set(np.flatnonzero(res.outlier_flags)) == {n - 2, n - 1}
    # three recovered clusters match generator labels up to relabeling
    labels = {frozenset(np.flatnonzero(row).tolist()) for row in res.assignments}
    expected = {frozenset(range(0, 50)), frozenset(range(50, 100)),
                frozenset(range(100, 150))}
    assert labels == expected


def test_rtkm_uniform_inlier_start_is_feasible():
    # the initial v used by the solver has the right mass by construction
    n, alpha = 37, 0.1
    t = trim_count(alpha, n)
    v0 = np.full(n, (n - t) / n)
    assert v0.sum() == pytest.approx(n - t)


def test_rtkm_flag_counts():
    for n in (10, 11, 20):
        for alpha in (0.05, 0.1, 0.15):
            ds = Dataset(np.random.default_rng(n).normal(0, 1, (2, n)))
            res = fit_rtkm(ds, SolverConfig(k=2, alpha=alpha, seed=0))
            assert res.outlier_flags.sum() == trim_count(alpha, n)


def test_rtkm_alpha_trims_everything_rejected():
    ds = Dataset(np.random.default_rng(0).normal(0, 1, (2, 10)))
    with pytest.raises(ConfigError):
        fit_rtkm(ds, SolverConfig(k=2, alpha=0.96, seed=0))


def test_rtkm_feasibility_every_iteration_endpoint():
    for seed in range(5):
        ds = random_dataset(seed + 60, n_max=60)
        n = ds.n_points
        cfg = SolverConfig(k=3, s=2, alpha=0.1, seed=seed)
        res = fit_rtkm(ds, cfg)
        np.testing.assert_allclose(res.memberships.sum(axis=0), 2.0, atol=1e-8)
        assert res.inliers.min() >= -1e-12 and res.inliers.max() <= 1 + 1e-12
        np.testing.assert_allclose(res.inliers.sum(), n - trim_count(0.1, n),
                                   atol=1e-8)


# --- trimmed k-means ----------------------------------------------------

def test_trimmed_alpha_zero_matches_kmeans():
    for seed in range(5):
        ds = random_dataset(seed + 80)
        cfg = SolverConfig(k=3, alpha=0.0, seed=seed)
        a = fit_trimmed_kmeans(ds, cfg)
        b = fit_kmeans(ds, cfg)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_allclose(a.centers, b.centers, atol=1e-12)
        assert not a.outlier_flags.any()
        # the trimming phase adds one step that trims nothing and repeats
        assert b.stop_reason == "assignments_stable"
        assert a.stop_reason == "partition_stable"
        assert a.iterations == b.iterations + 1
        assert a.objective_trace == b.objective_trace + b.objective_trace[-1:]


def test_trimmed_mean_excludes_extreme_point():
    pts = np.array([[0.0, 1.0, 2.0, 100.0]])
    ds = Dataset(pts)
    res = fit_trimmed_kmeans(ds, SolverConfig(k=1, alpha=0.25, seed=0))
    assert res.outlier_flags.tolist() == [False, False, False, True]
    assert res.centers[0, 0] == pytest.approx(1.0)


def test_trimmed_cannot_beat_rtkm_on_bad_start(blobs_dataset):
    # staged trimming inherits k-means' failure mode: on at least one seed
    # its final objective stays above RTKM's on the same instance
    n = blobs_dataset.n_points
    worse = 0
    for seed in range(10):
        trimmed = fit_trimmed_kmeans(
            blobs_dataset, SolverConfig(k=3, alpha=2 / n, seed=seed))
        robust = fit_rtkm(
            blobs_dataset, SolverConfig(k=3, alpha=2 / n, seed=seed))
        if trimmed.objective_trace[-1] > robust.objective_trace[-1] + 1e-6:
            worse += 1
    assert worse >= 1


# --- hard_assign --------------------------------------------------------

def test_hard_assign_argmax():
    assigned, flags = hard_assign(np.array([[0.9], [0.1]]), np.ones(1), 0.0, s=1)
    np.testing.assert_array_equal(assigned, [[True], [False]])
    assert not flags.any()


def test_hard_assign_positive_support():
    assigned, _ = hard_assign(np.array([[1.0], [1.0], [0.0]]), np.ones(1), 0.0, s=2)
    np.testing.assert_array_equal(assigned, [[True], [True], [False]])


def test_hard_assign_tie_lowest_index():
    assigned, _ = hard_assign(np.array([[0.5], [0.5]]), np.ones(1), 0.0, s=1)
    np.testing.assert_array_equal(assigned, [[True], [False]])


def test_hard_assign_outliers_empty_sets():
    w = np.array([[1.0, 1.0, 1.0]])
    v = np.array([1.0, 0.2, 1.0])
    assigned, flags = hard_assign(w, v, alpha=1 / 3, s=1)
    assert flags.tolist() == [False, True, False]
    assert assigned.tolist() == [[True, False, True]]


def test_hard_assign_v_tie_lowest_index():
    w = np.ones((1, 3))
    _, flags = hard_assign(w, np.array([0.5, 0.5, 1.0]), alpha=1 / 3, s=1)
    assert flags.tolist() == [True, False, False]


def reference_hard_assign(w, v, alpha, s, support_eps=1e-6):
    """Per-column loop that hard_assign's vectorised form must reproduce."""
    k, n = w.shape
    flags = np.zeros(n, dtype=bool)
    n_out = trim_count(alpha, n)
    if n_out > 0:
        flags[np.argsort(v, kind="stable")[:n_out]] = True
    assigned = np.zeros((k, n), dtype=bool)
    for i in range(n):
        if flags[i]:
            continue
        if s == 1:
            assigned[int(np.argmax(w[:, i])), i] = True
        else:
            assigned[np.flatnonzero(w[:, i] > support_eps), i] = True
    return assigned, flags


def test_hard_assign_matches_reference_loop():
    rng = np.random.default_rng(13)
    for trial in range(60):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        s = int(rng.integers(1, k + 1))
        # quarter-steps give argmax ties; zero columns give empty support
        w = rng.integers(0, 5, (k, n)) / 4
        w[:, rng.random(n) < 0.2] = 0.0
        w[:, rng.random(n) < 0.2] = 1e-7  # below SUPPORT_EPS
        v = rng.integers(0, 3, n) / 2
        alpha = float(rng.choice([0.0, 0.1, 0.3]))
        assigned, flags = hard_assign(w, v, alpha, s=s)
        want_assigned, want_flags = reference_hard_assign(w, v, alpha, s)
        assert assigned.dtype == bool
        np.testing.assert_array_equal(assigned, want_assigned, err_msg=str(trial))
        np.testing.assert_array_equal(flags, want_flags)


def test_hard_assign_inlier_without_support_is_empty():
    w = np.array([[0.9, 1e-7], [0.8, 1e-7]])
    assigned, flags = hard_assign(w, np.ones(2), 0.0, s=2)
    np.testing.assert_array_equal(assigned, [[True, False], [True, False]])
    assert not flags.any()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.data())
def test_smallest_matches_a_stable_argsort(n, seed, data):
    """The partition-based selection picks the set a stable argsort's first
    count entries give: ties (0.0 and -0.0 among them) go to the lowest
    indices, and nan counts as the largest value."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-3, 4, n) / 2  # many ties
    values[rng.random(n) < 0.2] = -0.0
    values[rng.random(n) < 0.1] = rng.choice([np.inf, -np.inf, np.nan])
    count = data.draw(st.integers(0, n))
    for x in (values, -values):
        want = np.zeros(n, dtype=bool)
        want[np.argsort(x, kind="stable")[:count]] = True
        np.testing.assert_array_equal(_smallest(x, count), want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 80), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_update_centers_equals_the_per_cluster_means(m, n, k, seed):
    """The bincount update gives, bit for bit, the means the hard engine
    took cluster by cluster with X[:, members].mean(axis=1).  With m >= 2
    that slice is F-ordered, so its mean sums in point order, as bincount
    does; label k marks a trimmed point."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
    X[rng.random((m, n)) < 0.1] = -0.0
    labels = rng.integers(0, k + 1, n)
    C = rng.normal(size=(m, k))
    want = C.copy()
    for j in range(k):
        if (labels == j).any():
            want[:, j] = X[:, labels == j].mean(axis=1)
    _update_centers(C, X, labels)
    np.testing.assert_array_equal(C, want)
    np.testing.assert_array_equal(np.signbit(C), np.signbit(want))


@pytest.mark.parametrize("fit", [fit_relaxed_kmeans, fit_rtkm])
@pytest.mark.parametrize("scale", [1e8, 1e12])
def test_soft_fit_keeps_feasible_weights_on_large_data(fit, scale):
    """At a data scale of 1e8 the W step's entries pass 2**53, where
    u_1 - mass rounds to u_1; the s = 1 projection must still give columns
    summing to 1, and the fit the same partition as on unscaled data."""
    data = generate_synthetic(k=3, points=50, outliers=2, seed=42)
    big = Dataset(data.points * scale)
    config = SolverConfig(k=3, alpha=2 / 152, seed=0, max_iters=100)
    want, got = fit(data, config), fit(big, config)
    np.testing.assert_allclose(got.memberships.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    np.testing.assert_array_equal(got.outlier_flags, want.outlier_flags)


# --- invariants ---------------------------------------------------------

def test_monotone_descent_all_solvers():
    fits = {"kmeans": fit_kmeans, "relaxed": fit_relaxed_kmeans, "rtkm": fit_rtkm}
    for name, fit in fits.items():
        for seed in range(25):
            ds = random_dataset(seed + 200, n_max=100)
            alpha = 0.1 if name == "rtkm" else 0.0
            s = 1
            cfg = SolverConfig(k=3, s=s, alpha=alpha, seed=seed, max_iters=200)
            trace = np.array(fit(ds, cfg).objective_trace)
            assert np.all(np.diff(trace) <= 1e-9), f"{name} seed {seed}"


def test_determinism():
    ds = random_dataset(300)
    cfg = SolverConfig(k=3, s=1, alpha=0.1, seed=9)
    a = fit_rtkm(ds, cfg)
    b = fit_rtkm(ds, cfg)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.memberships, b.memberships)
    np.testing.assert_array_equal(a.inliers, b.inliers)
    assert a.objective_trace == b.objective_trace
    np.testing.assert_array_equal(a.assignments, b.assignments)


@st.composite
def _equivariance_inputs(draw, w_init):
    """Gaussian points, an rtkm config and a numpy generator for the shift
    or permutation, all from hypothesis seeds."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, min(n, 4)))
    config = SolverConfig(k=k, s=draw(st.integers(1, k)),
                          alpha=draw(st.sampled_from([0.0, 0.1, 0.25])),
                          max_iters=draw(st.integers(1, 60)), seed=draw(st.integers(0, 99)),
                          init=draw(st.sampled_from(INIT_MODES)), w_init=w_init)
    return Dataset(rng.normal(0.0, 3.0, (m, n))), config, rng


def fit_matches(b, a, perm, atol):
    """Whether fit b is fit a with its points reordered by perm: W and v to
    atol, the assignment matrix and the outlier flags exactly."""
    return (np.allclose(b.memberships, a.memberships[:, perm], rtol=0, atol=atol)
            and np.allclose(b.inliers, a.inliers[perm], rtol=0, atol=atol)
            and np.array_equal(b.assignments, a.assignments[:, perm])
            and np.array_equal(b.outlier_flags, a.outlier_flags[perm]))


def well_conditioned(ds, cfg, res, rng, centers0=None):
    """Whether rounding cannot decide fit res, so that equivariance can be
    checked to a tolerance.  Near a tie, such as two points equidistant
    from their cluster's mean, it can: the iteration may amplify rounding
    differences until the fit lands on either side.  So every hard decision
    must clear its tie by 1e-8 (the [alpha*N]-th against the next smallest
    v; the largest against the second largest w for s=1, every w against
    SUPPORT_EPS for s>1), and fits from the points moved by plus and minus
    one draw of 1e-12 noise, started as res was, must match res to 1e-9."""
    v = np.sort(res.inliers)
    n_out = trim_count(cfg.alpha, v.size)
    if 0 < n_out < v.size and v[n_out] - v[n_out - 1] <= 1e-8:
        return False
    w = res.memberships
    if cfg.s > 1 and (np.abs(w - SUPPORT_EPS) <= 1e-8).any():
        return False
    if cfg.s == 1 and w.shape[0] > 1 and (np.diff(np.sort(w, axis=0)[-2:], axis=0) <= 1e-8).any():
        return False
    noise = 1e-12 * rng.standard_normal(ds.points.shape)
    return all(fit_matches(fit_rtkm(Dataset(ds.points + sign * noise), cfg,
                                    initial_centers=centers0), res, slice(None), 1e-9)
               for sign in (1.0, -1.0))


def weighted_clusters(res):
    """The clusters that hold weight.  One that holds none keeps the center
    it had while its weight vanished, which rounding decides."""
    return (res.inliers * res.memberships).sum(axis=1) > 1e-6


def test_translation_equivariance():
    ds = random_dataset(301, n_max=60)
    shift = np.array([5.0, -3.0, 11.0, 0.5, 2.0])[: ds.n_features]
    shifted = Dataset(ds.points + shift[:, None])
    cfg = SolverConfig(k=3, s=1, alpha=0.1, seed=4)
    a = fit_rtkm(ds, cfg)
    b = fit_rtkm(shifted, cfg)
    np.testing.assert_allclose(b.centers, a.centers + shift[:, None], atol=1e-8)
    np.testing.assert_allclose(b.memberships, a.memberships, atol=1e-8)
    np.testing.assert_array_equal(b.assignments, a.assignments)
    np.testing.assert_array_equal(a.outlier_flags, b.outlier_flags)


def test_permutation_consistency():
    ds = random_dataset(302, n_max=50)
    n = ds.n_points
    rng = np.random.default_rng(1)
    perm = rng.permutation(n)
    permuted = Dataset(ds.points[:, perm])
    cfg = SolverConfig(k=3, s=1, alpha=0.1, seed=2, w_init="hard")
    centers0 = init_centers(ds, cfg)
    a = fit_rtkm(ds, cfg, initial_centers=centers0)
    b = fit_rtkm(permuted, cfg, initial_centers=centers0)
    np.testing.assert_allclose(b.memberships, a.memberships[:, perm], atol=1e-12)
    np.testing.assert_allclose(b.inliers, a.inliers[perm], atol=1e-12)
    np.testing.assert_array_equal(b.assignments, a.assignments[:, perm])


# The drawn examples are fixed (derandomize), so that whether a run passes
# does not hang on the draw; the two fixed cases above hold without the
# conditioning filter.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_equivariance_inputs(w_init="random"))
def test_translation_equivariance_property(inputs):
    """Shifting every point shifts the seeded start centers and the final
    centers, and leaves W, v and the hard output unchanged.  The random
    start of W does not depend on the coordinates, and unlike the starts at
    a vertex it leaves no two points of a cluster exactly symmetric."""
    ds, cfg, rng = inputs
    shift = rng.uniform(-10.0, 10.0, (ds.n_features, 1))
    shifted = Dataset(ds.points + shift)
    np.testing.assert_allclose(init_centers(shifted, cfg), init_centers(ds, cfg) + shift,
                               rtol=0, atol=1e-12)
    a = fit_rtkm(ds, cfg)
    assume(well_conditioned(ds, cfg, a, rng))
    b = fit_rtkm(shifted, cfg)
    assert fit_matches(b, a, slice(None), 1e-8)
    held = weighted_clusters(a)
    np.testing.assert_allclose(b.centers[:, held], (a.centers + shift)[:, held], atol=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_equivariance_inputs(w_init="hard"))
def test_permutation_consistency_property(inputs):
    """Reordering the points from the same start centers reorders W, v and
    the hard output the same way.  The hard start of W, unlike the random
    one, does not depend on the order of the points."""
    ds, cfg, rng = inputs
    perm = rng.permutation(ds.n_points)
    centers0 = init_centers(ds, cfg)
    a = fit_rtkm(ds, cfg, initial_centers=centers0)
    assume(well_conditioned(ds, cfg, a, rng, centers0))
    b = fit_rtkm(Dataset(ds.points[:, perm]), cfg, initial_centers=centers0)
    assert fit_matches(b, a, perm, 1e-12)
    held = weighted_clusters(a)
    np.testing.assert_allclose(b.centers[:, held], a.centers[:, held], atol=1e-8)


@st.composite
def _fit_inputs(draw):
    """An edge-shaped dataset (N=1, k=N, s=k, duplicate points, a constant
    feature) and a config for it."""
    # Entries come from numpy with a hypothesis seed, as in
    # test_project_columns_properties, so that examples stay cheap.
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, (m, n)).astype(float)  # coarse grid: many duplicates
    else:
        X = rng.normal(0.0, 3.0, (m, n))
    if n > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    if draw(st.booleans()):
        X[0] = 1.5  # constant feature
    k = draw(st.integers(1, n))
    config = SolverConfig(k=k, s=draw(st.integers(1, k)),
                          alpha=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9])),
                          max_iters=draw(st.integers(1, 60)), seed=draw(st.integers(0, 99)),
                          init=draw(st.sampled_from(INIT_MODES)))
    return Dataset(X), config


@settings(max_examples=300, deadline=None)
@given(_fit_inputs())
def test_fit_invariants_on_edge_shapes(inputs):
    ds, config = inputs
    n = ds.n_points
    for name, fit in ALGORITHMS.items():
        hard = name in ("kmeans", "trimmed")
        cfg = dataclasses.replace(config, s=1) if hard else config
        n_out = trim_count(cfg.alpha, n) if name in ("rtkm", "trimmed") else 0
        # the documented rejections: no inliers left, or fewer than k of them
        if (name == "rtkm" and n_out >= n) or (name == "trimmed" and cfg.k > n - n_out):
            with pytest.raises(ConfigError):
                fit(ds, cfg)
            continue
        res = fit(ds, cfg)
        w, v = res.memberships, res.inliers
        assert w.shape == (cfg.k, n), name
        assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12, name
        np.testing.assert_allclose(w.sum(axis=0), cfg.s, atol=1e-8, err_msg=name)
        assert v.min() >= -1e-12 and v.max() <= 1 + 1e-12, name
        np.testing.assert_allclose(v.sum(), n - n_out, atol=1e-8, err_msg=name)
        assert res.outlier_flags.sum() == n_out, name
        sizes = res.assignments.sum(axis=0)
        assert (sizes[res.outlier_flags] == 0).all(), name
        assert (sizes[~res.outlier_flags] >= cfg.s).all(), name
        # the per-point sets handed out are the columns of the matrix
        assert res.hard_assignments == tuple(
            frozenset(np.flatnonzero(col).tolist()) for col in res.assignments.T), name
        assert res.hard_assignments is res.hard_assignments, name  # built once
        assert all(type(j) is int for labels in res.label_lists() for j in labels), name
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0])), name


@pytest.mark.parametrize("name", ["kmeans", "trimmed"])
@pytest.mark.parametrize("init", INIT_MODES)
@settings(max_examples=60, deadline=None)
@given(inputs=_fit_inputs())
def test_hard_fits_are_exactly_scale_equivariant(name, init, inputs):
    """Scaling the points by a power of two scales every rounding of a hard
    fit exactly, the kmeans++ draws through the distance kernel included.
    So the fit of 2**j X from its own seeded start makes the same decisions,
    and its centers and objectives are those of X times 2**j and 4**j."""
    ds, config = inputs
    cfg = dataclasses.replace(config, s=1, init=init)
    assume(name == "kmeans" or cfg.k <= ds.n_points - trim_count(cfg.alpha, ds.n_points))
    a = ALGORITHMS[name](ds, cfg)
    for j in (-10, 10):
        b = ALGORITHMS[name](Dataset(2.0**j * ds.points), cfg)
        np.testing.assert_array_equal(b.centers, 2.0**j * a.centers)
        assert b.objective_trace == tuple(4.0**j * t for t in a.objective_trace)
        np.testing.assert_array_equal(b.assignments, a.assignments)
        np.testing.assert_array_equal(b.outlier_flags, a.outlier_flags)
        assert b.iterations == a.iterations


@pytest.mark.parametrize("s", [1, 2])
def test_label_lists_write_as_the_list_form(s):
    """label_lists gives one tuple per point, which json writes as the list
    of the point's clusters; hard_assignments holds the same labels."""
    data = make_blobs_with_outliers(per_cluster=20)
    res = fit_rtkm(data, SolverConfig(k=3, s=s, alpha=2 / data.n_points, seed=0))
    labels = res.label_lists()
    as_lists = [np.flatnonzero(col).tolist() for col in res.assignments.T]
    assert all(type(point) is tuple for point in labels)
    assert max(map(len, as_lists)) == s
    assert json.dumps(labels) == json.dumps(as_lists)
    assert res.hard_assignments == tuple(map(frozenset, as_lists))
