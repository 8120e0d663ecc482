import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkm import (
    ALGORITHMS,
    ConfigError,
    Dataset,
    SolverConfig,
    fit_kmeans,
    fit_relaxed_kmeans,
    fit_rtkm,
    fit_trimmed_kmeans,
    hard_assign,
    init_centers,
    objective_kmeans,
    objective_rtkm,
    trim_count,
)
from rtkm.solver import INIT_MODES

from conftest import make_blobs_with_outliers


def random_dataset(seed, n_max=200, m_max=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return Dataset(rng.normal(0, 3, (m, n)))


# --- objectives ---------------------------------------------------------

def test_objective_zero_at_own_center():
    ds = Dataset([[1.0], [2.0]])
    assert objective_kmeans(ds, [[1.0], [2.0]], [[1.0]]) == 0.0


def test_objective_hand_computed():
    ds = Dataset([[0.0]])
    c = np.array([[1.0, -1.0]])
    w = np.array([[0.5], [0.5]])
    assert objective_kmeans(ds, c, w) == pytest.approx(1.0)


def test_objective_two_identical_points():
    d = 3.0
    ds = Dataset([[d, d]])
    assert objective_kmeans(ds, [[0.0]], [[1.0, 1.0]]) == pytest.approx(2 * d * d)


def test_objective_rtkm_all_ones_matches_kmeans():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(0, 1, (3, 20)))
    c = rng.normal(0, 1, (3, 4))
    w = np.abs(rng.normal(0, 1, (4, 20)))
    assert objective_rtkm(ds, c, w, np.ones(20)) == pytest.approx(
        objective_kmeans(ds, c, w))


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
        objective_kmeans(ds, [[0.0]], [[1.0]])


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


# --- k-means ------------------------------------------------------------

def test_kmeans_two_pairs():
    ds = Dataset(np.array([[0.0, 1.0, 10.0, 11.0]]))
    res = fit_kmeans(ds, SolverConfig(k=2, seed=0))
    assert {frozenset({0, 1}), frozenset({2, 3})} == {
        frozenset(i for i, s in enumerate(res.hard_assignments) if s == a)
        for a in set(res.hard_assignments)}
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
    assert all(len(s) == 1 for s in res.hard_assignments)
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
        if relaxed.hard_assignments == lloyd.hard_assignments:
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
        assert robust.hard_assignments == relaxed.hard_assignments


def test_rtkm_recovers_fig1_scenario(blobs_dataset):
    n = blobs_dataset.n_points
    res = fit_rtkm(blobs_dataset, SolverConfig(k=3, s=1, alpha=2 / n, seed=0))
    assert res.outlier_flags.sum() == 2
    assert set(np.flatnonzero(res.outlier_flags)) == {n - 2, n - 1}
    # three recovered clusters match generator labels up to relabeling
    labels = {frozenset(i for i, s in enumerate(res.hard_assignments) if s == a)
              for a in set(res.hard_assignments) if a}
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
        assert a.hard_assignments == b.hard_assignments
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
    sets, flags = hard_assign(np.array([[0.9], [0.1]]), np.ones(1), 0.0, s=1)
    assert sets == (frozenset({0}),)
    assert not flags.any()


def test_hard_assign_positive_support():
    sets, _ = hard_assign(np.array([[1.0], [1.0], [0.0]]), np.ones(1), 0.0, s=2)
    assert sets == (frozenset({0, 1}),)


def test_hard_assign_tie_lowest_index():
    sets, _ = hard_assign(np.array([[0.5], [0.5]]), np.ones(1), 0.0, s=1)
    assert sets == (frozenset({0}),)


def test_hard_assign_outliers_empty_sets():
    w = np.array([[1.0, 1.0, 1.0]])
    v = np.array([1.0, 0.2, 1.0])
    sets, flags = hard_assign(w, v, alpha=1 / 3, s=1)
    assert flags.tolist() == [False, True, False]
    assert sets[1] == frozenset()


def test_hard_assign_v_tie_lowest_index():
    w = np.ones((1, 3))
    sets, flags = hard_assign(w, np.array([0.5, 0.5, 1.0]), alpha=1 / 3, s=1)
    assert flags.tolist() == [True, False, False]


def reference_hard_assign(w, v, alpha, s, support_eps=1e-6):
    """Per-column loop that hard_assign's vectorised form must reproduce."""
    n = w.shape[1]
    flags = np.zeros(n, dtype=bool)
    n_out = trim_count(alpha, n)
    if n_out > 0:
        flags[np.argsort(v, kind="stable")[:n_out]] = True
    sets = []
    for i in range(n):
        if flags[i]:
            sets.append(frozenset())
        elif s == 1:
            sets.append(frozenset((int(np.argmax(w[:, i])),)))
        else:
            sets.append(frozenset(np.flatnonzero(w[:, i] > support_eps).tolist()))
    return tuple(sets), flags


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
        sets, flags = hard_assign(w, v, alpha, s=s)
        want_sets, want_flags = reference_hard_assign(w, v, alpha, s)
        assert sets == want_sets, trial
        np.testing.assert_array_equal(flags, want_flags)
        assert all(isinstance(j, int) for c in sets for j in c)


def test_hard_assign_inlier_without_support_is_empty():
    w = np.array([[0.9, 1e-7], [0.8, 1e-7]])
    sets, flags = hard_assign(w, np.ones(2), 0.0, s=2)
    assert sets == (frozenset({0, 1}), frozenset())
    assert not flags.any()


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
    assert a.hard_assignments == b.hard_assignments


def test_translation_equivariance():
    ds = random_dataset(301, n_max=60)
    shift = np.array([5.0, -3.0, 11.0, 0.5, 2.0])[: ds.n_features]
    shifted = Dataset(ds.points + shift[:, None])
    cfg = SolverConfig(k=3, s=1, alpha=0.1, seed=4)
    a = fit_rtkm(ds, cfg)
    b = fit_rtkm(shifted, cfg)
    np.testing.assert_allclose(b.centers, a.centers + shift[:, None], atol=1e-8)
    np.testing.assert_allclose(b.memberships, a.memberships, atol=1e-8)
    assert a.hard_assignments == b.hard_assignments
    np.testing.assert_array_equal(a.outlier_flags, b.outlier_flags)


def test_permutation_consistency():
    ds = random_dataset(302, n_max=50)
    n = ds.n_points
    rng = np.random.default_rng(1)
    perm = rng.permutation(n)
    permuted = Dataset(ds.points[:, perm])
    cfg = SolverConfig(k=3, s=1, alpha=0.1, seed=2, w_init="projected")
    centers0 = init_centers(ds, cfg)
    a = fit_rtkm(ds, cfg, initial_centers=centers0)
    b = fit_rtkm(permuted, cfg, initial_centers=centers0)
    np.testing.assert_allclose(b.memberships, a.memberships[:, perm], atol=1e-12)
    np.testing.assert_allclose(b.inliers, a.inliers[perm], atol=1e-12)


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
        for labels, out in zip(res.hard_assignments, res.outlier_flags):
            assert (not labels) if out else len(labels) >= cfg.s, name
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0])), name
