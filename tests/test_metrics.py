import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from rtkm.metrics import (
    Clustering,
    MetricError,
    _max_weight_matching,
    average_f1,
    clustering_from_result,
    me_score,
)

from conftest import clustering, exhaustive_average_f1


def random_clustering(rng, n_points, n_clusters):
    clusters = []
    for _ in range(n_clusters):
        size = int(rng.integers(0, n_points + 1))
        clusters.append(frozenset(rng.choice(n_points, size, replace=False).tolist()))
    return clusters


def pair_score(pred, true, n_points):
    """average_f1 of one predicted against one truth cluster: their F1."""
    return average_f1(clustering([pred], n_points), clustering([true], n_points))


# --- F1 of one cluster pair ---------------------------------------------

def test_f1_perfect():
    assert pair_score({0}, {0}, 1) == 1.0  # tp=1, fp=0, fn=0


def test_f1_exact_two_thirds():
    assert pair_score({0, 1, 2}, {0, 1, 3}, 4) == 2 / 3  # tp=2, fp=1, fn=1


def test_f1_no_true_positives():
    assert pair_score({0, 1, 2}, {3, 4}, 5) == 0.0  # tp=0, fp=3, fn=2


def test_f1_vacuous_match_is_one():
    assert pair_score(set(), set(), 2) == 1.0


# --- average_f1 ---------------------------------------------------------

def test_average_f1_identity():
    c = clustering(({0, 1}, {2, 3, 4}), 6, {5})
    assert average_f1(c, c) == 1.0


def test_average_f1_label_permutation_invariant():
    truth = clustering(({0, 1}, {2, 3}), 4)
    a = clustering(({0, 1}, {2, 3}), 4)
    b = clustering(({2, 3}, {0, 1}), 4)
    assert average_f1(a, truth) == average_f1(b, truth)


def test_average_f1_empty_truth_rejected():
    with pytest.raises(MetricError, match="truth clustering is empty"):
        average_f1(clustering(({0},), 1), clustering((), 1))


def test_average_f1_rejects_clusterings_of_different_sizes():
    with pytest.raises(MetricError, match="different numbers of points"):
        average_f1(clustering(({0},), 1), clustering(({0},), 2))
    with pytest.raises(MetricError, match="one per point"):
        Clustering(np.ones((1, 2), dtype=bool), np.ones(3, dtype=bool))


@pytest.mark.parametrize("clusters,outliers", [
    ([[0, 1], [2, 3]], None),  # per-cluster point indices, not flags
    ([[1, 0], [0, 1]], None),  # 0/1 integers
    ([[True, False]], [0, 1]),
    ([[True], [True, False]], None),  # ragged
])
def test_clustering_rejects_non_boolean_input(clusters, outliers):
    with pytest.raises(MetricError, match="boolean array"):
        Clustering(clusters, outliers)


def test_average_f1_unmatched_truth_scores_zero():
    truth = clustering(({0}, {1}, {2}), 3)
    pred = clustering(({0},), 3)
    # one perfect match, two unmatched truth clusters
    assert average_f1(pred, truth) == pytest.approx(1 / 3)
    # a prediction with no clusters leaves every truth cluster unmatched
    assert average_f1(clustering((), 1), clustering(({0},), 1)) == 0.0


def test_average_f1_outliers_form_extra_cluster():
    truth = clustering(({0, 1}, {2, 3}), 5, {4})
    perfect_clusters_no_outliers = clustering(({0, 1}, {2, 3}), 5)
    # outlier cluster missed entirely: (1 + 1 + 0) / 3
    assert average_f1(perfect_clusters_no_outliers, truth) == pytest.approx(2 / 3)


def test_average_f1_matches_exhaustive_search():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n_points = int(rng.integers(3, 12))
        n_pred = int(rng.integers(1, 6))
        n_truth = int(rng.integers(1, 6))
        pred = random_clustering(rng, n_points, n_pred)
        truth = random_clustering(rng, n_points, n_truth)
        got = average_f1(clustering(pred, n_points), clustering(truth, n_points))
        want = exhaustive_average_f1(pred, truth)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got <= 1.0


@st.composite
def _score_matrices(draw):
    """Random, quarter-valued, or F1 scores of random clusterings of a few
    points (zeros, ones and many equal entries), of 0x0 to 60x60."""
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["random", "quarters", "f1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.random((rows, cols))
    if kind == "quarters":
        return rng.integers(0, 5, (rows, cols)) / 4
    n_points = int(rng.integers(0, 12))
    pred = rng.random((rows, n_points)) < rng.random()
    true = rng.random((cols, n_points)) < rng.random()
    tp = pred.astype(float) @ true.T.astype(float)
    sizes = pred.sum(axis=1)[:, None] + true.sum(axis=1)[None, :]
    return np.where(sizes == 0, 1.0, 2.0 * tp / np.maximum(sizes, 1))


@settings(max_examples=300, deadline=None)
@given(_score_matrices())
def test_max_weight_matching_matches_scipy(scores):
    rows, cols = _max_weight_matching(scores)
    pairs = min(scores.shape)
    assert len(rows) == len(cols) == pairs
    assert np.array_equal(rows, np.sort(rows)) and len(set(rows.tolist())) == pairs
    assert len(set(cols.tolist())) == pairs
    want_rows, want_cols = linear_sum_assignment(scores, maximize=True)
    assert scores[rows, cols].sum() == scores[want_rows, want_cols].sum()
    # same scan order and tie rule as scipy, so the same pairs
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(cols, want_cols)


def test_average_f1_overlapping_memberships():
    truth = clustering(({0, 1, 2}, {2, 3}), 4)
    pred = clustering(({0, 1, 2}, {2, 3}), 4)
    assert average_f1(pred, truth) == 1.0


# --- me_score -----------------------------------------------------------

def test_me_perfect_classifier():
    truth = np.array([True, False, False, True])
    assert me_score(truth, truth) == 0.0


def test_me_predict_nothing():
    truth = np.array([True, False, False])
    pred = np.zeros(3, dtype=bool)
    assert me_score(pred, truth) == 1.0


def test_me_predict_everything():
    truth = np.array([True, False, False])
    pred = np.ones(3, dtype=bool)
    assert me_score(pred, truth) == 1.0


def test_me_bounds():
    truth = np.array([True, False])
    pred = np.array([False, True])  # exactly wrong
    assert me_score(pred, truth) == pytest.approx(np.sqrt(2))


def test_me_asymmetric():
    truth = np.array([True, True, True, False, False])
    pred = np.array([True, False, False, False, False])
    assert me_score(pred, truth) == pytest.approx(2 / 3)
    assert me_score(truth, pred) == pytest.approx(0.5)


def test_me_requires_both_classes():
    with pytest.raises(MetricError):
        me_score(np.array([True, False]), np.array([False, False]))
    with pytest.raises(MetricError):
        me_score(np.array([True, False]), np.array([True, True]))


# --- helpers ------------------------------------------------------------

def test_clustering_from_result():
    sets = (frozenset({0}), frozenset({0, 1}), frozenset())
    c = clustering_from_result(sets, 2, np.array([False, False, True]))
    np.testing.assert_array_equal(c.clusters, [[True, True, False], [False, True, False]])
    np.testing.assert_array_equal(c.outliers, [False, False, True])


def reference_clusters(hard_assignments, n_clusters):
    """Per-point loop: point i joins every cluster in its label set."""
    clusters = np.zeros((n_clusters, len(hard_assignments)), dtype=bool)
    for i, labels in enumerate(hard_assignments):
        for j in labels:
            clusters[j, i] = True
    return clusters


@st.composite
def _assignments(draw):
    k = draw(st.integers(1, 6))
    s_max = draw(st.integers(1, k))  # s=1 gives singletons, s>1 overlaps
    sets = draw(st.lists(st.frozensets(st.integers(0, k - 1), max_size=s_max),
                         max_size=40))
    flags = draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
    return sets, k, np.array(flags, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(_assignments())
def test_clustering_from_result_matches_per_point_loop(case):
    sets, k, flags = case
    want = reference_clusters(sets, k)
    # the frozensets of a FitResult, or the lists of a result artifact in
    # sorted or any other order
    for given_sets in (sets, tuple(sets), [sorted(s, reverse=True) for s in sets]):
        got = clustering_from_result(given_sets, k, flags)
        np.testing.assert_array_equal(got.clusters, want)
        np.testing.assert_array_equal(got.outliers, flags)


def test_clustering_from_result_edge_cases():
    # an empty cluster (1), empty sets, s=2 overlap, no outlier flags
    c = clustering_from_result([[0], [], [0, 2], [2]], 3)
    np.testing.assert_array_equal(c.clusters, reference_clusters([[0], [], [0, 2], [2]], 3))
    assert c.clusters[1].sum() == 0
    assert not c.outliers.any()
    numpy_labels = clustering_from_result([[np.int64(0)], [np.uint8(2)]], 3)
    np.testing.assert_array_equal(numpy_labels.clusters, reference_clusters([[0], [2]], 3))
    assert clustering_from_result([], 2).clusters.shape == (2, 0)
    assert clustering_from_result([[], []], 0).clusters.shape == (0, 2)


@pytest.mark.parametrize("sets", [[[0], [3]], [[0], [-1]], [[1, 5]]])
def test_clustering_from_result_label_out_of_range(sets):
    with pytest.raises(MetricError, match="outside"):
        clustering_from_result(sets, 3)


@pytest.mark.parametrize("sets", [[[0], [None]], [[0], ["a"]], [[0], 1], [[0], [1.7]],
                                  [[0], [1.0]], [[0], [True]], [[False]], [[np.bool_(1)]]])
def test_clustering_from_result_non_integer_labels(sets):
    with pytest.raises(MetricError, match="integer"):
        clustering_from_result(sets, 3)


@pytest.mark.parametrize("make,match", [
    (lambda: Clustering(np.zeros(3, dtype=bool)), "k x N"),
    (lambda: Clustering(np.zeros((1, 2, 3), dtype=bool)), "k x N"),
    (lambda: me_score([True, False], [True, False, False]), "1-d and the same length"),
    (lambda: me_score([[True, False]], [[True, False]]), "1-d and the same length"),
])
def test_library_input_checks(make, match):
    with pytest.raises(MetricError, match=match):
        make()
