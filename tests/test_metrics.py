import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkm.metrics import (
    Clustering,
    MetricError,
    average_f1,
    clustering_from_result,
    f1_single,
    me_score,
)

from conftest import exhaustive_average_f1


def random_clustering(rng, n_points, n_clusters):
    clusters = []
    for _ in range(n_clusters):
        size = int(rng.integers(0, n_points + 1))
        clusters.append(frozenset(rng.choice(n_points, size, replace=False).tolist()))
    return clusters


# --- f1_single ----------------------------------------------------------

def test_f1_perfect():
    assert f1_single(1, 0, 0) == 1.0


def test_f1_exact_two_thirds():
    assert f1_single(2, 1, 1) == 2 / 3


def test_f1_no_true_positives():
    assert f1_single(0, 3, 2) == 0.0


def test_f1_vacuous_match_is_one():
    assert f1_single(0, 0, 0) == 1.0


def test_f1_negative_counts_rejected():
    with pytest.raises(MetricError):
        f1_single(-1, 0, 0)


# --- average_f1 ---------------------------------------------------------

def test_average_f1_identity():
    c = Clustering(({0, 1}, {2, 3, 4}), frozenset({5}))
    assert average_f1(c, c) == 1.0


def test_average_f1_label_permutation_invariant():
    truth = Clustering(({0, 1}, {2, 3}))
    a = Clustering(({0, 1}, {2, 3}))
    b = Clustering(({2, 3}, {0, 1}))
    assert average_f1(a, truth) == average_f1(b, truth)


def test_average_f1_empty_truth_rejected():
    with pytest.raises(MetricError):
        average_f1(Clustering(({0},)), Clustering(()))


def test_average_f1_unmatched_truth_scores_zero():
    truth = Clustering(({0}, {1}, {2}))
    pred = Clustering(({0},))
    # one perfect match, two unmatched truth clusters
    assert average_f1(pred, truth) == pytest.approx(1 / 3)


def test_average_f1_outliers_form_extra_cluster():
    truth = Clustering(({0, 1}, {2, 3}), frozenset({4}))
    perfect_clusters_no_outliers = Clustering(({0, 1}, {2, 3}), frozenset())
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
        got = average_f1(Clustering(pred), Clustering(truth))
        want = exhaustive_average_f1(pred, truth)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got <= 1.0


def test_average_f1_overlapping_memberships():
    truth = Clustering(({0, 1, 2}, {2, 3}))
    pred = Clustering(({0, 1, 2}, {2, 3}))
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
    assert c.clusters == (frozenset({0, 1}), frozenset({1}))
    assert c.outliers == frozenset({2})


def reference_clustering(hard_assignments, n_clusters, outlier_flags):
    """Per-point loop: point i joins every cluster in its label set."""
    clusters = [set() for _ in range(n_clusters)]
    for i, labels in enumerate(hard_assignments):
        for j in labels:
            clusters[j].add(i)
    outliers = {i for i, flag in enumerate(outlier_flags) if flag}
    return Clustering(tuple(clusters), frozenset(outliers))


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
    want = reference_clustering(sets, k, flags)
    assert clustering_from_result(sets, k, flags) == want
    assert clustering_from_result(tuple(sets), k, flags) == want
    # the lists of a result artifact, in sorted or any other order
    assert clustering_from_result([sorted(s, reverse=True) for s in sets], k, flags) == want


def test_clustering_from_result_edge_cases():
    # an empty cluster (1), empty sets, s=2 overlap, no outlier flags
    c = clustering_from_result([[0], [], [0, 2], [2]], 3)
    assert c.clusters == (frozenset({0, 2}), frozenset(), frozenset({2, 3}))
    assert c.outliers == frozenset()
    assert clustering_from_result([], 2) == Clustering((frozenset(), frozenset()))
    assert clustering_from_result([[], []], 0) == Clustering(())


@pytest.mark.parametrize("sets", [[[0], [3]], [[0], [-1]], [[1, 5]]])
def test_clustering_from_result_label_out_of_range(sets):
    with pytest.raises(MetricError, match="outside"):
        clustering_from_result(sets, 3)


@pytest.mark.parametrize("sets", [[[0], [None]], [[0], ["a"]], [[0], 1]])
def test_clustering_from_result_non_integer_labels(sets):
    with pytest.raises(MetricError, match="integer"):
        clustering_from_result(sets, 3)
