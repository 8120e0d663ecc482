import numpy as np
import pytest

from rtkm.data import (
    DataError,
    LabeledTable,
    SynthSpec,
    blob_spec,
    generate_synthetic,
    inject_noise,
    load_csv,
    parse_label_spec,
    save_csv,
    standardize,
    to_dataset,
)
from rtkm.solver import Dataset


# --- label specs --------------------------------------------------------

def test_parse_label_spec():
    assert parse_label_spec(None) is None
    assert parse_label_spec("col:3") == ("col", 3)
    assert parse_label_spec("col:-1") == ("col", -1)
    assert parse_label_spec("last:14") == ("last", 14)
    for bad in ("col", "col:", "first:2", "last:x", "last:0"):
        with pytest.raises(DataError):
            parse_label_spec(bad)


# --- load_csv -----------------------------------------------------------

def test_load_indicator_fixture(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f1,f2,c0,c1\n1.0,2.0,1,0\n3.0,4.0,1,1\n5.0,6.0,0,0\n")
    table = load_csv(path, "last:2")
    assert table.n_records == 3
    assert table.n_features == 2
    assert table.n_classes == 2
    np.testing.assert_array_equal(table.rows, [[1, 2], [3, 4], [5, 6]])
    assert table.labels == (frozenset({0}), frozenset({0, 1}), frozenset())
    assert table.cardinality == pytest.approx(3 / 3)


def test_load_class_column(tmp_path):
    path = tmp_path / "wbc-like.csv"
    path.write_text("1.0,2.0,4\n3.0,4.0,2\n5.0,6.0,4\n")
    table = load_csv(path, "col:-1")
    assert table.n_classes == 2
    # classes sorted by raw value: 2 -> 0, 4 -> 1
    assert table.labels == (frozenset({1}), frozenset({0}), frozenset({1}))
    assert table.n_features == 2


def test_load_unlabeled_with_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n0.5,1.5\n2.5,3.5\n")
    table = load_csv(path)
    assert table.n_records == 2
    assert table.labels == (frozenset(), frozenset())


def test_load_ragged_row_named(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,0\n3,4\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, "last:1")


def test_load_non_numeric_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("spec", [None, "col:-1", "last:1"])
def test_load_non_finite_named(tmp_path, cell, spec):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y\n1,0\n{cell},1\n2,0\n")
    with pytest.raises(DataError, match=f"row 3, column 0: non-finite value {cell}"):
        load_csv(path, spec)


def test_load_bad_indicator_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path, "last:1")


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    table = LabeledTable(
        rng.normal(0, 3, (20, 4)),
        tuple(frozenset(rng.choice(3, rng.integers(0, 3), replace=False).tolist())
              for _ in range(20)),
        3,
    )
    path = tmp_path / "rt.csv"
    save_csv(table, path)
    back = load_csv(path, "last:3")
    np.testing.assert_array_equal(back.rows, table.rows)
    assert back.labels == table.labels


# --- to_dataset ---------------------------------------------------------

def test_to_dataset_outlier_classes():
    table = LabeledTable(
        np.arange(8.0).reshape(4, 2),
        (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({1})),
        3,
    )
    ds = to_dataset(table, outlier_classes={2})
    assert ds.truth_outliers.tolist() == [False, False, True, False]
    assert ds.truth_memberships[2] == frozenset()
    # inlier classes remapped to 0..k-1
    assert ds.truth_memberships[0] == frozenset({0})
    assert ds.truth_memberships[1] == frozenset({1})
    assert ds.points.shape == (2, 4)


def test_to_dataset_empty_outlier_set():
    table = LabeledTable(np.ones((2, 1)), (frozenset({0}), frozenset({1})), 2)
    ds = to_dataset(table)
    assert not ds.truth_outliers.any()


def test_to_dataset_all_classes_outliers_rejected():
    table = LabeledTable(np.ones((2, 1)), (frozenset({0}), frozenset({1})), 2)
    with pytest.raises(DataError):
        to_dataset(table, outlier_classes={0, 1})


def test_to_dataset_unknown_outlier_class_rejected():
    table = LabeledTable(np.ones((1, 1)), (frozenset({0}),), 1)
    with pytest.raises(DataError):
        to_dataset(table, outlier_classes={7})


def test_to_dataset_mixed_labels_policies(caplog):
    table = LabeledTable(np.ones((1, 1)), (frozenset({0, 1}),), 2)
    ds = to_dataset(table, outlier_classes={1})
    assert not ds.truth_outliers[0]
    assert ds.truth_memberships[0] == frozenset({0})
    assert "1 records had mixed inlier/outlier labels" in caplog.text


# --- synthetic generation -----------------------------------------------

def test_generate_counts():
    ds = generate_synthetic(blob_spec(k=3, points=50, outliers=2, seed=0))
    assert ds.n_points == 152
    assert ds.truth_outliers.sum() == 2


def test_generate_zero_spread():
    spec = blob_spec(k=2, points=5, outliers=0, spread=0.0, seed=1)
    ds = generate_synthetic(spec)
    for j in range(2):
        block = ds.points[:, 5 * j:5 * (j + 1)]
        np.testing.assert_array_equal(block, np.tile(spec.means[j][:, None], 5))


def test_generate_deterministic():
    a = generate_synthetic(blob_spec(seed=7))
    b = generate_synthetic(blob_spec(seed=7))
    np.testing.assert_array_equal(a.points, b.points)
    assert a.truth_memberships == b.truth_memberships


def test_generate_label_consistency():
    spec = blob_spec(k=4, points=10, outliers=3, seed=3)
    ds = generate_synthetic(spec)
    for i, labels in enumerate(ds.truth_memberships):
        if ds.truth_outliers[i]:
            assert labels == frozenset()
        else:
            assert labels == frozenset({i // 10})


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(np.zeros((2, 2)), 1.0, 0, 0, -1.0, 1.0)  # zero points
    with pytest.raises(DataError):
        SynthSpec(np.array([[5.0, 0.0]]), 1.0, 5, 1, -1.0, 1.0)  # mean outside box


# --- inject_noise -------------------------------------------------------

def test_inject_noise_counts_and_flags():
    ds = generate_synthetic(blob_spec(k=2, points=10, outliers=0, seed=0))
    noisy = inject_noise(ds, 5, seed=1)
    assert noisy.n_points == 25
    assert noisy.truth_outliers.sum() == 5
    assert noisy.truth_outliers[-5:].all()
    np.testing.assert_array_equal(noisy.points[:, :20], ds.points)
    assert noisy.truth_memberships[:20] == ds.truth_memberships
    assert all(s == frozenset() for s in noisy.truth_memberships[20:])


def test_inject_noise_in_bounding_box():
    ds = generate_synthetic(blob_spec(k=2, points=20, outliers=0, seed=2))
    noisy = inject_noise(ds, 50, seed=3)
    low = ds.points.min(axis=1)
    high = ds.points.max(axis=1)
    added = noisy.points[:, 20 * 2:]
    assert np.all(added >= low[:, None]) and np.all(added <= high[:, None])


def test_inject_noise_zero_count_identity():
    ds = generate_synthetic(blob_spec(seed=4))
    assert inject_noise(ds, 0) is ds


def test_inject_noise_degenerate_box():
    ds = Dataset([[3.0], [4.0]])
    noisy = inject_noise(ds, 1, seed=0)
    np.testing.assert_array_equal(noisy.points[:, 1], [3.0, 4.0])


# --- standardize --------------------------------------------------------

def test_standardize():
    rng = np.random.default_rng(6)
    pts = rng.normal(5, 3, (3, 100))
    pts[2] = 7.0  # constant feature
    ds = standardize(Dataset(pts))
    np.testing.assert_allclose(ds.points.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.points[:2].std(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ds.points[2], 0.0, atol=1e-12)
