import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkm.data import (
    DataError,
    generate_synthetic,
    inject_noise,
    load_csv,
    parse_label_spec,
    standardize,
    synthetic_truth,
    to_dataset,
)
from rtkm.solver import ConfigError, Dataset


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
    data = load_csv(path, "last:2")
    assert data.n_points == 3
    assert data.n_features == 2
    np.testing.assert_array_equal(data.points.T, [[1, 2], [3, 4], [5, 6]])
    assert data.points.T.flags.c_contiguous  # the layout BLAS products round by
    np.testing.assert_array_equal(data.truth_memberships.T,
                                  [[True, False], [True, True], [False, False]])
    assert not data.truth_outliers.any()
    assert data.truth_memberships.sum(axis=0).mean() == 1.0  # labels per record


def test_load_class_column(tmp_path):
    path = tmp_path / "wbc-like.csv"
    path.write_text("1.0,2.0,4\n3.0,4.0,2\n5.0,6.0,4\n")
    data = load_csv(path, "col:-1")
    # classes sorted by raw value: 2 -> 0, 4 -> 1
    np.testing.assert_array_equal(data.truth_memberships.T,
                                  [[False, True], [True, False], [False, True]])
    assert data.n_features == 2
    assert data.points.T.flags.c_contiguous


def test_load_unlabeled_with_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n0.5,1.5\n2.5,3.5\n")
    data = load_csv(path)
    assert data.n_points == 2
    assert data.truth_memberships.shape == (0, 2)


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


@pytest.mark.parametrize("header", ["", "x,c\n"])
def test_load_utf8_with_byte_order_mark(tmp_path, header):
    """A UTF-8 "with BOM" export keeps its first record, header or not."""
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{header}1.0,0\n2.0,1\n3.0,0\n4.0,1\n".encode())
    data = load_csv(path, "col:-1")
    np.testing.assert_array_equal(data.points.T, [[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(data.truth_memberships[1], [False, True, False, True])


def test_load_not_utf8_named(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1.0,0\n2.\xff0,1\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(path, "col:-1")


@pytest.mark.parametrize("spec", ["col:0", "col:-1"])
def test_load_class_column_alone_is_refused(tmp_path, spec):
    path = tmp_path / "classes.csv"
    path.write_text("0\n1\n0\n1\n")
    with pytest.raises(DataError, match="no feature column"):
        load_csv(path, spec)
    assert load_csv(path).points.shape == (1, 4)  # unlabeled, it is one feature


def test_load_bad_indicator_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path, "last:1")


@pytest.mark.parametrize("text", [
    b"x,y\n0.5,1.5\n2.5,3.5\n",
    b"\xef\xbb\xbfx,c\n\n1.0,0\n,\n2.0,1\n\n",
    b"\xef\xbb\xbf" + b"".join(b"%d.25,%d,1\n\n" % (i, -i) for i in range(3000)),
], ids=["header", "bom-and-blank-records", "many-reads"])
def test_load_digest_is_the_files_and_changes_no_table(tmp_path, text):
    """A digest passed to load_csv ends as that of the whole file (its byte
    order mark, header and blank records too); the table is the same."""
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    digest = hashlib.sha256()
    data = load_csv(path, "col:1", digest=digest)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    plain = load_csv(path, "col:1")
    assert data.points.tobytes() == plain.points.tobytes()
    np.testing.assert_array_equal(data.truth_memberships, plain.truth_memberships)


def test_roundtrip(tmp_path):
    """Features written with repr and a 0/1 indicator block read back exactly."""
    rng = np.random.default_rng(5)
    rows = rng.normal(0, 3, (20, 4))
    labels = rng.random((20, 3)) < 0.4
    path = tmp_path / "rt.csv"
    path.write_text("".join(",".join([repr(float(v)) for v in row] + [str(int(b)) for b in bits])
                            + "\n" for row, bits in zip(rows, labels)))
    back = load_csv(path, "last:3")
    np.testing.assert_array_equal(back.points.T, rows)
    np.testing.assert_array_equal(back.truth_memberships.T, labels)


@st.composite
def _numeric_cell(draw):
    """A cell float() accepts: a float written in one of several forms, maybe
    with an underscore between two digits, maybe padded with blanks."""
    x = draw(st.floats(-1e300, 1e300))  # no form rounds it to inf
    text = draw(st.sampled_from(["{!r}", "{:.17e}", "{:.6g}", "{:.3E}"])).format(x)
    pairs = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    if pairs and draw(st.booleans()):
        i = draw(st.sampled_from(pairs))
        text = text[:i] + "_" + text[i:]
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return draw(pad) + text + draw(pad)


def _non_numeric(cell):
    try:
        float(cell)
    except ValueError:
        return True
    return False


BLANK_RECORDS = ([], ["", "", ""], [" ", " "])  # written as "", ",," and " , "


@st.composite
def _csv_grid(draw):
    """Records of cells, maybe starting with a header: some cells may be
    replaced by text that float() refuses or by a non-finite value, blank
    records may stand between the others, and one record may have a cell
    too many or too few."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_numeric_cell(), min_size=width, max_size=width),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[r][c] = draw(st.sampled_from(["x", "1..5", "1e", "_1", "1_", "0x10", "one",
                                           "nan", "-inf", "1e999"]))
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        if width > 1 and draw(st.booleans()):
            rows[r] = rows[r][:-1]
        else:
            rows[r] = rows[r] + [draw(_numeric_cell())]
    if draw(st.booleans()):
        rows.insert(0, [f"f{c}" for c in range(width)])
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(BLANK_RECORDS))))
    return rows


@settings(max_examples=200, deadline=None)
@given(_csv_grid())
def test_load_csv_reads_each_cell_as_float_does(tmp_path_factory, rows):
    """The table holds float(cell) bit for bit.  The first record, in file
    order, with a field count other than the first data record's or with a
    cell that float() refuses is named by its record number (blank records
    count) and column; so is the first non-finite value of a table without
    either.  A first non-blank record with a cell that float() refuses is a
    header."""
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in rows))
    numbered = [(number, cells) for number, cells in enumerate(rows, 1)
                if any(cell.strip() for cell in cells)]
    if any(map(_non_numeric, numbered[0][1])):
        numbered = numbered[1:]
    if not numbered:
        with pytest.raises(DataError, match="no data rows after header"):
            load_csv(path)
        return
    width = len(numbered[0][1])
    for number, cells in numbered:
        if len(cells) != width:
            with pytest.raises(DataError, match=f"row {number} has {len(cells)} fields, "
                                                f"expected {width}"):
                load_csv(path)
            return
        bad = [col for col, cell in enumerate(cells) if _non_numeric(cell)]
        if bad:
            with pytest.raises(DataError, match=f"row {number}, column {bad[0]}: non-numeric"):
                load_csv(path)
            return
    want = np.array([[float(cell) for cell in cells] for _, cells in numbered])
    if not np.isfinite(want).all():
        r, c = np.argwhere(~np.isfinite(want))[0]
        with pytest.raises(DataError, match=f"row {numbered[r][0]}, column {c}: non-finite"):
            load_csv(path)
        return
    rows_read = load_csv(path).points.T
    assert rows_read.shape == want.shape
    assert rows_read.tobytes() == want.tobytes()


@pytest.mark.parametrize("fault", ["1,oops", "1"])
def test_load_reports_invalid_utf8_after_an_earlier_bad_record(tmp_path, fault):
    """Text that is not UTF-8 in record 5 wins over a non-numeric cell or a
    missing field in record 2, also when that text lies beyond the part of
    the file read before record 2 is parsed."""
    record = ",".join(["1.0"] * 2000)
    path = tmp_path / "late.csv"
    path.write_bytes(f"{record},1\n{fault}\n{record},1\n{record},1\n".encode()
                     + b"2.\xff0,1\n")
    assert path.read_bytes().index(b"\xff") > 3 * len(record)  # several read chunks on
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(path)


@pytest.mark.parametrize("fault", ["1,oops", "1"])
def test_load_reports_an_oversized_field_after_an_earlier_bad_record(tmp_path, fault):
    """A field over the csv module's limit in record 4 wins over a
    non-numeric cell or a missing field in record 2: the load reads on past
    a bad record."""
    path = tmp_path / "late.csv"
    path.write_text(f"1.0,1\n{fault}\n3.0,1\n4.0,{'1' * 200000}\n5.0,1\n")
    with pytest.raises(DataError, match="late.csv: row 4: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize("prefix", ["", "x,y\n1,2\n"])
def test_load_names_the_record_with_an_oversized_field(tmp_path, prefix):
    path = tmp_path / "big.csv"
    path.write_text(f"{prefix}\n1.0,{'1' * 200000}\n3.0,4.0\n")
    record = prefix.count("\n") + 2
    with pytest.raises(DataError, match=f"big.csv: row {record}: field larger than field limit"):
        load_csv(path)


def test_load_peak_memory_is_near_the_table(tmp_path):
    """Cells are parsed as their records are read: the load's peak traced
    allocation stays below 4x the float table (holding every cell as a
    Python string first took about 10x)."""
    rows = np.random.default_rng(0).normal(size=(3000, 40))
    path = tmp_path / "wide.csv"
    path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    tracemalloc.start()
    try:
        data = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.points.T.tobytes() == rows.tobytes()
    assert peak < 4 * rows.nbytes


# --- to_dataset ---------------------------------------------------------

def test_to_dataset_outlier_classes():
    data = Dataset(np.arange(8.0).reshape(4, 2).T, np.eye(3, dtype=bool)[[0, 1, 2, 1]].T)
    ds = to_dataset(data, outlier_classes={2})
    assert ds.truth_outliers.tolist() == [False, False, True, False]
    # inlier classes remapped to 0..k-1; the outlier is in no cluster
    np.testing.assert_array_equal(ds.truth_memberships,
                                  [[True, False, False, False], [False, True, False, True]])
    assert ds.points.shape == (2, 4)


def test_to_dataset_empty_outlier_set():
    data = Dataset(np.ones((1, 2)), np.eye(2, dtype=bool))
    ds = to_dataset(data)
    assert not ds.truth_outliers.any()


def test_to_dataset_all_classes_outliers_rejected():
    data = Dataset(np.ones((1, 2)), np.eye(2, dtype=bool))
    with pytest.raises(DataError):
        to_dataset(data, outlier_classes={0, 1})


def test_to_dataset_unknown_outlier_class_rejected():
    data = Dataset(np.ones((1, 1)), [[True]])
    with pytest.raises(DataError):
        to_dataset(data, outlier_classes={7})


def test_to_dataset_mixed_labels_policies(caplog):
    data = Dataset(np.ones((1, 1)), [[True], [True]])
    ds = to_dataset(data, outlier_classes={1})
    assert not ds.truth_outliers[0]
    np.testing.assert_array_equal(ds.truth_memberships, [[True]])
    assert "1 records had mixed inlier/outlier labels" in caplog.text


def test_to_dataset_keeps_the_outlier_flags_of_inject_noise():
    """Noise points stay truth outliers beside the points of outlier classes."""
    data = Dataset(np.arange(8.0).reshape(2, 4), np.eye(2, dtype=bool)[[0, 1, 0, 1]].T)
    ds = to_dataset(inject_noise(data, 2, seed=0), outlier_classes={1})
    assert ds.truth_outliers.tolist() == [False, True, False, True, True, True]
    np.testing.assert_array_equal(ds.truth_memberships, [[True, False, True, False, False, False]])


def test_dataset_without_truth_holds_empty_truth():
    ds = Dataset(np.zeros((2, 3)))
    assert ds.truth_memberships.shape == (0, 3) and ds.truth_memberships.dtype == bool
    assert ds.truth_outliers.shape == (3,) and ds.truth_outliers.dtype == bool
    assert not ds.truth_outliers.any()


def test_dataset_truth_validation():
    with pytest.raises(ConfigError, match="k x N"):
        Dataset(np.zeros((1, 3)), np.ones((2, 2), dtype=bool))
    with pytest.raises(ConfigError, match="point 1 is flagged as outlier"):
        Dataset(np.zeros((1, 3)), [[True, True, False]], [False, True, True])
    with pytest.raises(ConfigError, match="boolean array"):
        Dataset(np.zeros((1, 2)), [[0, 1]])  # a per-point label, not a flag matrix
    with pytest.raises(ConfigError, match="boolean array"):
        Dataset(np.zeros((1, 2)), truth_outliers=[0, 1])
    with pytest.raises(ConfigError, match="rectangular"):
        Dataset(np.zeros((1, 2)), [[True, False], [True]])


# --- synthetic generation -----------------------------------------------

def test_generate_counts():
    ds = generate_synthetic(k=3, points=50, outliers=2, seed=0)
    assert ds.n_points == 152
    assert ds.truth_outliers.sum() == 2


def test_generate_zero_spread():
    ds = generate_synthetic(k=2, points=5, outliers=0, spread=0.0, seed=1)
    means = 10.0 * np.array([[1.0, 0.0], [np.cos(np.pi), np.sin(np.pi)]])
    for j in range(2):
        block = ds.points[:, 5 * j:5 * (j + 1)]
        np.testing.assert_array_equal(block, np.tile(means[j][:, None], 5))


def test_generate_deterministic():
    a = generate_synthetic(seed=7)
    b = generate_synthetic(seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.truth_memberships, b.truth_memberships)


def test_generate_label_consistency():
    ds = generate_synthetic(k=4, points=10, outliers=3, seed=3)
    assert ds.truth_memberships.shape == (4, 43)
    for i, labels in enumerate(ds.truth_memberships.T):
        if ds.truth_outliers[i]:
            assert not labels.any()
        else:
            assert np.flatnonzero(labels).tolist() == [i // 10]


def test_spec_validation():
    with pytest.raises(DataError):
        generate_synthetic(points=0)
    with pytest.raises(DataError, match="strictly contain"):
        generate_synthetic(separation=10.0, box_scale=0.05)  # box +/- 1, means at 10


@pytest.mark.parametrize("spec", [
    {}, {"k": 1, "points": 1, "outliers": 0}, {"k": 4, "dim": 1, "points": 7, "outliers": 5},
    {"k": 2, "spread": 0.0, "seed": 9}])
def test_synthetic_truth_is_the_generators(spec):
    memberships, outliers = synthetic_truth(**spec)
    ds = generate_synthetic(**spec)
    assert memberships.dtype == outliers.dtype == bool
    np.testing.assert_array_equal(memberships, ds.truth_memberships)
    np.testing.assert_array_equal(outliers, ds.truth_outliers)


@pytest.mark.parametrize("spec", [
    {"points": 0}, {"k": 0}, {"dim": 0}, {"outliers": -1}, {"seed": -1},
    {"spread": float("nan")}, {"separation": float("inf")},
    {"separation": 10.0, "box_scale": 0.05}, {"separation": 1e308}])
def test_synthetic_truth_refuses_what_the_generator_refuses(spec):
    with pytest.raises(DataError) as truth_error:
        synthetic_truth(**spec)
    with pytest.raises(DataError) as generator_error:
        generate_synthetic(**spec)
    assert str(truth_error.value) == str(generator_error.value)


def test_synthetic_truth_draws_no_points():
    """Points that overflow in the draw are the generator's error alone."""
    with pytest.raises(DataError, match="points overflow"):
        generate_synthetic(spread=1e308)
    memberships, outliers = synthetic_truth(spread=1e308)
    assert memberships.shape == (3, 152) and outliers.sum() == 2


# --- inject_noise -------------------------------------------------------

def test_inject_noise_counts_and_flags():
    ds = generate_synthetic(k=2, points=10, outliers=0, seed=0)
    noisy = inject_noise(ds, 5, seed=1)
    assert noisy.n_points == 25
    assert noisy.truth_outliers.sum() == 5
    assert noisy.truth_outliers[-5:].all()
    np.testing.assert_array_equal(noisy.points[:, :20], ds.points)
    np.testing.assert_array_equal(noisy.truth_memberships[:, :20], ds.truth_memberships)
    assert not noisy.truth_memberships[:, 20:].any()


def test_inject_noise_in_bounding_box():
    ds = generate_synthetic(k=2, points=20, outliers=0, seed=2)
    noisy = inject_noise(ds, 50, seed=3)
    low = ds.points.min(axis=1)
    high = ds.points.max(axis=1)
    added = noisy.points[:, 20 * 2:]
    assert np.all(added >= low[:, None]) and np.all(added <= high[:, None])


def test_inject_noise_zero_count_identity():
    ds = generate_synthetic(seed=4)
    assert inject_noise(ds, 0) is ds


def test_inject_noise_degenerate_box():
    ds = Dataset([[3.0], [4.0]])
    noisy = inject_noise(ds, 1, seed=0)
    np.testing.assert_array_equal(noisy.points[:, 1], [3.0, 4.0])


def test_inject_noise_without_truth():
    noisy = inject_noise(Dataset(np.arange(6.0).reshape(2, 3)), 2, seed=0)
    assert noisy.truth_memberships.shape == (0, 5)
    assert noisy.truth_outliers.tolist() == [False, False, False, True, True]


# --- standardize --------------------------------------------------------

def test_standardize():
    rng = np.random.default_rng(6)
    pts = rng.normal(5, 3, (3, 100))
    pts[2] = 7.0  # constant feature
    ds = standardize(Dataset(pts))
    np.testing.assert_allclose(ds.points.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.points[:2].std(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ds.points[2], 0.0, atol=1e-12)


@pytest.mark.parametrize("column,scale", [
    ([1e308, -1e308, 1e308, -1e308], 1e308),  # the standard deviation overflows
    ([1e308, 1.5e308, 1e308, 1.7e308], 1.7e308),  # the mean overflows
    ([1e200, -1e200, 1e200, -1e200], 1e200),  # the squared deviations overflow
])
def test_standardize_feature_whose_statistics_overflow(column, scale):
    """Such a feature is z-scored as x / max|x|; the others keep their bits."""
    pts = np.array([column, [0.0, 1.0, 2.0, 3.0]])
    ds = standardize(Dataset(pts))
    scaled = np.array(column) / scale
    np.testing.assert_allclose(ds.points[0], (scaled - scaled.mean()) / scaled.std(),
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(ds.points[1], standardize(Dataset(pts[1:])).points[0])


# --- input checks -------------------------------------------------------

@pytest.mark.parametrize("make,match", [
    (lambda: inject_noise(generate_synthetic(), -1), "nonnegative"),
])
def test_library_input_checks(make, match):
    with pytest.raises(DataError, match=match):
        make()
