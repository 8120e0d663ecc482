"""Dataset ingestion, ground-truth mapping, synthetic generation, and
noise injection."""

import csv
import logging
from itertools import chain, islice

import numpy as np

from .solver import Dataset

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed input data."""


def parse_label_spec(text):
    """Parse a label spec string: 'col:J' (single class column J) or
    'last:K' (trailing block of K binary indicator columns); None means
    unlabeled."""
    if text is None:
        return None
    kind, _, arg = text.partition(":")
    if kind not in ("col", "last") or not arg:
        raise DataError(f"bad label spec {text!r}; expected col:J or last:K")
    try:
        value = int(arg)
    except ValueError:
        raise DataError(f"bad label spec {text!r}; {arg!r} is not an integer") from None
    if kind == "last" and value < 1:
        raise DataError("last:K requires K >= 1")
    return (kind, value)


def load_csv(path, label_spec=None) -> Dataset:
    """Load a comma-separated numeric table with an optional header row,
    one record per row, as a Dataset with one truth row per class.

    label_spec is None (unlabeled), 'col:J' for a single class column J,
    or 'last:K' for K trailing 0/1 indicator columns (see
    parse_label_spec).  A record may have any number of classes, none
    included; no record is a truth outlier.  Malformed rows raise
    DataError naming the offending row.

    Each record is parsed into the float table as it is read, so the load
    holds the table and one record at a time, not every cell as text.
    """
    label_spec = parse_label_spec(label_spec)
    with _open_csv(path) as fh:
        records = _records(path, fh)
        first = next(records, None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        header = not all(map(_is_number, first[1]))
        if header:
            first = next(records, None)
            if first is None:
                raise DataError(f"{path}: no data rows after header")
        width = len(first[1])
        last, error = first, None

        def rows():
            # each record is checked, numbered and dropped as the table takes it
            nonlocal last, error
            for last in chain([first], records):
                if len(last[1]) != width:
                    error = DataError(f"{path}: row {last[0]} has {len(last[1])} fields, "
                                      f"expected {width}")
                    return
                yield last[1]

        try:
            table = np.fromiter(map(float, chain.from_iterable(rows())), dtype=float)
        except DataError:  # the file could not be read on
            raise
        except ValueError:
            number, cells = last
            col, cell = next((col, cell) for col, cell in enumerate(cells)
                             if not _is_number(cell))
            error = DataError(f"{path}: row {number}, column {col}: "
                              f"non-numeric value {cell.strip()!r}")
        if error is not None:
            # a reading error further on wins, as it did when the whole file
            # was read before any cell
            for _ in records:
                pass
            raise error

    table = table.reshape(-1, width)
    finite = np.isfinite(table)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DataError(f"{path}: row {_record_number(path, int(r), header)}, column {c}: "
                        f"non-finite value {float(table[r, c])!r}")

    # points are the transpose of a C-ordered (N, m) table: a BLAS product's
    # rounding can depend on the layout
    if label_spec is None:
        return Dataset(table.T)

    kind, arg = label_spec
    if kind == "col":
        col = arg if arg >= 0 else width + arg
        if not 0 <= col < width:
            raise DataError(f"{path}: class column {arg} out of range for width {width}")
        if width == 1:
            raise DataError(f"{path}: class column {arg} leaves no feature column")
        classes, index = np.unique(table[:, col], return_inverse=True)
        return Dataset(np.delete(table, col, axis=1).T, np.arange(classes.size)[:, None] == index)

    # trailing indicator block
    if arg >= width:
        raise DataError(f"{path}: indicator block of {arg} columns exceeds width {width}")
    block = table[:, width - arg:]
    bad = (block != 0.0) & (block != 1.0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{path}: row {_record_number(path, int(r), header)}: "
                        f"indicator column value {float(block[r, c])} is not 0/1")
    return Dataset(np.ascontiguousarray(table[:, : width - arg]).T, block.T == 1.0)


def _open_csv(path):
    # utf-8-sig drops the byte order mark that a UTF-8 "with BOM" export
    # puts first; left in the first cell, it made that record a header
    return open(path, newline="", encoding="utf-8-sig")


def _records(path, fh):
    """(record number from 1, cells) of each record of the CSV file fh that
    has a non-blank cell.  Text that is not UTF-8 and a record that csv
    refuses raise DataError."""
    number = 0
    try:
        for number, cells in enumerate(csv.reader(fh), 1):
            if any(cell.strip() for cell in cells):
                yield number, cells
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: row {number + 1}: {exc}") from None


def _record_number(path, row, header):
    """The record number of table row `row` (from 0) of a file that load_csv
    has read through, found by reading it again: the table keeps none."""
    with _open_csv(path) as fh:
        return next(islice(_records(path, fh), row + header, None))[0]


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def to_dataset(data: Dataset, outlier_classes=frozenset()) -> Dataset:
    """data with whole truth classes (rows of its truth matrix) mapped to
    outlier status.

    The inlier classes, in order, stay the rows of the truth matrix.
    Points labeled only with outlier classes become truth outliers, in no
    truth cluster, beside the points data already flags.  Points with
    mixed inlier and outlier labels keep only their inlier labels.
    """
    labels = data.truth_memberships
    n_classes = labels.shape[0]
    outlier_classes = frozenset(outlier_classes)
    all_classes = frozenset(range(n_classes))
    if not outlier_classes <= all_classes:
        raise DataError(f"outlier classes {sorted(outlier_classes - all_classes)} not in table")
    is_outlier = np.isin(np.arange(n_classes), list(outlier_classes))
    if n_classes and is_outlier.all():
        raise DataError("every class marked as outlier; no inlier clusters remain")
    inlier_labels = labels[~is_outlier]
    has_inlier = inlier_labels.any(axis=0)
    has_outlier = labels[is_outlier].any(axis=0)
    n_mixed = int((has_inlier & has_outlier).sum())
    if n_mixed:
        log.warning("%d records had mixed inlier/outlier labels; kept their inlier labels",
                    n_mixed)
    return Dataset(data.points, inlier_labels, data.truth_outliers | (has_outlier & ~has_inlier))


def synthetic_truth(k=3, dim=2, points=50, outliers=2, spread=0.5, separation=10.0,
                    box_scale=10.0, seed=0):
    """The ground truth of generate_synthetic with the same arguments, without
    drawing its points: the (k, N) boolean truth_memberships and the (N,)
    boolean truth_outliers.  Raises DataError where generate_synthetic does,
    except for points that overflow in the draw."""
    _synthetic_layout(k, dim, points, outliers, spread, separation, box_scale, seed)
    return _synthetic_owner_truth(k, points, outliers)


def _synthetic_owner_truth(k, points, outliers):
    # each point's cluster index; the outliers get k or more, which no truth row has
    owner = np.arange(k * points + outliers) // points
    return owner == np.arange(k)[:, None], owner >= k


def _synthetic_layout(k, dim, points, outliers, spread, separation, box_scale, seed):
    """Check generate_synthetic's arguments.  Returns the (k, dim) cluster
    means and the half width of the outlier box."""
    for name, value, low in (("k", k, 1), ("dim", dim, 1), ("points", points, 1),
                             ("outliers", outliers, 0), ("seed", seed, 0),
                             ("spread", spread, 0)):
        if not value >= low:  # also refuses nan
            raise DataError(f"synthetic {name} must be >= {low}, not {value!r}")
    if not np.isfinite([spread, separation, box_scale]).all():
        raise DataError("synthetic spread, separation and box_scale must be finite")
    means = np.zeros((k, dim))
    if dim == 1:
        means[:, 0] = np.linspace(-separation, separation, k)
    else:
        angles = 2 * np.pi * np.arange(k) / k
        means[:, 0] = separation * np.cos(angles)
        means[:, 1] = separation * np.sin(angles)
    half = max(separation * box_scale, 1.0)
    if np.any(np.abs(means) >= half):
        raise DataError("outlier box must strictly contain every cluster mean")
    if not np.isfinite(2.0 * half):  # the uniform draw needs a finite width
        raise DataError("synthetic outlier box overflows; lower separation or box_scale")
    return means, half


def generate_synthetic(k=3, dim=2, points=50, outliers=2, spread=0.5, separation=10.0,
                       box_scale=10.0, seed=0) -> Dataset:
    """Seeded Gaussian blobs plus uniform outliers, with generator ground truth.

    k clusters of `points` points each, with standard deviation spread
    around means evenly spaced on a circle of radius separation in the
    first two coordinates (on a line for dim=1), then `outliers` points
    uniform in the box +/- max(separation*box_scale, 1), which must
    strictly contain every mean.  Points come cluster by cluster, the
    outliers last.  The truth is synthetic_truth's.
    """
    means, half = _synthetic_layout(k, dim, points, outliers, spread, separation,
                                    box_scale, seed)
    rng = np.random.default_rng(seed)
    n = k * points + outliers
    # one (k, dim, points) draw takes the same normals as k per-cluster draws;
    # it is scaled, shifted and copied in place, so it and the output are the
    # only arrays of the points' size
    blobs = rng.standard_normal((k, dim, points))
    with np.errstate(over="ignore", invalid="ignore"):  # raised below as a data error
        blobs *= spread
        blobs += means[:, :, None]
    if not np.isfinite(blobs).all():
        raise DataError("synthetic points overflow; lower spread or separation")
    out = np.empty((dim, n))
    out[:, :k * points].reshape(dim, k, points)[...] = blobs.transpose(1, 0, 2)
    del blobs
    out[:, k * points:] = rng.uniform(-half, half, (dim, outliers))
    # truth last: its place sets peak_rss_mb under a never-trimmed heap (ROADMAP item 8)
    return Dataset(out, *_synthetic_owner_truth(k, points, outliers))


def inject_noise(data: Dataset, count: int, seed=0) -> Dataset:
    """Append count uniform noise points drawn from the per-feature
    bounding box of the data, flagged as truth outliers."""
    if count < 0:
        raise DataError("noise count must be nonnegative")
    if count == 0:
        return data
    rng = np.random.default_rng(seed)
    low = data.points.min(axis=1)
    high = data.points.max(axis=1)
    noise = rng.uniform(low[:, None], high[:, None], (data.n_features, count))
    points = np.concatenate([data.points, noise], axis=1)
    memberships = np.pad(data.truth_memberships, ((0, 0), (0, count)))
    flags = np.pad(data.truth_outliers, (0, count), constant_values=True)
    return Dataset(points, memberships, flags)


def standardize(data: Dataset) -> Dataset:
    """Z-score each feature; constant features are left centered.  A feature
    whose mean or sd overflows is z-scored as x / max|x|, whose statistics
    are finite and whose z-scores are the same."""
    X = data.points
    with np.errstate(over="ignore", invalid="ignore"):  # mended below
        mu = X.mean(axis=1, keepdims=True)
        sd = X.std(axis=1, keepdims=True)
    bad = ~(np.isfinite(mu) & np.isfinite(sd))[:, 0]
    if bad.any():
        X = X.copy()
        X[bad] /= np.abs(X[bad]).max(axis=1, keepdims=True)
        mu[bad] = X[bad].mean(axis=1, keepdims=True)
        sd[bad] = X[bad].std(axis=1, keepdims=True)
    sd[sd == 0.0] = 1.0
    return Dataset((X - mu) / sd, data.truth_memberships, data.truth_outliers)
