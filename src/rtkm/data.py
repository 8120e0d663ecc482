"""Dataset ingestion, ground-truth mapping, synthetic generation, and
noise injection."""

import csv
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .solver import Dataset, as_boolean

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed input data."""


@dataclass(frozen=True)
class LabeledTable:
    """Rectangular feature table with per-record labels.

    rows is (N, m); labels is an (N, C) boolean matrix over C classes,
    labels[i, c] marking record i as a member of class c (a record may
    have any number of labels, none included).
    """

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d array")
        labels = as_boolean(self.labels, DataError, "labels")
        if labels.ndim != 2 or labels.shape[0] != rows.shape[0]:
            raise DataError("labels must be a matrix with one row per record")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n_records(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @property
    def cardinality(self) -> float:
        """Mean number of labels per record; guides the choice of s."""
        return int(self.labels.sum()) / self.n_records


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


def load_csv(path, label_spec=None) -> LabeledTable:
    """Load a comma-separated numeric table with an optional header row.

    label_spec is None (unlabeled), 'col:J' for a single class column J,
    or 'last:K' for K trailing 0/1 indicator columns (see
    parse_label_spec).  Malformed rows raise DataError naming the
    offending row.
    """
    label_spec = parse_label_spec(label_spec)
    with open(path, newline="") as fh:
        raw = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), 1)
               if row and any(cell.strip() for cell in row)]
    if not raw:
        raise DataError(f"{path}: no data rows")
    if not _all_numeric(raw[0][1]):
        raw = raw[1:]  # header row
        if not raw:
            raise DataError(f"{path}: no data rows after header")

    width = len(raw[0][1])
    if any(len(cells) != width for _, cells in raw):
        raise _row_error(path, raw, width)
    # every cell goes through float(), as in the row-by-row loop of _row_error
    cells = chain.from_iterable(row for _, row in raw)
    try:
        table = np.fromiter(map(float, cells), dtype=float, count=len(raw) * width)
    except ValueError:
        raise _row_error(path, raw, width) from None
    table = table.reshape(len(raw), width)
    bad = ~np.isfinite(table)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{path}: row {raw[r][0]}, column {c}: "
                        f"non-finite value {float(table[r, c])!r}")

    if label_spec is None:
        return LabeledTable(table, np.zeros((len(raw), 0), dtype=bool))

    kind, arg = label_spec
    if kind == "col":
        col = arg if arg >= 0 else width + arg
        if not 0 <= col < width:
            raise DataError(f"{path}: class column {arg} out of range for width {width}")
        classes, index = np.unique(table[:, col], return_inverse=True)
        labels = index.reshape(-1, 1) == np.arange(classes.size)
        return LabeledTable(np.delete(table, col, axis=1), labels)

    # trailing indicator block
    if arg >= width:
        raise DataError(f"{path}: indicator block of {arg} columns exceeds width {width}")
    block = table[:, width - arg:]
    bad = (block != 0.0) & (block != 1.0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(
            f"{path}: row {raw[r][0]}: indicator column value {float(block[r, c])} is not 0/1")
    return LabeledTable(np.ascontiguousarray(table[:, : width - arg]), block == 1.0)


def _row_error(path, raw, width):
    """The DataError for the first row, in file order, that has other than
    width fields or a cell that float() refuses."""
    for lineno, cells in raw:
        if len(cells) != width:
            return DataError(f"{path}: row {lineno} has {len(cells)} fields, expected {width}")
        for col, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                return DataError(f"{path}: row {lineno}, column {col}: "
                                 f"non-numeric value {cell.strip()!r}")


def _all_numeric(cells):
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def to_dataset(table: LabeledTable, outlier_classes=frozenset()) -> Dataset:
    """Convert a labeled table to a Dataset, mapping whole classes to
    outlier status.

    The inlier classes, in order, become the rows of the truth matrix.
    Points labeled only with outlier classes become truth outliers, in no
    truth cluster.  Points with mixed inlier and outlier labels keep only
    their inlier labels.
    """
    n_classes = table.labels.shape[1]
    outlier_classes = frozenset(outlier_classes)
    all_classes = frozenset(range(n_classes))
    if not outlier_classes <= all_classes:
        raise DataError(f"outlier classes {sorted(outlier_classes - all_classes)} not in table")
    is_outlier = np.isin(np.arange(n_classes), list(outlier_classes))
    if n_classes and is_outlier.all():
        raise DataError("every class marked as outlier; no inlier clusters remain")
    inlier_labels = table.labels[:, ~is_outlier]
    has_inlier = inlier_labels.any(axis=1)
    has_outlier = table.labels[:, is_outlier].any(axis=1)
    n_mixed = int((has_inlier & has_outlier).sum())
    if n_mixed:
        log.warning("%d records had mixed inlier/outlier labels; kept their inlier labels",
                    n_mixed)
    return Dataset(table.rows.T, inlier_labels.T, has_outlier & ~has_inlier)


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
    memberships = data.truth_memberships
    if memberships is not None:
        memberships = np.hstack([memberships, np.zeros((memberships.shape[0], count), bool)])
    old_flags = data.truth_outliers
    if old_flags is None:
        old_flags = np.zeros(data.n_points, dtype=bool)
    flags = np.concatenate([old_flags, np.ones(count, dtype=bool)])
    return Dataset(points, memberships, flags)


def standardize(data: Dataset) -> Dataset:
    """Z-score each feature; constant features are left centered.  Raises
    FloatingPointError naming the first feature whose mean or sd overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        mu = data.points.mean(axis=1, keepdims=True)
        sd = data.points.std(axis=1, keepdims=True)
    bad = ~(np.isfinite(mu) & np.isfinite(sd))[:, 0]
    if bad.any():
        raise FloatingPointError(f"feature {np.flatnonzero(bad)[0]}: mean or standard "
                                 "deviation overflows; rescale the data")
    sd[sd == 0.0] = 1.0
    return Dataset((data.points - mu) / sd, data.truth_memberships, data.truth_outliers)
