"""Dataset ingestion, ground-truth mapping, synthetic generation, and
noise injection."""

import csv
import logging
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .solver import Dataset

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed input data."""


@dataclass(frozen=True)
class LabeledTable:
    """Rectangular feature table with per-record label sets.

    rows is (N, m); labels holds one frozenset of class indices per
    record (possibly empty).
    """

    rows: np.ndarray
    labels: tuple
    n_classes: int

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d array")
        object.__setattr__(self, "rows", rows)
        labels = tuple(frozenset(s) for s in self.labels)
        if len(labels) != rows.shape[0]:
            raise DataError("labels length must equal the record count")
        for i, s in enumerate(labels):
            for c in s:
                if not 0 <= c < self.n_classes:
                    raise DataError(f"record {i}: label index {c} out of range")
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
        return sum(len(s) for s in self.labels) / self.n_records


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
    rows, linenos = [], []
    for lineno, cells in raw:
        if len(cells) != width:
            raise DataError(f"{path}: row {lineno} has {len(cells)} fields, expected {width}")
        values = []
        for col, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}, column {col}: non-numeric value {cell.strip()!r}"
                ) from None
        rows.append(values)
        linenos.append(lineno)
    table = np.array(rows)
    bad = ~np.isfinite(table)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{path}: row {linenos[r]}, column {c}: "
                        f"non-finite value {float(table[r, c])!r}")

    if label_spec is None:
        return LabeledTable(table, (frozenset(),) * len(rows), 0)

    kind, arg = label_spec
    if kind == "col":
        col = arg if arg >= 0 else width + arg
        if not 0 <= col < width:
            raise DataError(f"{path}: class column {arg} out of range for width {width}")
        classes, index = np.unique(table[:, col], return_inverse=True)
        singletons = [frozenset((i,)) for i in range(classes.size)]
        labels = tuple(singletons[i] for i in index.tolist())
        return LabeledTable(np.delete(table, col, axis=1), labels, classes.size)

    # trailing indicator block
    if arg >= width:
        raise DataError(f"{path}: indicator block of {arg} columns exceeds width {width}")
    block = table[:, width - arg:]
    bad = (block != 0.0) & (block != 1.0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(
            f"{path}: row {linenos[r]}: indicator column value {float(block[r, c])} is not 0/1")
    labels = tuple(frozenset(compress(range(arg), row)) for row in (block == 1.0).tolist())
    return LabeledTable(np.ascontiguousarray(table[:, : width - arg]), labels, arg)


def _all_numeric(cells):
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def save_csv(table: LabeledTable, path):
    """Write a LabeledTable as features plus a trailing indicator block;
    round-trips exactly through load_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(table.n_records):
            row = [repr(float(v)) for v in table.rows[i]]
            row += ["1" if j in table.labels[i] else "0" for j in range(table.n_classes)]
            writer.writerow(row)


def to_dataset(table: LabeledTable, outlier_classes=frozenset()) -> Dataset:
    """Convert a labeled table to a Dataset, mapping whole classes to
    outlier status.

    Points labeled only with outlier classes become truth outliers with
    empty membership sets.  Points with mixed inlier and outlier labels
    keep only their inlier labels.
    """
    outlier_classes = frozenset(outlier_classes)
    all_classes = frozenset(range(table.n_classes))
    if not outlier_classes <= all_classes:
        raise DataError(f"outlier classes {sorted(outlier_classes - all_classes)} not in table")
    inlier_classes = sorted(all_classes - outlier_classes)
    if table.n_classes and not inlier_classes:
        raise DataError("every class marked as outlier; no inlier clusters remain")
    remap = {c: i for i, c in enumerate(inlier_classes)}

    memberships = []
    flags = np.zeros(table.n_records, dtype=bool)
    n_mixed = 0
    for i, labels in enumerate(table.labels):
        inl = labels - outlier_classes
        if labels and not inl:
            flags[i] = True
        elif inl != labels:
            n_mixed += 1
        memberships.append(frozenset(remap[c] for c in inl))
    if n_mixed:
        log.warning("%d records had mixed inlier/outlier labels; kept their inlier labels",
                    n_mixed)
    return Dataset(table.rows.T, tuple(memberships), flags)


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian blobs plus uniform-in-box outliers.

    means is (k, m); spreads and points_per_cluster broadcast to length k;
    the outlier box must strictly contain every cluster mean.
    """

    means: np.ndarray
    spreads: np.ndarray
    points_per_cluster: np.ndarray
    n_outliers: int
    box_low: np.ndarray
    box_high: np.ndarray
    seed: int = 0

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        k, m = means.shape
        spreads = np.broadcast_to(np.asarray(self.spreads, dtype=float), (k,)).copy()
        counts = np.broadcast_to(np.asarray(self.points_per_cluster, dtype=int), (k,)).copy()
        low = np.broadcast_to(np.asarray(self.box_low, dtype=float), (m,)).copy()
        high = np.broadcast_to(np.asarray(self.box_high, dtype=float), (m,)).copy()
        if np.any(counts < 1):
            raise DataError("points_per_cluster entries must be positive")
        if self.n_outliers < 0:
            raise DataError("n_outliers must be nonnegative")
        if np.any(spreads < 0):
            raise DataError("spreads must be nonnegative")
        if np.any(means <= low) or np.any(means >= high):
            raise DataError("outlier box must strictly contain every cluster mean")
        for name, val in (("means", means), ("spreads", spreads),
                          ("points_per_cluster", counts), ("box_low", low),
                          ("box_high", high)):
            object.__setattr__(self, name, val)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def blob_spec(k=3, dim=2, points=50, outliers=2, spread=0.5, separation=10.0,
              box_scale=10.0, seed=0) -> SynthSpec:
    """Convenience spec: k cluster means evenly spaced on a circle of
    radius separation (first two coordinates), box = +/- separation*box_scale."""
    means = np.zeros((k, dim))
    if dim == 1:
        means[:, 0] = np.linspace(-separation, separation, k)
    else:
        angles = 2 * np.pi * np.arange(k) / k
        means[:, 0] = separation * np.cos(angles)
        means[:, 1] = separation * np.sin(angles)
    half = max(separation * box_scale, 1.0)
    return SynthSpec(means, spread, points, outliers, -half, half, seed=seed)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Seeded blobs-plus-outliers dataset with generator ground truth."""
    rng = np.random.default_rng(spec.seed)
    chunks, memberships = [], []
    for j in range(spec.k):
        n_j = int(spec.points_per_cluster[j])
        pts = spec.means[j][:, None] + spec.spreads[j] * rng.standard_normal(
            (spec.n_features, n_j))
        chunks.append(pts)
        memberships += [frozenset((j,))] * n_j
    if spec.n_outliers:
        pts = rng.uniform(spec.box_low[:, None], spec.box_high[:, None],
                          (spec.n_features, spec.n_outliers))
        chunks.append(pts)
        memberships += [frozenset()] * spec.n_outliers
    points = np.concatenate(chunks, axis=1)
    flags = np.zeros(points.shape[1], dtype=bool)
    if spec.n_outliers:
        flags[-spec.n_outliers:] = True
    return Dataset(points, tuple(memberships), flags)


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
    memberships = None
    if data.truth_memberships is not None:
        memberships = data.truth_memberships + (frozenset(),) * count
    old_flags = data.truth_outliers
    if old_flags is None:
        old_flags = np.zeros(data.n_points, dtype=bool)
    flags = np.concatenate([old_flags, np.ones(count, dtype=bool)])
    return Dataset(points, memberships, flags)


def standardize(data: Dataset) -> Dataset:
    """Z-score each feature; constant features are left centered."""
    mu = data.points.mean(axis=1, keepdims=True)
    sd = data.points.std(axis=1, keepdims=True)
    sd[sd == 0.0] = 1.0
    return Dataset((data.points - mu) / sd, data.truth_memberships, data.truth_outliers)
