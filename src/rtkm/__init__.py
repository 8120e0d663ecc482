"""Robust trimmed k-means clustering with simultaneous outlier detection."""

from .geometry import project_columns, project_mass
from .solver import (
    ALGORITHMS,
    ConfigError,
    Dataset,
    FitResult,
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
from .metrics import Clustering, average_f1, f1_single, me_score
from .data import (
    DataError,
    LabeledTable,
    SynthSpec,
    blob_spec,
    generate_synthetic,
    inject_noise,
    load_csv,
    save_csv,
    standardize,
    to_dataset,
)

__all__ = [
    "ALGORITHMS",
    "Clustering",
    "ConfigError",
    "DataError",
    "Dataset",
    "FitResult",
    "LabeledTable",
    "SolverConfig",
    "SynthSpec",
    "average_f1",
    "blob_spec",
    "f1_single",
    "fit_kmeans",
    "fit_relaxed_kmeans",
    "fit_rtkm",
    "fit_trimmed_kmeans",
    "generate_synthetic",
    "hard_assign",
    "init_centers",
    "inject_noise",
    "load_csv",
    "me_score",
    "objective_kmeans",
    "objective_rtkm",
    "project_columns",
    "project_mass",
    "save_csv",
    "standardize",
    "to_dataset",
    "trim_count",
]

__version__ = "0.1.0"
