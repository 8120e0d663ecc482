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
    objective_rtkm,
    trim_count,
)
from .metrics import Clustering, average_f1, me_score
from .data import (
    DataError,
    generate_synthetic,
    inject_noise,
    load_csv,
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
    "SolverConfig",
    "average_f1",
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
    "objective_rtkm",
    "project_columns",
    "project_mass",
    "standardize",
    "to_dataset",
    "trim_count",
]

__version__ = "0.1.0"
