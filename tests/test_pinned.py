"""Pinned fits: every solver on two small synthetic specs must reproduce the
iterations, stop reason, hard assignments, outlier indices and objective
trace recorded in pinned_fits.json.  The values were recorded before the
solvers were folded into one hard and one soft engine; any change to them
is a change of results, not a refactor.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rtkm import ALGORITHMS, SolverConfig, generate_synthetic

PINNED = json.loads((Path(__file__).parent / "pinned_fits.json").read_text())

# name -> (generate_synthetic kwargs, SolverConfig kwargs per algorithm).  kmeans and
# trimmed accept only s=1, so on the s=2 spec they run with s=1.
CASES = {
    "s1_outliers": (
        dict(k=3, points=12, outliers=3, spread=3.0, separation=4.0, seed=11),
        {
            "kmeans": dict(k=3, seed=2, max_iters=60),
            "trimmed": dict(k=3, alpha=3 / 39, seed=2, max_iters=60),
            "relaxed": dict(k=3, seed=2, max_iters=60),
            "rtkm": dict(k=3, alpha=3 / 39, seed=2, max_iters=60),
        },
    ),
    "s2_kmeanspp": (
        dict(k=4, dim=3, points=10, outliers=2, spread=2.0, separation=3.0, seed=7),
        {
            "kmeans": dict(k=4, seed=5, init="kmeans++", max_iters=60),
            "trimmed": dict(k=4, alpha=0.05, seed=5, init="kmeans++", max_iters=60),
            "relaxed": dict(k=4, s=2, seed=5, init="kmeans++", max_iters=60),
            "rtkm": dict(k=4, s=2, alpha=0.05, seed=5, init="kmeans++", max_iters=60),
        },
    ),
}


def run_case(case, algorithm):
    spec, configs = CASES[case]
    data = generate_synthetic(**spec)
    result = ALGORITHMS[algorithm](data, SolverConfig(**configs[algorithm]))
    return {
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "hard_assignments": [sorted(s) for s in result.hard_assignments],
        "outlier_indices": np.flatnonzero(result.outlier_flags).tolist(),
        "objective_trace": list(result.objective_trace),
    }


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_fit(case, algorithm):
    got = run_case(case, algorithm)
    want = PINNED[case][algorithm]
    for key in ("iterations", "stop_reason", "hard_assignments", "outlier_indices"):
        assert got[key] == want[key], key
    assert len(got["objective_trace"]) == len(want["objective_trace"])
    np.testing.assert_allclose(got["objective_trace"], want["objective_trace"],
                               rtol=1e-12, atol=0)
