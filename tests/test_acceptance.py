"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criteria 7 and 8 need the yeast/scene datasets on disk and are skipped
otherwise; point RTKM_YEAST / RTKM_SCENE at indicator-label CSVs
(features followed by 14 and 6 trailing 0/1 label columns respectively)
or place them at data/yeast.csv and data/scene.csv.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from rtkm import (
    Clustering,
    Dataset,
    SolverConfig,
    average_f1,
    fit_kmeans,
    fit_relaxed_kmeans,
    fit_rtkm,
    fit_trimmed_kmeans,
    inject_noise,
    load_csv,
    me_score,
    to_dataset,
    trim_count,
)
from rtkm.cli import main as cli_main
from rtkm.cli import truth_clustering
from rtkm.geometry import project_mass

from conftest import (
    clustering,
    exhaustive_average_f1,
    grid_projection_oracle,
    make_blobs_with_outliers,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(num, description, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def dataset_path(env_var, default_name):
    candidate = os.environ.get(env_var, str(REPO_ROOT / "data" / default_name))
    return candidate if os.path.exists(candidate) else None


def test_criterion_1_projection_oracle():
    # the bound is on the 1000 projections; the grid oracle is not timed
    rng = np.random.default_rng(20240401)
    worst = elapsed = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        s = float(rng.integers(1, n + 1))
        y = rng.normal(0, 2, n)
        started = time.perf_counter()
        w = project_mass(y, s)
        elapsed += time.perf_counter() - started
        w_oracle = grid_projection_oracle(y, s)
        worst = max(worst, float(np.abs(w - w_oracle).max()))
    report(1, f"projection matches grid oracle (max err {worst:.2e}, {elapsed:.3f}s)",
           worst <= 1e-6 and elapsed < 10.0)


def test_criterion_2_monotone_descent():
    fits = {"kmeans": fit_kmeans, "relaxed": fit_relaxed_kmeans, "rtkm": fit_rtkm}
    worst = -np.inf
    for name, fit in fits.items():
        for seed in range(100):
            rng = np.random.default_rng(7000 + seed)
            n = int(rng.integers(10, 201))
            m = int(rng.integers(1, 6))
            ds = Dataset(rng.normal(0, 3, (m, n)))
            alpha = 0.1 if name == "rtkm" else 0.0
            cfg = SolverConfig(k=3, s=1, alpha=alpha, seed=seed)
            trace = np.array(fit(ds, cfg).objective_trace)
            if len(trace) > 1:
                worst = max(worst, float(np.diff(trace).max()))
    report(2, f"objective traces nonincreasing (max increase {worst:.2e})",
           worst <= 1e-9)


def test_criterion_3_alpha_zero_reduction():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(20, 120))
        ds = Dataset(rng.normal(0, 3, (int(rng.integers(1, 6)), n)))
        cfg = SolverConfig(k=3, s=1, alpha=0.0, seed=seed)
        robust = fit_rtkm(ds, cfg)
        relaxed = fit_relaxed_kmeans(ds, cfg)
        same_len = len(robust.objective_trace) == len(relaxed.objective_trace)
        ok &= same_len and bool(
            np.all(np.abs(np.array(robust.objective_trace)
                          - np.array(relaxed.objective_trace)) <= 1e-12))
        ok &= np.array_equal(robust.assignments, relaxed.assignments)
    report(3, "fit_rtkm(alpha=0) reproduces fit_relaxed_kmeans exactly", ok)


def test_criterion_4_fig1_scenario():
    started = time.perf_counter()
    ds = make_blobs_with_outliers(gen_seed=42)
    truth = Clustering(ds.truth_memberships, ds.truth_outliers)
    n = ds.n_points
    rtkm_good = 0
    kmeans_bad = 0
    for seed in range(10):
        res = fit_rtkm(ds, SolverConfig(k=3, s=1, alpha=2 / n, seed=seed))
        f1 = average_f1(Clustering(res.assignments, res.outlier_flags), truth)
        me = me_score(res.outlier_flags, ds.truth_outliers)
        if f1 >= 0.95 and me == 0.0:
            rtkm_good += 1
        km = fit_kmeans(ds, SolverConfig(k=3, s=1, seed=seed))
        if average_f1(Clustering(km.assignments, km.outlier_flags), truth) < 0.95:
            kmeans_bad += 1
    elapsed = time.perf_counter() - started
    report(4, f"Fig-1 scenario: RTKM good in {rtkm_good}/10, k-means degraded in "
              f"{kmeans_bad}/10 ({elapsed:.1f}s)",
           rtkm_good >= 9 and kmeans_bad >= 1 and elapsed < 30.0)


def test_criterion_5_metric_ground_truths():
    # one cluster pair with tp=2, fp=1, fn=1
    ok = average_f1(clustering([{0, 1, 2}], 4), clustering([{0, 1, 3}], 4)) == 2 / 3
    truth_flags = np.array([True, False, False, True, False])
    ok &= me_score(np.ones(5, dtype=bool), truth_flags) == 1.0
    rng = np.random.default_rng(9000)
    for _ in range(200):
        n_points = int(rng.integers(3, 12))
        pred = [frozenset(rng.choice(n_points, rng.integers(0, n_points + 1),
                                     replace=False).tolist())
                for _ in range(int(rng.integers(1, 6)))]
        truth = [frozenset(rng.choice(n_points, rng.integers(0, n_points + 1),
                                      replace=False).tolist())
                 for _ in range(int(rng.integers(1, 6)))]
        got = average_f1(clustering(pred, n_points), clustering(truth, n_points))
        ok &= abs(got - exhaustive_average_f1(pred, truth)) <= 1e-12
    report(5, "F1 and M_e ground truths; matching equals exhaustive search", ok)


def test_criterion_6_exact_outlier_count():
    ok = trim_count(0.05, 10) == 1  # [0.5] = 1, halves round up
    for n in (10, 11, 20):
        ds = Dataset(np.random.default_rng(n).normal(0, 1, (2, n)))
        for alpha in (0.05, 0.1, 0.15):
            res = fit_rtkm(ds, SolverConfig(k=2, s=1, alpha=alpha, seed=0))
            ok &= int(res.outlier_flags.sum()) == trim_count(alpha, n)
    report(6, "RTKM flags exactly [alpha*N] outliers, halves rounded up", ok)


def _best_of_restarts(fit, ds, base_cfg, restarts):
    best = None
    for r in range(restarts):
        cfg = SolverConfig(**{**base_cfg.__dict__, "seed": base_cfg.seed + r})
        res = fit(ds, cfg)
        if best is None or res.objective_trace[-1] < best.objective_trace[-1]:
            best = res
    return best


def _table1_f1(path, label_spec, k, s):
    """Best-of-5 RTKM F1 on an indicator-label CSV, the Table 1 protocol."""
    ds = to_dataset(load_csv(path, label_spec))
    best = _best_of_restarts(fit_rtkm, ds, SolverConfig(k=k, s=s, alpha=0.0, seed=0), 5)
    return average_f1(Clustering(best.assignments, best.outlier_flags),
                      truth_clustering(ds.truth_memberships, ds.truth_outliers))


def test_table1_protocol_on_a_small_csv(tmp_path):
    # criteria 7a and 7b run this protocol only with their datasets on disk
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
    labels = np.repeat(np.eye(2, dtype=int), 20, axis=0)
    path = tmp_path / "two.csv"
    path.write_text("".join(f"{x!r},{y!r},{a},{b}\n"
                            for (x, y), (a, b) in zip(points.tolist(), labels.tolist())))
    assert _table1_f1(str(path), "last:2", k=2, s=1) == 1.0


@pytest.mark.skipif(dataset_path("RTKM_YEAST", "yeast.csv") is None,
                    reason="yeast dataset not on disk")
def test_criterion_7a_yeast_table1():
    started = time.perf_counter()
    f1 = _table1_f1(dataset_path("RTKM_YEAST", "yeast.csv"), "last:14", k=14, s=4)
    elapsed = time.perf_counter() - started
    report("7a", f"yeast protocol F1 = {f1:.3f} (target 0.317 +/- 0.05, "
                 f"{elapsed:.0f}s)", abs(f1 - 0.317) <= 0.05 and elapsed < 300)


@pytest.mark.skipif(dataset_path("RTKM_SCENE", "scene.csv") is None,
                    reason="scene dataset not on disk")
def test_criterion_7b_scene_table1():
    started = time.perf_counter()
    f1 = _table1_f1(dataset_path("RTKM_SCENE", "scene.csv"), "last:6", k=6, s=1)
    elapsed = time.perf_counter() - started
    report("7b", f"scene protocol F1 = {f1:.3f} (target 0.597 +/- 0.05, "
                 f"{elapsed:.0f}s)", abs(f1 - 0.597) <= 0.05 and elapsed < 300)


@pytest.mark.skipif(dataset_path("RTKM_YEAST", "yeast.csv") is None,
                    reason="yeast dataset not on disk")
def test_criterion_8_yeast_plus_noise():
    table = load_csv(dataset_path("RTKM_YEAST", "yeast.csv"), "last:14")
    ds = inject_noise(to_dataset(table), 150, seed=0)
    alpha = 150 / ds.n_points
    rtkm_scores, trimmed_scores = [], []
    for seed in range(10):
        robust = fit_rtkm(ds, SolverConfig(k=14, s=4, alpha=alpha, seed=seed))
        rtkm_scores.append(me_score(robust.outlier_flags, ds.truth_outliers))
        staged = fit_trimmed_kmeans(ds, SolverConfig(k=14, s=1, alpha=alpha,
                                                     seed=seed))
        trimmed_scores.append(me_score(staged.outlier_flags, ds.truth_outliers))
    mean_rtkm = float(np.mean(rtkm_scores))
    mean_trimmed = float(np.mean(trimmed_scores))
    report(8, f"yeast+noise: mean M_e RTKM {mean_rtkm:.3f} < trimmed "
              f"{mean_trimmed:.3f}", mean_rtkm < mean_trimmed)


def test_criterion_9_cli_determinism(tmp_path):
    args = ["fit", "--algorithm", "rtkm",
            "--synth", "k=3,points=50,outliers=2,seed=42",
            "--k", "3", "--alpha", "0.013", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    sweep_args = ["sweep", "--algorithm", "rtkm",
                  "--synth", "k=3,points=50,outliers=2,seed=42", "--k", "3",
                  "--alpha-grid", "0,0.013", "--restarts", "3", "--seed", "5"]
    sa, sb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(sweep_args + ["--out", str(sa)]) == 0
    assert cli_main(sweep_args + ["--out", str(sb)]) == 0
    ok = (a.read_bytes() == b.read_bytes()) and (sa.read_bytes() == sb.read_bytes())
    report(9, "repeated CLI invocations produce byte-identical artifacts", ok)
