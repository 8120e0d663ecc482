"""The three workloads: their inputs, CLI commands and correctness checks.

Every workload clusters one fixed base instance.  --seed draws a change of
units for it (a per-feature affine map for the CSV, a global scale for the
synthetic specs), and every command passes --standardize, which removes
that change up to rounding.  So the program reads different numbers for
every seed while iterations and avg_f1 stay exact: a fit capped at a few
iterations lands in a different local optimum for almost every data draw,
and its F1 then moves by 20-50% of its median between seeds.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Label prevalence of the 14 yeast classes (about 4.2 labels per record).
YEAST_PREVALENCE = np.array([0.31, 0.42, 0.40, 0.36, 0.30, 0.20, 0.18, 0.20,
                             0.07, 0.09, 0.12, 0.75, 0.75, 0.02])
BASE_SEED = 0
SWEEP_ALPHAS = ("0.03", "0.05", "0.07")
SWEEP_RESTARTS = 2
# Bounds on M_e, stated in README.md: far uniform outliers are found.
SWEEP_ME_BOUND = 0.1  # every fit at the true outlier share, alpha=0.05
SYNTH_ME_BOUND = 0.05  # every fit of a synthetic workload


@dataclass
class Plan:
    commands: list  # CLI argv lists, one round
    outputs: list  # files each round rewrites; their bytes must repeat
    reported_f1: Callable  # () -> per-fit average F1 as the program reports it
    check: Callable  # (round-1 fits) -> list of problems


def _unit_change(seed, dims):
    rng = np.random.default_rng(seed)
    return 2.0 ** rng.uniform(-1.0, 1.0, dims), rng.uniform(-10.0, 10.0, dims)


def _yeast_like(seed, path, n_in=2280, n_noise=120, m=103):
    """Yeast-shaped multi-label CSV: 14 overlapping classes, then 5% uniform
    noise rows that carry only class 14.  Returns the truth matrices."""
    rng = np.random.default_rng(BASE_SEED)
    prototypes = 3.0 * rng.standard_normal((YEAST_PREVALENCE.size, m))
    labels = rng.random((n_in, YEAST_PREVALENCE.size)) < YEAST_PREVALENCE
    labels[~labels.any(axis=1), 11] = True
    inliers = (labels @ prototypes) / labels.sum(axis=1, keepdims=True)
    inliers += rng.standard_normal((n_in, m))
    low, high = inliers.min(axis=0), inliers.max(axis=0)
    noise = rng.uniform(low - (high - low), high + (high - low), (n_noise, m))
    scale, offset = _unit_change(seed, m)
    features = np.vstack([inliers, noise]) * scale + offset
    indicators = np.zeros((n_in + n_noise, YEAST_PREVALENCE.size + 1), dtype=int)
    indicators[:n_in, :-1] = labels
    indicators[n_in:, -1] = 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, ind in zip(features, indicators):
            writer.writerow([repr(float(v)) for v in row] + ind.tolist())
    truth_out = np.zeros(n_in + n_noise, dtype=bool)
    truth_out[n_in:] = True
    truth = np.zeros((YEAST_PREVALENCE.size, n_in + n_noise), dtype=bool)
    truth[:, :n_in] = labels.T
    return truth, truth_out


def multilabel_sweep(seed, out):
    data, result = out / "yeast_like.csv", out / "sweep.csv"
    truth, truth_out = _yeast_like(seed, data)
    k, s = truth.shape[0], 4
    command = ["sweep", "--algorithm", "rtkm", "--data", str(data),
               "--labels", "last:15", "--outlier-classes", "14", "--standardize",
               "--k", str(k), "--s", str(s), "--alpha-grid", ",".join(SWEEP_ALPHAS),
               "--restarts", str(SWEEP_RESTARTS), "--max-iters", "50", "--seed", "0",
               "--out", str(result)]

    def read_rows():
        with open(result, newline="") as fh:
            return list(csv.DictReader(fh))

    def reported_f1():
        return [float(row["f1_mean"]) for row in read_rows()]

    def check(fits):
        rows = read_rows()
        if len(fits) != len(SWEEP_ALPHAS) * SWEEP_RESTARTS or len(rows) != len(SWEEP_ALPHAS):
            return [f"sweep: {len(fits)} fits and {len(rows)} rows"]
        problems = []
        for a, (alpha, row) in enumerate(zip(SWEEP_ALPHAS, rows)):
            f1s, mes = [], []
            for r in range(SWEEP_RESTARTS):
                res = fits[a * SWEEP_RESTARTS + r][1]
                label = f"sweep alpha={alpha} restart={r}"
                problems += checks.fit_problems(
                    label, flags=res.outlier_flags, weights=res.inliers,
                    trace=res.objective_trace, sets=res.hard_assignments,
                    n_out=checks.trim_count(alpha, truth.shape[1]), s=s, descent=True)
                pred = checks.indicator(res.hard_assignments, res.memberships.shape[0])
                f1s.append(checks.average_f1(pred, res.outlier_flags, truth, truth_out))
                mes.append(checks.me_score(res.outlier_flags, truth_out))
            if float(row["alpha"]) != float(alpha) or row["restarts"] != str(SWEEP_RESTARTS):
                problems.append(f"sweep row {a}: alpha/restarts {row['alpha']}/{row['restarts']}")
            for name, values in (("f1", f1s), ("me", mes)):
                stats = (min(values), float(np.mean(values)), max(values))
                for stat, ours in zip(("min", "mean", "max"), stats):
                    cell = row[f"{name}_{stat}"]
                    problems += checks.close(f"sweep alpha={alpha} {name}_{stat}", ours,
                                             float(cell) if cell else None)
            f1_cells = [float(row[f"f1_{stat}"] or "nan") for stat in ("min", "mean", "max")]
            if not 0.0 <= f1_cells[0] <= f1_cells[1] <= f1_cells[2] <= 1.0:
                problems.append(f"sweep alpha={alpha}: f1 min/mean/max {f1_cells}")
            if alpha == "0.05" and max(mes) > SWEEP_ME_BOUND:
                problems.append(f"sweep alpha={alpha}: M_e {max(mes)} > {SWEEP_ME_BOUND}")
        return problems

    return Plan([command], [result], reported_f1, check)


def _synth_fit_eval(seed, out, name, *, k, points, outliers, separation, fits):
    """fit then eval on a blob spec, for each (algorithm, alpha, max_iters)."""
    scale = float(_unit_change(seed, 1)[0][0])
    spec = (f"k={k},dim=16,points={points},outliers={outliers},"
            f"spread={0.5 * scale!r},separation={separation * scale!r},seed={BASE_SEED}")
    n = k * points + outliers
    truth = np.zeros((k, n), dtype=bool)
    for j in range(k):
        truth[j, j * points:(j + 1) * points] = True
    truth_out = np.zeros(n, dtype=bool)
    truth_out[k * points:] = True

    commands, outputs, pairs = [], [], []
    for algorithm, alpha, max_iters in fits:
        artifact = out / f"{name}-{algorithm}.json"
        metrics = out / f"{name}-{algorithm}-eval.json"
        commands.append(["fit", "--algorithm", algorithm, "--synth", spec, "--standardize",
                         "--k", str(k), "--alpha", alpha, "--max-iters", str(max_iters),
                         "--seed", "0", "--out", str(artifact)])
        commands.append(["eval", "--result", str(artifact), "--synth", spec,
                         "--standardize", "--out", str(metrics)])
        outputs += [artifact, metrics]
        pairs.append((algorithm, alpha, artifact, metrics))

    def reported_f1():
        return [json.loads(m.read_text())["metrics"]["average_f1"] for *_, m in pairs]

    def check(round_fits):
        if len(round_fits) != len(pairs):
            return [f"{name}: {len(round_fits)} fits, expected {len(pairs)}"]
        problems = []
        for algorithm, alpha, artifact, metrics in pairs:
            res = json.loads(artifact.read_text())["result"]
            reported = json.loads(metrics.read_text())["metrics"]
            label = f"{name} {algorithm}"
            flags = np.zeros(n, dtype=bool)
            flags[res["outlier_indices"]] = True
            problems += checks.fit_problems(
                label, flags=flags, weights=np.array(res["inlier_weights"]),
                trace=res["objective_trace"], sets=res["hard_assignments"],
                n_out=checks.trim_count(alpha, n), s=1, descent=algorithm == "rtkm")
            pred = checks.indicator(res["hard_assignments"], res["k"])
            problems += checks.close(f"{label} average_f1",
                                     checks.average_f1(pred, flags, truth, truth_out),
                                     reported.get("average_f1"))
            me = checks.me_score(flags, truth_out)
            problems += checks.close(f"{label} me_score", me, reported.get("me_score"))
            if me > SYNTH_ME_BOUND:
                problems.append(f"{label}: M_e {me} > {SYNTH_ME_BOUND}")
        return problems

    return Plan(commands, outputs, reported_f1, check)


def wide_k_fit(seed, out):
    return _synth_fit_eval(seed, out, "wide", k=50, points=198, outliers=100,
                           separation=40.0, fits=[("rtkm", "0.01", 8)])


def tall_fit_eval(seed, out):
    return _synth_fit_eval(seed, out, "tall", k=10, points=9500, outliers=5000,
                           separation=10.0, fits=[("rtkm", "0.05", 4), ("trimmed", "0.05", 10)])


PLANS = {"multilabel_sweep": multilabel_sweep, "wide_k_fit": wide_k_fit,
         "tall_fit_eval": tall_fit_eval}
