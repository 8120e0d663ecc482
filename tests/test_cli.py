import csv
import json

import numpy as np
import pytest

from rtkm.cli import main, parse_synth_spec

SYNTH = "k=3,points=50,outliers=2,spread=0.6,separation=10,seed=42"


def run(args):
    return main(args)


def test_parse_synth_spec():
    spec = parse_synth_spec("k=4,points=10,seed=3")
    assert spec["k"] == 4 and spec["points"] == 10 and spec["seed"] == 3
    assert spec["outliers"] == 2  # default
    with pytest.raises(Exception):
        parse_synth_spec("bogus=1")


def test_fit_writes_artifact(tmp_path):
    out = tmp_path / "res.json"
    code = run(["fit", "--algorithm", "rtkm", "--synth", SYNTH,
                "--k", "3", "--alpha", str(2 / 152), "--seed", "0",
                "--out", str(out)])
    assert code == 0
    artifact = json.loads(out.read_text())
    assert artifact["manifest"]["algorithm"] == "rtkm"
    assert len(artifact["result"]["outlier_indices"]) == 2
    assert artifact["result"]["n_points"] == 152
    trace = artifact["result"]["objective_trace"]
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_fit_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fit", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
            "--alpha", "0.013", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_k_exceeds_n_is_usage_error(tmp_path):
    out = tmp_path / "res.json"
    code = run(["fit", "--algorithm", "kmeans", "--synth", "k=2,points=2,outliers=0",
                "--k", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_fit_missing_file_is_data_error(tmp_path):
    code = run(["fit", "--algorithm", "kmeans", "--data", str(tmp_path / "nope.csv"),
                "--k", "2", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
                "--alpha-grid", "0,0.013,0.05", "--restarts", "3",
                "--seed", "0", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.013", "0.05"]
    for r in rows:
        assert r["restarts"] == "3"
        f1 = [float(r["f1_min"]), float(r["f1_mean"]), float(r["f1_max"])]
        me = [float(r["me_min"]), float(r["me_mean"]), float(r["me_max"])]
        assert f1[0] <= f1[1] <= f1[2]
        assert me[0] <= me[1] <= me[2]
    # alpha = 0 predicts no outliers: M_e = 1 exactly
    assert float(rows[0]["me_min"]) == 1.0 and float(rows[0]["me_max"]) == 1.0


def test_sweep_single_cell_degenerate_stats(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--algorithm", "kmeans", "--synth", SYNTH, "--k", "3",
                "--alpha-grid", "0", "--restarts", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert row["f1_min"] == row["f1_mean"] == row["f1_max"]


def test_sweep_f1_peaks_near_true_alpha(tmp_path):
    out = tmp_path / "sweep.csv"
    true_alpha = 2 / 152
    assert run(["sweep", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
                "--alpha-grid", f"0,{true_alpha},0.3", "--restarts", "5",
                "--seed", "0", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    means = [float(r["f1_mean"]) for r in rows]
    assert means[1] > means[0] and means[1] > means[2]


def test_eval_end_to_end(tmp_path):
    res = tmp_path / "res.json"
    assert run(["fit", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
                "--alpha", str(2 / 152), "--seed", "4", "--out", str(res)]) == 0
    metrics_out = tmp_path / "metrics.json"
    assert run(["eval", "--result", str(res), "--synth", SYNTH,
                "--out", str(metrics_out)]) == 0
    metrics = json.loads(metrics_out.read_text())["metrics"]
    assert metrics["average_f1"] == 1.0
    assert metrics["me_score"] == 0.0


def test_eval_mismatched_n(tmp_path):
    res = tmp_path / "res.json"
    assert run(["fit", "--algorithm", "kmeans", "--synth", SYNTH, "--k", "3",
                "--out", str(res)]) == 0
    code = run(["eval", "--result", str(res),
                "--synth", "k=3,points=10,outliers=0"])
    assert code == 3


def test_csv_pipeline(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    lines = []
    for j in range(2):
        for _ in range(20):
            x = rng.normal(j * 20, 1.0, 2)
            lines.append(f"{float(x[0])!r},{float(x[1])!r},{j}\n")
    path.write_text("".join(lines))
    res = tmp_path / "res.json"
    assert run(["fit", "--algorithm", "kmeans", "--data", str(path),
                "--labels", "col:-1", "--k", "2", "--seed", "1",
                "--out", str(res)]) == 0
    artifact = json.loads(res.read_text())
    assert artifact["manifest"]["dataset"]["path"] == str(path)
    assert len(artifact["manifest"]["dataset"]["sha256"]) == 64
    metrics_out = tmp_path / "m.json"
    assert run(["eval", "--result", str(res), "--data", str(path),
                "--labels", "col:-1", "--out", str(metrics_out)]) == 0
    assert json.loads(metrics_out.read_text())["metrics"]["average_f1"] == 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["kmeans", "rtkm", "trimmed"])
@pytest.mark.parametrize("init", ["random-points", "kmeans++"])
def test_fit_overflowing_distances_is_numeric_error(tmp_path, algorithm, init):
    data = tmp_path / "big.csv"
    data.write_text("1e200,0\n2,1\n3,0\n-1e200,1\n5,0\n")
    out = tmp_path / "r.json"
    code = run(["fit", "--algorithm", algorithm, "--data", str(data),
                "--labels", "col:-1", "--k", "2", "--alpha", "0.2",
                "--init", init, "--out", str(out)])
    assert code == 4
    assert not out.exists()


def test_sweep_alpha_with_every_restart_failing_exits_with_its_code(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["sweep", "--algorithm", "trimmed", "--synth", "k=3,points=5,outliers=2",
                "--k", "3", "--alpha-grid", "0,0.9", "--restarts", "2",
                "--out", str(out)])
    assert code == 2  # ConfigError: alpha=0.9 leaves fewer than k points
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.9"]
    assert rows[0]["f1_mean"] != "" and rows[1]["f1_mean"] == ""


@pytest.mark.parametrize("grid", ["0,abc", "0,1", "-0.1", "nan"])
def test_sweep_bad_alpha_grid_is_usage_error(tmp_path, grid):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--algorithm", "kmeans", "--synth", SYNTH, "--k", "3",
             "--alpha-grid", grid, "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "s.csv").exists()
