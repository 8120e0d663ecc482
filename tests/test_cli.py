import csv
import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtkm import cli
from rtkm import data as datamod
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


def test_eval_standardize_skips_the_points(tmp_path, monkeypatch):
    """eval reads only the labels, so --standardize parses but z-scores nothing."""
    res = tmp_path / "res.json"
    assert run(["fit", "--algorithm", "trimmed", "--synth", SYNTH, "--standardize",
                "--k", "3", "--alpha", "0.013", "--out", str(res)]) == 0
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    assert run(["eval", "--result", str(res), "--synth", SYNTH, "--out", str(plain)]) == 0

    def standardize(dataset):
        raise AssertionError("eval standardized the points")

    monkeypatch.setattr(datamod, "standardize", standardize)
    assert run(["eval", "--result", str(res), "--synth", SYNTH, "--standardize",
                "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


def test_eval_synth_draws_no_points(tmp_path, monkeypatch):
    """eval reads only the truth of a --synth spec, so it draws no points."""
    res = tmp_path / "res.json"
    assert run(["fit", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
                "--alpha", "0.013", "--out", str(res)]) == 0
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    assert run(["eval", "--result", str(res), "--synth", SYNTH, "--out", str(plain)]) == 0

    def generate_synthetic(**spec):
        raise AssertionError("eval drew the points")

    monkeypatch.setattr(datamod, "generate_synthetic", generate_synthetic)
    assert run(["eval", "--result", str(res), "--synth", SYNTH, "--out", str(patched)]) == 0
    assert patched.read_bytes() == plain.read_bytes()


def test_traced_benchmark_targets_resolve():
    """Every function the traced benchmark run wraps by name still exists."""
    import rtkm.cli  # noqa: F401  (imports every module the run patches)

    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for layer, (module, names) in layers.LAYER_TARGETS.items():
        for name in names:
            assert callable(getattr(sys.modules[module], name, None)), (layer, module, name)


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter that imports rtkm from this
    checkout's src, and return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    loaded = run_fresh("import sys, rtkm.cli; print(sorted(m for m in sys.modules "
                       "if m == 'scipy' or m.startswith('scipy.')))")
    assert loaded.strip() == "[]"


def cli_commands(out_dir):
    """fit, eval and sweep on a small --synth spec, writing into out_dir."""
    fit_out = os.path.join(out_dir, "fit.json")
    return [
        ["fit", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
         "--alpha", "0.013", "--seed", "3", "--out", fit_out],
        ["eval", "--result", fit_out, "--synth", SYNTH,
         "--out", os.path.join(out_dir, "eval.json")],
        ["sweep", "--algorithm", "rtkm", "--synth", SYNTH, "--k", "3",
         "--alpha-grid", "0,0.013", "--restarts", "2", "--seed", "1",
         "--out", os.path.join(out_dir, "sweep.csv")],
    ]


def test_cli_runs_without_scipy(tmp_path):
    """With every import of scipy failing, fit, eval and sweep write the
    same bytes as a normal run."""
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None  # import scipy and scipy.* now raise\n"
        "from rtkm.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n",
        json.dumps(cli_commands(str(blocked))))
    for argv in cli_commands(str(normal)):
        assert run(argv) == 0
    for name in ("fit.json", "eval.json", "sweep.csv"):
        assert (blocked / name).read_bytes() == (normal / name).read_bytes(), name


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


@pytest.mark.parametrize("classes", [("1,0,0", "0,0,1"), ("1,0,0", "0,1,0")])
def test_eval_ignores_empty_class_wherever_it_sits(tmp_path, classes):
    """An indicator class no record carries is no truth cluster, whether it
    sits before or after the classes in use."""
    first, second = classes
    path = tmp_path / "data.csv"
    path.write_text(f"0,0,{first}\n0.1,0,{first}\n10,10,{second}\n10.1,10,{second}\n")
    res, metrics_out = tmp_path / "res.json", tmp_path / "m.json"
    assert run(["fit", "--algorithm", "kmeans", "--data", str(path), "--labels", "last:3",
                "--k", "2", "--seed", "0", "--out", str(res)]) == 0
    assert run(["eval", "--result", str(res), "--data", str(path), "--labels", "last:3",
                "--out", str(metrics_out)]) == 0
    assert json.loads(metrics_out.read_text())["metrics"]["average_f1"] == 1.0


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


# --- exit codes ---------------------------------------------------------

SMALL = "k=3,points=5,outliers=2"  # N = 17


def exit_code(argv):
    """main's return code, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


def _eval_of(edit, synth=SMALL):
    """argv factory: eval --synth synth against a fit artifact of SMALL
    changed by edit, which maps the artifact's text to the text or bytes
    that eval reads."""
    def argv(tmp_path):
        path = tmp_path / "res.json"
        assert main(["fit", "--algorithm", "rtkm", "--synth", SMALL, "--k", "3",
                     "--alpha", "0.1", "--out", str(path)]) == 0
        data = edit(path.read_text())
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        return ["eval", "--result", str(path), "--synth", synth]
    return argv


def _rtkm_fit(synth, *flags):
    """argv factory: a one-cluster rtkm fit of --synth synth with flags."""
    return lambda t: ["fit", "--algorithm", "rtkm", "--synth", synth, "--k", "1", *flags,
                      "--out", str(t / "r.json")]


def _edit_result(change):
    def edit(text):
        artifact = json.loads(text)
        change(artifact["result"])
        return json.dumps(artifact)
    return edit


EXIT_CASES = {
    "fit-ok": (0, lambda t: ["fit", "--algorithm", "rtkm", "--synth", SMALL, "--k", "3",
                             "--out", str(t / "r.json")]),
    "eval-ok": (0, _eval_of(lambda text: text)),
    "k-exceeds-n": (2, lambda t: ["fit", "--algorithm", "kmeans", "--synth", SMALL,
                                  "--k", "20", "--out", str(t / "r.json")]),
    "restarts-zero": (2, lambda t: ["sweep", "--algorithm", "kmeans", "--synth", SMALL,
                                    "--k", "3", "--alpha-grid", "0", "--restarts", "0",
                                    "--out", str(t / "s.csv")]),
    "sweep-alpha": (2, lambda t: ["sweep", "--algorithm", "rtkm", "--synth", SMALL,
                                  "--k", "3", "--alpha", "0.5", "--alpha-grid", "0.1",
                                  "--restarts", "1", "--out", str(t / "s.csv")]),
    "labels-with-synth": (2, lambda t: ["fit", "--algorithm", "kmeans", "--synth", SMALL,
                                        "--labels", "col:-1", "--k", "3",
                                        "--out", str(t / "r.json")]),
    "outlier-classes-with-synth": (2, lambda t: ["eval", "--result", str(t / "r.json"),
                                                 "--synth", SMALL,
                                                 "--outlier-classes", "1"]),
    "no-dataset": (2, lambda t: ["fit", "--algorithm", "kmeans", "--k", "3",
                                 "--out", str(t / "r.json")]),
    "data-and-synth": (2, lambda t: ["fit", "--algorithm", "kmeans",
                                     "--data", _csv(t, "0,0\n1,1\n2,0\n"), "--synth", SMALL,
                                     "--k", "3", "--out", str(t / "r.json")]),
    "bad-label-spec": (2, lambda t: ["fit", "--algorithm", "kmeans",
                                     "--data", _csv(t, "0,0\n1,1\n2,0\n"), "--labels", "bogus",
                                     "--k", "1", "--out", str(t / "r.json")]),
    "bad-synth-key": (2, lambda t: ["fit", "--algorithm", "kmeans", "--synth", "k=3,bogus=1",
                                    "--k", "3", "--out", str(t / "r.json")]),
    "bad-synth-value": (2, lambda t: ["fit", "--algorithm", "kmeans", "--synth", "k=3,points=x",
                                      "--k", "3", "--out", str(t / "r.json")]),
    "bad-outlier-classes": (2, lambda t: ["fit", "--algorithm", "kmeans",
                                          "--data", _csv(t, "0,0\n1,1\n"),
                                          "--labels", "col:-1", "--outlier-classes", "a",
                                          "--k", "1", "--out", str(t / "r.json")]),
    "seed-negative": (2, _rtkm_fit(SMALL, "--seed", "-1")),
    "step-d-nan": (2, _rtkm_fit(SMALL, "--step-d", "nan")),
    "step-e-nan": (2, _rtkm_fit(SMALL, "--step-e", "nan", "--alpha", "0.1")),
    "step-d-inf": (2, _rtkm_fit(SMALL, "--step-d", "inf")),
    "tol-nan": (2, _rtkm_fit(SMALL, "--tol", "nan")),
    "tol-negative": (2, _rtkm_fit(SMALL, "--tol", "-1")),
    "synth-no-points": (3, _rtkm_fit("k=0,outliers=0")),
    "synth-no-clusters": (3, _rtkm_fit("k=0")),
    "synth-dim-zero": (3, _rtkm_fit("dim=0")),
    "synth-k-negative": (3, _rtkm_fit("k=-1")),
    "synth-seed-negative": (3, _rtkm_fit("seed=-1")),
    "synth-spread-nan": (3, _rtkm_fit("spread=nan")),
    "synth-spread-overflow": (3, _rtkm_fit("spread=1e308")),
    "synth-box-overflow": (3, _rtkm_fit("separation=1e308")),
    "missing-file": (3, lambda t: ["fit", "--algorithm", "kmeans", "--data",
                                   str(t / "nope.csv"), "--k", "2",
                                   "--out", str(t / "r.json")]),
    "nan-in-csv": (3, lambda t: ["fit", "--algorithm", "kmeans",
                                 "--data", _csv(t, "nan,0\n1,1\n2,0\n"),
                                 "--labels", "col:-1", "--k", "1",
                                 "--out", str(t / "r.json")]),
    "result-corrupt-json": (3, _eval_of(lambda text: '{"result": ')),
    "result-not-utf8": (3, _eval_of(lambda text: b'{"result": "\xff"}')),
    "result-not-an-object": (3, _eval_of(lambda text: "[1, 2]")),
    "result-missing-k": (3, _eval_of(_edit_result(lambda r: r.pop("k")))),
    "result-k-exceeds-n": (3, _eval_of(_edit_result(lambda r: r.update(k=10**12)))),
    "result-label-ge-k": (3, _eval_of(_edit_result(
        lambda r: r["hard_assignments"].__setitem__(0, [3])))),
    "result-label-not-int": (3, _eval_of(_edit_result(
        lambda r: r["hard_assignments"].__setitem__(0, ["a"])))),
    "result-too-few-points": (3, _eval_of(_edit_result(
        lambda r: r["hard_assignments"].pop()))),
    "result-label-float": (3, _eval_of(_edit_result(
        lambda r: r["hard_assignments"].__setitem__(0, [1.7])))),
    "result-label-bool": (3, _eval_of(_edit_result(
        lambda r: r["hard_assignments"].__setitem__(0, [True])))),
    "result-n-points-float": (3, _eval_of(_edit_result(lambda r: r.update(n_points=17.0)))),
    "result-outlier-negative": (3, _eval_of(_edit_result(
        lambda r: r["outlier_indices"].__setitem__(0, -1)))),
    "result-outlier-bool": (3, _eval_of(_edit_result(
        lambda r: r["outlier_indices"].__setitem__(0, True)))),
    "result-outlier-ge-n": (3, _eval_of(_edit_result(
        lambda r: r["outlier_indices"].__setitem__(0, 17)))),
    # eval takes the truth of a --synth spec, which points that overflow in
    # the draw do not change
    "eval-synth-spread-overflow": (0, _eval_of(lambda text: text, SMALL + ",spread=1e308")),
    # --standardize of a feature whose standard deviation, or mean, overflows
    "standardize-sd-overflow": (4, lambda t: [
        "fit", "--algorithm", "kmeans", "--k", "2", "--standardize", "--out", str(t / "r.json"),
        "--data", _csv(t, "1e308,0\n-1e308,1\n1e308,2\n-1e308,3\n")]),
    "standardize-mean-overflow": (4, lambda t: [
        "fit", "--algorithm", "kmeans", "--k", "2", "--standardize", "--out", str(t / "r.json"),
        "--data", _csv(t, "1e308,0\n1.5e308,1\n1e308,2\n1.7e308,3\n")]),
    "overflow": (4, lambda t: ["fit", "--algorithm", "rtkm",
                               "--data", _csv(t, "1e200,0\n2,1\n3,0\n-1e200,1\n5,0\n"),
                               "--labels", "col:-1", "--k", "2", "--alpha", "0.2",
                               "--out", str(t / "r.json")]),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(tmp_path, capsys, case):
    code, argv = EXIT_CASES[case]
    assert exit_code(argv(tmp_path)) == code
    last = capsys.readouterr().err.splitlines()[-1:]
    if code == 3:
        assert last[0].startswith("error: ")
    elif code == 2:
        assert "error: " in last[0]


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("case", ["eval-ok"] + sorted(c for c in EXIT_CASES
                                                    if c.startswith("result-")))
def test_eval_decodes_with_the_collector_paused(tmp_path, monkeypatch, case, collecting):
    """read_result decodes the artifact with the garbage collector off and
    leaves it on or off as it found it, whether eval succeeds or not."""
    code, argv = EXIT_CASES[case]
    argv = argv(tmp_path)
    states, load = [], json.load

    def recording_load(fh):
        states.append(gc.isenabled())
        return load(fh)

    monkeypatch.setattr(cli.json, "load", recording_load)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert exit_code(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert states == [False]


# --- artifacts ----------------------------------------------------------

PINNED_CLI = json.loads((Path(__file__).parent / "pinned_cli.json").read_text())
PINNED_SYNTH = "k=3,points=10,outliers=2,spread=0.6,separation=10,seed=5"


@pytest.mark.parametrize("case", sorted(PINNED_CLI))
def test_fit_and_eval_write_one_line_pinned_json(tmp_path, case):
    """fit and eval write one line of JSON whose value equals the one
    recorded in pinned_cli.json (written with indent=2 before artifacts
    became one-line JSON)."""
    pinned = PINNED_CLI[case]
    artifact, metrics = tmp_path / "res.json", tmp_path / "eval.json"
    assert main(["fit"] + pinned["fit"] + ["--out", str(artifact)]) == 0
    standardize = ["--standardize"] if "--standardize" in pinned["fit"] else []
    assert main(["eval", "--result", str(artifact), "--synth", PINNED_SYNTH]
                + standardize + ["--out", str(metrics)]) == 0
    for path, want in ((artifact, pinned["artifact"]), (metrics, pinned["metrics"])):
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == want
