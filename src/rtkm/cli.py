"""Command-line surface: single fits, multi-seed alpha-sensitivity
sweeps, and metric evaluation of stored results.

Result artifacts are deterministic: the same flags and seed produce
byte-identical files, also under another BLAS thread count at the
shapes the README lists under "BLAS threads".  Wall time is reported on
stderr only so it never perturbs the artifact.
"""

import argparse
import csv
import dataclasses
import gc
import hashlib
import inspect
import json
import sys
import time

import numpy as np

from . import data as datamod
from .metrics import Clustering, MetricError, average_f1, clustering_from_result, me_score
from .solver import ALGORITHMS, INIT_MODES, ConfigError, SolverConfig

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The SolverConfig fields that flags set; w_init keeps its default.
CONFIG_FLAGS = ("k", "s", "alpha", "step_d", "step_e", "max_iters", "tol", "seed", "init")
# --synth keys with their defaults, whose types the values take.
SYNTH_DEFAULTS = {name: param.default for name, param
                  in inspect.signature(datamod.generate_synthetic).parameters.items()}


def _add_dataset_args(parser):
    src = parser.add_argument_group("dataset")
    source = src.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="CSV file of points (rows = records)")
    source.add_argument("--synth", type=parse_synth_spec,
                        help="synthetic spec, e.g. k=3,points=50,outliers=2,seed=0 "
                             f"(keys: {','.join(SYNTH_DEFAULTS)})")
    src.add_argument("--labels", type=parse_labels, help="label spec: col:J or last:K")
    src.add_argument("--outlier-classes", type=parse_class_list,
                     help="comma-separated class indices treated as outliers")
    src.add_argument("--standardize", action="store_true",
                     help="z-score each feature before fitting (eval reads only the labels)")


def _add_config_args(parser, without=()):
    """One flag per CONFIG_FLAGS field not in without, with SolverConfig's
    type and default."""
    fields = {f.name: f for f in dataclasses.fields(SolverConfig)}
    cfg = parser.add_argument_group("solver config")
    cfg.add_argument("--k", type=fields["k"].type, required=True)
    for name in CONFIG_FLAGS[1:-1]:
        if name not in without:
            cfg.add_argument("--" + name.replace("_", "-"), type=fields[name].type,
                             default=fields[name].default)
    cfg.add_argument("--init", choices=INIT_MODES, default=fields["init"].default)


def build_parser():
    parser = argparse.ArgumentParser(prog="rtkm",
                                     description="Robust trimmed k-means toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="run one clustering fit")
    p_fit.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    _add_dataset_args(p_fit)
    _add_config_args(p_fit)
    p_fit.add_argument("--out", required=True, help="result JSON path")

    # no abbreviated flags, so that --alpha is no prefix of --alpha-grid
    p_sweep = sub.add_parser("sweep", help="alpha-sensitivity sweep with restarts",
                             allow_abbrev=False)
    p_sweep.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    _add_dataset_args(p_sweep)
    _add_config_args(p_sweep, without=("alpha",))  # --alpha-grid sets alpha
    p_sweep.add_argument("--alpha-grid", required=True, type=parse_alpha_grid,
                         help="comma-separated alpha values in [0,1)")
    p_sweep.add_argument("--restarts", type=parse_positive_int, default=10)
    p_sweep.add_argument("--out", required=True, help="sweep CSV path")

    p_eval = sub.add_parser("eval", help="score a stored result against ground truth")
    p_eval.add_argument("--result", required=True, help="result JSON from 'fit'")
    _add_dataset_args(p_eval)
    p_eval.add_argument("--out", help="metrics JSON path (default: stdout)")
    return parser


def parse_alpha_grid(text):
    try:
        grid = [float(a) for a in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha grid {text!r}") from None
    for alpha in grid:
        if not 0.0 <= alpha < 1.0:
            raise argparse.ArgumentTypeError(f"alpha {alpha!r} must lie in [0, 1)")
    return grid


def parse_class_list(text):
    try:
        return frozenset(int(c) for c in text.split(",") if c.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad class list {text!r}") from None


def parse_positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def parse_synth_spec(text):
    """generate_synthetic's keyword arguments from 'key=value,...'; unnamed keys
    keep their defaults."""
    out = dict(SYNTH_DEFAULTS)
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in out or not value:
            raise argparse.ArgumentTypeError(f"bad synth spec item {item!r}")
        try:
            out[key] = type(SYNTH_DEFAULTS[key])(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad synth spec value {item!r}") from None
    return out


def parse_labels(text):
    """Check a label spec when it is parsed; the text itself is kept."""
    try:
        datamod.parse_label_spec(text)
    except datamod.DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def load_dataset(args):
    """Resolve the dataset flags into (Dataset, identity dict), with the
    points z-scored under --standardize."""
    if args.synth is not None:
        dataset = datamod.generate_synthetic(**args.synth)
        identity = {"synth": args.synth}
    else:
        dataset, identity = _load_csv_dataset(args)
    if args.standardize:
        dataset = datamod.standardize(dataset)
    return dataset, identity


def _load_csv_dataset(args):
    outlier_classes = args.outlier_classes or frozenset()
    digest = hashlib.sha256()  # of the bytes parsed: the file is read once
    dataset = datamod.to_dataset(datamod.load_csv(args.data, args.labels, digest=digest),
                                 outlier_classes)
    return dataset, {"path": args.data, "sha256": digest.hexdigest(), "labels": args.labels,
                     "outlier_classes": sorted(outlier_classes)}


def load_truth(args):
    """eval's view of the dataset flags: (truth memberships, truth outlier
    flags, identity dict).  eval reads no point, so a --synth spec draws
    none and --standardize changes nothing."""
    if args.synth is not None:
        return (*datamod.synthetic_truth(**args.synth), {"synth": args.synth})
    dataset, identity = _load_csv_dataset(args)
    return dataset.truth_memberships, dataset.truth_outliers, identity


def make_config(args, **overrides):
    """The SolverConfig the flags describe, with overrides (such as a
    sweep's alpha and seed) in place of their flags."""
    flags = {name: getattr(args, name) for name in CONFIG_FLAGS if name not in overrides}
    return SolverConfig(**flags, **overrides)


def has_outlier_truth(flags):
    """Whether the truth outlier flags mark some but not all points, the
    case in which M_e is defined."""
    return 0 < flags.sum() < flags.size


def truth_clustering(memberships, outliers):
    """The truth clusters are the labels in use; an empty class is none.
    A truth with no cluster in use and no outlier scores nothing."""
    clusters = memberships[memberships.any(axis=1)]
    if not (len(clusters) or outliers.any()):
        raise datamod.DataError("dataset carries no ground truth: no labeled cluster "
                                "or outlier (see --labels)")
    return Clustering(clusters, outliers)


def _write_json(obj, path):
    # an artifact is a fresh tree of plain values: no cycle to look for
    text = json.dumps(obj, sort_keys=True, check_circular=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_fit(args):
    dataset, identity = load_dataset(args)
    config = make_config(args)
    started = time.perf_counter()
    result = ALGORITHMS[args.algorithm](dataset, config)
    elapsed = time.perf_counter() - started
    artifact = {
        "manifest": {
            "command": "fit",
            "algorithm": args.algorithm,
            "config": dataclasses.asdict(config),
            "dataset": identity,
            "standardize": bool(args.standardize),
        },
        "result": {
            "objective": result.objective_trace[-1],
            "objective_trace": list(result.objective_trace),
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "centers": result.centers.tolist(),
            "hard_assignments": result.label_lists(),
            "outlier_indices": np.flatnonzero(result.outlier_flags).tolist(),
            "inlier_weights": result.inliers.tolist(),
            "n_points": dataset.n_points,
            "k": config.k,
        },
    }
    _write_json(artifact, args.out)
    print(f"fit: {args.algorithm} converged={result.converged} "
          f"iters={result.iterations} objective={result.objective_trace[-1]:.6g} "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return 0


def _stats(values):
    if not values:
        return ["", "", ""]
    return [repr(min(values)), repr(float(np.mean(values))), repr(max(values))]


def cmd_sweep(args):
    dataset, identity = load_dataset(args)
    truth = truth_clustering(dataset.truth_memberships, dataset.truth_outliers)
    score_outliers = has_outlier_truth(dataset.truth_outliers)

    rows = []
    fatal = failure = None
    for alpha in args.alpha_grid:
        f1s, mes = [], []
        for r in range(args.restarts):
            config = make_config(args, alpha=alpha, seed=args.seed + r)
            try:
                result = ALGORITHMS[args.algorithm](dataset, config)
                f1s.append(average_f1(Clustering(result.assignments, result.outlier_flags), truth))
                if score_outliers:
                    mes.append(me_score(result.outlier_flags, dataset.truth_outliers))
            except (ConfigError, MetricError, FloatingPointError) as exc:
                print(f"warning: alpha={alpha} seed={config.seed} failed: {exc}",
                      file=sys.stderr)
                failure = exc
        if not f1s:  # every restart at this alpha failed
            fatal = failure
        rows.append([repr(alpha), str(args.restarts)] + _stats(f1s) + _stats(mes))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "restarts", "f1_min", "f1_mean", "f1_max",
                         "me_min", "me_mean", "me_max"])
        writer.writerows(rows)
    print(f"sweep: wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    if fatal is not None:
        raise fatal
    return 0


def read_result(path, n_points):
    """Load a fit artifact's result and check it against a dataset of
    n_points points.  Returns (k, hard_assignments, outlier_flags)."""
    # The decoded document holds no reference cycle, so a collection while
    # its N label lists pile up could free nothing; each would rescan them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            res = json.load(fh)["result"]
        k, n, hard, outliers = (res[key] for key in
                                ("k", "n_points", "hard_assignments", "outlier_indices"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise datamod.DataError(f"{path}: not a JSON document: {exc}") from None
    except KeyError as exc:
        raise datamod.DataError(f"{path}: fit artifact has no field {exc}") from None
    except TypeError:
        raise datamod.DataError(f"{path}: not a fit artifact") from None
    finally:
        if collecting:
            gc.enable()
    if type(n) is not int:
        raise datamod.DataError(f"{path}: n_points must be an integer, not {n!r}")
    if n != n_points:
        raise datamod.DataError(f"result has {n} points but dataset has {n_points}")
    if type(k) is not int or not 1 <= k <= n_points:  # fits need k <= N
        raise datamod.DataError(f"{path}: k must be an integer in [1, {n_points}], not {k!r}")
    if not isinstance(hard, list) or len(hard) != n_points:
        raise datamod.DataError(f"{path}: hard_assignments must list {n_points} label lists")
    bad = datamod.DataError(f"{path}: outlier_indices must be integers in [0, {n_points})")
    try:
        index = np.asarray(outliers)  # true and false among integers give integers
    except ValueError:  # ragged nesting
        raise bad from None
    if index.ndim != 1 or index.size and (index.dtype.kind not in "iu"
                                          or bool in set(map(type, outliers))
                                          or index.min() < 0 or index.max() >= n_points):
        raise bad
    flags = np.zeros(n_points, dtype=bool)
    flags[index.astype(np.intp)] = True
    return k, hard, flags


def cmd_eval(args):
    memberships, truth_outliers, identity = load_truth(args)
    truth = truth_clustering(memberships, truth_outliers)
    k, hard, flags = read_result(args.result, truth_outliers.size)
    try:
        predicted = clustering_from_result(hard, k, flags)
    except MetricError as exc:
        raise datamod.DataError(f"{args.result}: {exc}") from None
    metrics = {"average_f1": average_f1(predicted, truth)}
    if has_outlier_truth(truth_outliers):
        metrics["me_score"] = me_score(flags, truth_outliers)
    _write_json({"dataset": identity, "metrics": metrics}, args.out)
    return 0


COMMANDS = {"fit": cmd_fit, "sweep": cmd_sweep, "eval": cmd_eval}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.synth is not None and (args.labels is not None
                                   or args.outlier_classes is not None):
        parser.error("--labels and --outlier-classes describe a --data file, "
                     "not --synth")
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (datamod.DataError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
