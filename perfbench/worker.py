"""One run of one workload in a fresh Python process (started by run.py).

    worker.py --probe
    worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports rtkm from ./src of the checkout and times the import.  Untraced,
it repeats whole rounds of the workload's CLI commands until the next round
would pass --seconds, and reports end-to-end metrics.  Traced, it runs two
rounds untraced, one with spans and one with spans and tracemalloc, and
reports per-layer metrics; the spans go to perfbench/out/<workload>/.
Prints one JSON object as the last line of stdout.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent


def import_rtkm():
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rtkm.cli  # numpy and scipy come with it
    elapsed = time.perf_counter() - started
    if not Path(rtkm.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rtkm was imported from {rtkm.cli.__file__}, not {ROOT / 'src'}")
    return elapsed


class Round:
    """Timings and outcomes of one pass over a workload's commands."""

    def __init__(self, plan, rec, cli_main):
        rec.fits = []
        wall, cpu = time.perf_counter(), time.process_time()
        for argv in plan.commands:
            rec.attempted += 1
            try:
                code = rec.call("cli", cli_main, (argv,))
            except Exception:
                traceback.print_exc()
                code = None
            if code != 0:
                rec.failed += 1
                print(f"command failed ({code}): rtkm {' '.join(argv)}", file=sys.stderr)
        self.wall_s = time.perf_counter() - wall
        self.cpu_s = time.process_time() - cpu
        self.fits = rec.fits
        results = [r for _, r in self.fits]
        self.iterations = sum(r.iterations for r in results)
        fit_s = sum(s for s, _ in self.fits)
        self.fit_s = fit_s / max(len(results), 1)
        self.iter_ms = 1e3 * fit_s / max(self.iterations, 1)
        self.at_max_iters = sum(r.stop_reason == "max_iters" for r in results)
        self.avg_f1 = statistics.fmean(plan.reported_f1())
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in plan.outputs]
        self.signature = ([r.iterations for r in results],
                          [r.objective_trace for r in results], digests)


def rounds_differ(rounds):
    return [f"round {i + 1} differs from round 1 in iterations, objective or outputs"
            for i, r in enumerate(rounds[1:], 1) if r.signature != rounds[0].signature]


def timed_run(plan, rec, cli_main, seconds):
    rounds, problems = [], []
    while True:
        rnd = Round(plan, rec, cli_main)
        if not rounds:
            problems += plan.check(rnd.fits)
        rnd.fits = None  # release the fit results before the next round
        rounds.append(rnd)
        walls = [r.wall_s for r in rounds]
        if sum(walls) + statistics.median(walls) > seconds:
            break
    problems += rounds_differ(rounds)
    med = statistics.median
    metrics = {
        "wall_s": (med(walls), "s"),
        "cpu_s": (med(r.cpu_s for r in rounds), "s"),
        "fit_s_p50": (med(r.fit_s for r in rounds), "s"),
        "iter_ms_p50": (med(r.iter_ms for r in rounds), "ms"),
        "iterations": (rounds[0].iterations, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "avg_f1": (rounds[0].avg_f1, "F1"),
    }
    print(f"{len(rounds)} rounds, walls {[round(w, 3) for w in walls]}", file=sys.stderr)
    return metrics, problems


def traced_run(plan, rec, cli_main, out_dir, seed):
    # The first round grows the heap, so the overhead baseline is the second.
    warm = Round(plan, rec, cli_main)
    problems = plan.check(warm.fits)
    warm.fits = None
    base = Round(plan, rec, cli_main)
    base.fits = None
    rec.install_layers()
    rec.tracing = True
    rec.reset_trace()
    traced = Round(plan, rec, cli_main)
    spans = rec.spans
    calls, self_s, gflop = dict(rec.calls), dict(rec.self_s), rec.gflop
    rec.reset_trace()
    rec.trace_alloc = True
    tracemalloc.start()
    try:
        alloc = Round(plan, rec, cli_main)
    finally:
        tracemalloc.stop()
    problems += rounds_differ([warm, base, traced, alloc])

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.peak_alloc_mb"] = (rec.peak_bytes.get(layer, 0) / 2**20, "MB")
    metrics["solver.squared_distances.gflop"] = (gflop, "GFLOP")
    metrics["solver.fits_at_max_iters"] = (traced.at_max_iters, "count")
    metrics["trace.overhead_s"] = (traced.wall_s - base.wall_s, "s")
    metrics["trace.tracemalloc_overhead_s"] = (alloc.wall_s - base.wall_s, "s")
    spans_file = out_dir / "spans.json"
    spans_file.write_text(json.dumps({"seed": seed, "columns": ["name", "start_s", "end_s",
                                                                "parent"], "spans": spans}))
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="only time the import")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_rtkm()
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    import workloads  # imports numpy, so only after the timed import

    if args.workload not in workloads.PLANS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.PLANS)}")
    out_dir = ROOT / "perfbench" / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    plan = workloads.PLANS[args.workload](args.seed, out_dir)
    rec = layers.Recorder()
    cli_main = sys.modules["rtkm.cli"].main
    if args.trace:
        metrics, problems = traced_run(plan, rec, cli_main, out_dir, args.seed)
    else:
        metrics, problems = timed_run(plan, rec, cli_main, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "import_s": import_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
