"""Benchmark entry point for rtkm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each workload runs in a fresh
Python process (perfbench/worker.py) that imports rtkm from ./src and calls
rtkm.cli.main(argv) on inputs made from --seed.  With --trace 0 the last
line of stdout is the end-to-end result; with --trace 1 it holds the
per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
DEADLINE_S = 175.0
# Fresh processes that only import rtkm; with the workload's own process
# they give five import timings, of which setup_s is the median.
IMPORT_PROBES = 4
# One BLAS thread: the load comes from a single process, CPU time is not
# doubled by idle-spinning threads, and reductions keep a fixed order.
# glibc malloc keeps freed memory in the heap, so large temporaries reuse
# pages already mapped instead of having the kernel zero fresh ones on every
# allocation; that zeroing varied between 1.3 and 5.9 s per wide_k_fit round
# with the memory state of the shared host.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**40)}


def _run_worker(args, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + args,
        cwd=ROOT, env=dict(os.environ, **WORKER_ENV),
        stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        imports = []
        if not args.trace:
            imports = [_run_worker(["--probe"], started)["import_s"]
                       for _ in range(IMPORT_PROBES)]
        result = _run_worker(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", repr(args.seconds),
                              "--trace", str(args.trace)], started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    import_s = result.pop("import_s")
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(imports + [import_s]), "unit": "s"}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
