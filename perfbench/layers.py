"""Counting and tracing from outside the program.

A Recorder replaces, by name, the functions the CLI reaches through module
attributes: the ALGORITHMS entries always (to count fits and time them),
and the other layer functions only while a traced round runs.  Spans are
kept in memory and written out by the caller after the run.
"""

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# Layer name -> (module, function names) wrapped in a traced run.
LAYER_TARGETS = {
    "data.load": ("rtkm.data", ("load_csv", "to_dataset", "generate_synthetic",
                                "standardize")),
    "solver.squared_distances": ("rtkm.solver", ("squared_distances",)),
    "geometry.project_columns": ("rtkm.solver", ("project_columns",)),
    "geometry.project_mass": ("rtkm.solver", ("project_mass",)),
    "solver.hard_assign": ("rtkm.solver", ("hard_assign",)),
    "metrics.clustering_from_result": ("rtkm.cli", ("clustering_from_result",)),
    "metrics.average_f1": ("rtkm.cli", ("average_f1",)),
    "metrics.me_score": ("rtkm.cli", ("me_score",)),
}
LAYERS = ("cli", "solver.fit") + tuple(LAYER_TARGETS)


class _Frame:
    __slots__ = ("index", "children_s", "child_peak")

    def __init__(self, index):
        self.index = index
        self.children_s = 0.0
        self.child_peak = 0


class Recorder:
    """Counts operations and fits; records spans while tracing is on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fits = []  # (seconds, FitResult) of the current round
        self.tracing = False
        self.trace_alloc = False
        self.reset_trace()
        algorithms = sys.modules["rtkm.solver"].ALGORITHMS
        for name, fn in list(algorithms.items()):
            algorithms[name] = self._wrap_fit(fn)

    def reset_trace(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.peak_bytes = defaultdict(int)
        self.gflop = 0.0
        self.origin = time.perf_counter()

    def install_layers(self):
        for layer, (module, names) in LAYER_TARGETS.items():
            mod = sys.modules[module]
            for fn_name in names:
                setattr(mod, fn_name, self._wrap_layer(layer, getattr(mod, fn_name)))

    def _wrap_fit(self, fn):
        @functools.wraps(fn)
        def fit(*args, **kwargs):
            self.attempted += 1
            started = time.perf_counter()
            try:
                result = self.call("solver.fit", fn, args, kwargs)
            except Exception:
                self.failed += 1
                raise
            self.fits.append((time.perf_counter() - started, result))
            return result
        return fit

    def _wrap_layer(self, layer, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if layer == "solver.squared_distances":
                (m, n), k = args[0].shape, args[1].shape[1]
                self.gflop += 3.0 * m * k * n / 1e9
            return self.call(layer, fn, args, kwargs)
        return wrapped

    def call(self, layer, fn, args, kwargs=None):
        """Call fn, inside a span named layer while tracing is on."""
        if not self.tracing:
            return fn(*args, **(kwargs or {}))
        base_alloc = 0
        if self.trace_alloc:
            base_alloc, peak_before = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.stack[-1]
                parent.child_peak = max(parent.child_peak, peak_before)
            tracemalloc.reset_peak()
        parent_index = self.stack[-1].index if self.stack else -1
        frame = _Frame(len(self.spans))
        start = time.perf_counter()
        self.spans.append([layer, start - self.origin, None, parent_index])
        self.stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[frame.index][2] = end - self.origin
            duration = end - start
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame.children_s
            if self.stack:
                self.stack[-1].children_s += duration
            if self.trace_alloc:
                peak = max(tracemalloc.get_traced_memory()[1], frame.child_peak)
                self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - base_alloc)
                if self.stack:
                    self.stack[-1].child_peak = max(self.stack[-1].child_peak, peak)
