"""Span tracer that instruments gesturelab from outside.

The tracer swaps public functions of the package for timing wrappers
for as long as it is installed, then puts every original back.  Each
wrapped call records a span (name, start, end, parent span, request
id) in memory; counters and value samples are recorded at the same
boundaries.  Nothing under ``src/`` is modified.

A target that no longer exists in the package (say, a class deleted by
a refactor) is skipped, and the metrics that depend on it are reported
as absent instead of failing the run.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "gesturelab"
LAYERS = ("data", "tracking", "image", "fusion", "svm", "harness")

# (span name, module, attribute).  A function is swapped wherever the
# package binds it: the defining module, `harness`, `cli` and the
# package namespace.  "Class.method" targets are swapped on the class.
FUNCTION_TARGETS = (
    ("data.generate", "data", "generate_synthetic"),
    ("data.load_dataset", "data", "load_dataset"),
    ("harness.build_feature_store", "harness", "build_feature_store"),
    ("harness.emit_report", "harness", "emit_report"),
    ("tracking.extract", "tracking", "extract_tracking_features"),
    ("image.extract", "image", "extract_image_features"),
    ("image.undistort", "image", "undistort"),
    ("image.binarize", "image", "binarize"),
    ("image.crop", "image", "crop_to_foreground"),
    ("image.resize", "image", "resize_bilinear"),
    ("image.hog", "image", "compute_hog"),
    ("fusion.fit_pca", "fusion", "fit_pca"),
    ("svm.preprocess", "svm", "Preprocessing.apply"),
    ("svm.kernel_build", "svm", "KernelCache.__init__"),
    ("svm.smo", "svm", "smo_solve"),
    ("svm.grid_search", "svm", "grid_search"),
    ("svm.train_multiclass", "svm", "train_multiclass"),
    ("svm.classify", "svm", "classify"),
    ("svm.decision", "svm", "decision_values"),
    ("svm.load_model", "svm", "load_model"),
)

# Per-layer metric -> (unit, spans it needs).  A metric whose spans
# could not be installed is absent.
METRIC_SPANS = {
    "data.generate_s": ("s", ["data.generate"]),
    "data.load_dataset_s": ("s", ["data.load_dataset"]),
    "harness.build_feature_store_s": ("s", ["harness.build_feature_store"]),
    "harness.emit_report_s": ("s", ["harness.emit_report"]),
    "tracking.extract_s": ("s", ["tracking.extract"]),
    "tracking.calls": ("count", ["tracking.extract"]),
    "image.undistort_s": ("s", ["image.undistort"]),
    "image.binarize_s": ("s", ["image.binarize"]),
    "image.crop_s": ("s", ["image.crop"]),
    "image.resize_s": ("s", ["image.resize"]),
    "image.hog_s": ("s", ["image.hog"]),
    "image.calls": ("count", ["image.extract"]),
    "fusion.fit_pca_s": ("s", ["fusion.fit_pca"]),
    "fusion.fit_pca_calls": ("count", ["fusion.fit_pca"]),
    "fusion.pca_components": ("count", ["fusion.fit_pca"]),
    "svm.preprocess_s": ("s", ["svm.preprocess"]),
    "svm.kernel_build_s": ("s", ["svm.kernel_build"]),
    "svm.kernel_builds": ("count", ["svm.kernel_build"]),
    "svm.kernel_gflop": ("GFLOP", ["svm.kernel_build"]),
    "svm.kernel_rows_used_ratio": ("ratio", ["svm.kernel_build", "svm.smo"]),
    "svm.smo_s": ("s", ["svm.smo"]),
    "svm.smo_solves": ("count", ["svm.smo"]),
    "svm.smo_iterations_p50": ("count", ["svm.smo"]),
    "svm.smo_iterations_max": ("count", ["svm.smo"]),
    "svm.smo_unconverged": ("count", ["svm.smo"]),
    "svm.grid_search_s": ("s", ["svm.grid_search"]),
    "svm.train_multiclass_s": ("s", ["svm.train_multiclass"]),
    "svm.classify_s": ("s", ["svm.classify"]),
    "svm.decision_calls": ("count", ["svm.decision"]),
    "svm.support_vectors": ("count", ["svm.train_multiclass", "svm.load_model"]),
    "svm.load_model_s": ("s", ["svm.load_model"]),
}
# Unit of every metric that Tracer.metrics computes.
UNITS = {
    **{name: unit for name, (unit, _) in METRIC_SPANS.items()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request


class Tracer:
    """In-memory spans, counters and value samples for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.request = None
        self._stack = []
        self._patches = []
        self.installed = set()
        self.missing = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def sample(self, name, value):
        self.samples[name].append(value)

    def mark(self):
        """Position in the record, for slicing out one phase later."""
        return (len(self.spans), dict(self.counts), {k: len(v) for k, v in self.samples.items()})

    # -- installing --------------------------------------------------------

    def install(self):
        self.installed = set()
        self.missing = []
        modules = _package_modules()
        for span_name, module_name, attr in FUNCTION_TARGETS:
            owner_name, _, name = attr.rpartition(".")
            module = modules.get(module_name)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            if owner_name:
                self._swap(owner, name, wrapper)
            else:
                for mod in modules.values():
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, bound, wrapper)
            self.installed.add(span_name)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _swap(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span_name, fn):
        before, after = _HOOKS.get(span_name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(tracer, args, kwargs)
            index = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.count(span_name)
            if after is not None:
                after(tracer, args, result, state)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def metrics(self, phases):
        """Per-layer metrics over the record slices [(start, end) marks]."""
        indices = []
        counts = defaultdict(float)
        samples = defaultdict(list)
        for (s0, c0, v0), (s1, c1, v1) in phases:
            indices.extend(range(s0, s1))
            for key, value in c1.items():
                counts[key] += value - c0.get(key, 0.0)
            for key, n1 in v1.items():
                samples[key].extend(self.samples[key][v0.get(key, 0):n1])

        # Calls nest strictly, so the children of a span never overlap and
        # its self time is its duration minus theirs.
        busy = defaultdict(float)
        child_time = defaultdict(float)
        for index in indices:
            span = self.spans[index]
            busy[span.name] += span.end - span.start
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_time = defaultdict(float)
        for index in indices:
            span = self.spans[index]
            layer = span.name.split(".", 1)[0]
            self_time[layer] += span.end - span.start - child_time[index]
        its = samples["svm.smo_iterations"]
        sv = samples["svm.support_vectors"]
        pcs = samples["fusion.pca_components"]
        rows_built = counts["svm.kernel_rows_built"]
        values = {
            "data.generate_s": busy["data.generate"],
            "data.load_dataset_s": busy["data.load_dataset"],
            "harness.build_feature_store_s": busy["harness.build_feature_store"],
            "harness.emit_report_s": busy["harness.emit_report"],
            "tracking.extract_s": busy["tracking.extract"],
            "tracking.calls": counts["tracking.extract"],
            "image.undistort_s": busy["image.undistort"],
            "image.binarize_s": busy["image.binarize"],
            "image.crop_s": busy["image.crop"],
            "image.resize_s": busy["image.resize"],
            "image.hog_s": busy["image.hog"],
            "image.calls": counts["image.extract"],
            "fusion.fit_pca_s": busy["fusion.fit_pca"],
            "fusion.fit_pca_calls": counts["fusion.fit_pca"],
            "fusion.pca_components": statistics.mean(pcs) if pcs else 0.0,
            "svm.preprocess_s": busy["svm.preprocess"],
            "svm.kernel_build_s": busy["svm.kernel_build"],
            "svm.kernel_builds": counts["svm.kernel_build"],
            "svm.kernel_gflop": counts["svm.kernel_flop"] / 1e9,
            "svm.kernel_rows_used_ratio": (
                counts["svm.kernel_rows_used"] / rows_built if rows_built else 0.0
            ),
            "svm.smo_s": busy["svm.smo"],
            "svm.smo_solves": counts["svm.smo"],
            "svm.smo_iterations_p50": statistics.median(its) if its else 0.0,
            "svm.smo_iterations_max": max(its) if its else 0.0,
            "svm.smo_unconverged": counts["svm.smo_unconverged"],
            "svm.grid_search_s": busy["svm.grid_search"],
            "svm.train_multiclass_s": busy["svm.train_multiclass"],
            "svm.classify_s": busy["svm.classify"],
            "svm.decision_calls": counts["svm.decision"],
            "svm.support_vectors": statistics.mean(sv) if sv else 0.0,
            "svm.load_model_s": busy["svm.load_model"],
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        return values

    def absent(self):
        """Metrics that could not be measured, with the reason."""
        out = {}
        for metric, (_, needs) in METRIC_SPANS.items():
            lost = [n for n in needs if n not in self.installed]
            if lost:
                out[metric] = "not instrumented: " + ", ".join(lost)
        if "svm.smo" in self.installed:
            for metric, key in (
                ("svm.smo_iterations_p50", "svm.smo_no_iterations"),
                ("svm.smo_iterations_max", "svm.smo_no_iterations"),
                ("svm.smo_unconverged", "svm.smo_no_converged"),
                ("svm.kernel_rows_used_ratio", "svm.smo_no_row_kernel"),
            ):
                if self.counts.get(key) and metric not in out:
                    out[metric] = f"smo_solve result or kernel lacks the field ({key})"
        for metric, key in (
            ("svm.support_vectors", "svm.support_vectors_unreadable"),
            ("fusion.pca_components", "fusion.pca_components_unreadable"),
        ):
            if self.counts.get(key) and metric not in out:
                out[metric] = "returned model lacks the expected fields"
        return out


def _package_modules():
    importlib.import_module(PACKAGE)
    out = {}
    for name in ("data", "harness", "tracking", "image", "fusion", "svm", "cli"):
        try:
            out[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            continue
    out[""] = sys.modules[PACKAGE]
    return out


# -- hooks: (before(tracer, args, kwargs) -> (args, kwargs, state),
#            after(tracer, args, result, state)) ---------------------------


class _RowSpy:
    """Kernel proxy that remembers which rows the solver fetched."""

    def __init__(self, inner):
        self._inner = inner
        self.rows = set()

    def row(self, i):
        self.rows.add(i)
        return self._inner.row(i)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _smo_before(tracer, args, kwargs):
    if args and callable(getattr(args[0], "row", None)):
        spy = _RowSpy(args[0])
        return (spy,) + tuple(args[1:]), kwargs, spy
    tracer.count("svm.smo_no_row_kernel")
    return args, kwargs, None


def _smo_after(tracer, args, result, spy):
    if spy is not None:
        tracer.count("svm.kernel_rows_used", len(spy.rows))
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        tracer.count("svm.smo_no_iterations")
    else:
        tracer.sample("svm.smo_iterations", int(iterations))
    converged = getattr(result, "converged", None)
    if converged is None:
        tracer.count("svm.smo_no_converged")
    elif not converged:
        tracer.count("svm.smo_unconverged")


def _kernel_after(tracer, args, result, state):
    # args = (self, X, gamma, ...): a full n x n build costs 2 n^2 d flops
    # for the row products (computed from the shapes, not measured).
    shape = getattr(args[1], "shape", None) if len(args) > 1 else None
    if shape is None or len(shape) != 2:
        return
    n, d = shape
    tracer.count("svm.kernel_flop", 2.0 * n * n * d)
    tracer.count("svm.kernel_rows_built", n)


def _support_vectors_after(tracer, args, result, state):
    try:
        total = sum(len(m.support_vectors) for m in result.models.values())
    except AttributeError:
        tracer.count("svm.support_vectors_unreadable")
        return
    tracer.sample("svm.support_vectors", total)


def _pca_after(tracer, args, result, state):
    n = getattr(result, "n_components", None)
    if n is None:
        tracer.count("fusion.pca_components_unreadable")
        return
    tracer.sample("fusion.pca_components", int(n))


_HOOKS = {
    "svm.smo": (_smo_before, _smo_after),
    "svm.kernel_build": (None, _kernel_after),
    "svm.train_multiclass": (None, _support_vectors_after),
    "svm.load_model": (None, _support_vectors_after),
    "fusion.fit_pca": (None, _pca_after),
}
