"""Traced runs: spans around the package's public functions.

Each function is wrapped under the name its caller looks it up by (a
module attribute), so the package itself is not edited.  Spans are kept in
memory and turned into per-layer metrics after the run; every wrapper is
removed again when the run ends.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

# Module -> attributes to wrap.  spdlrr.io is wrapped whole (see _targets).
WRAPPED = {
    "spdlrr.solver": (
        "update_L_blocks",
        "update_E",
        "update_J",
        "lagrangian_value",
        "update_multipliers",
        "svt",
        "nuclear_norm",
        "nuclear_subgradient",
        "soft_threshold",
        "max_norm",
    ),
    "spdlrr.linalg": ("thin_svd", "singular_values"),
    "spdlrr.pipeline": (
        "segment",
        "refine",
        "train_predict",
        "solve",
        "project_base_image",
        "split",
        "evaluate",
        "normalize",
    ),
    "spdlrr.cli": ("solve",),
    # Called directly by the segment-and-classify workload.
    "spdlrr.superpixel": ("segment", "refine", "project_base_image"),
    "spdlrr.classify": ("split", "train_predict", "evaluate"),
    "spdlrr.cube": ("normalize",),
}

SVD_SPANS = ("linalg.thin_svd", "linalg.singular_values")
ROUNDS = 3  # superpixel counts are reported for this many rounds


def _targets():
    """(module, attribute) pairs to wrap, and the dotted names of listed
    attributes that the package no longer has."""
    pairs, absent = [], []
    for modname, attrs in WRAPPED.items():
        module = importlib.import_module(modname)
        for attr in attrs:
            if callable(getattr(module, attr, None)):
                pairs.append((module, attr))
            else:
                absent.append(f"{modname}.{attr}")
    io = importlib.import_module("spdlrr.io")
    for attr, obj in sorted(vars(io).items()):
        if inspect.isfunction(obj) and obj.__module__ == io.__name__ and not attr.startswith("_"):
            pairs.append((io, attr))
    return pairs, absent


def _svd_flops(shape, values_only):
    """Golub-Van Loan operation counts (Golub-Reinsch SVD) for an m x n
    matrix with m >= n: 4mn^2 - 4n^3/3 for the singular values alone,
    14mn^2 + 8n^3 with the thin U and V."""
    m, n = max(shape), min(shape)
    if values_only:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    return 14.0 * m * n * n + 8.0 * n**3


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _after(fn):
    """A probe that only inspects the arguments and the result."""
    return lambda args, kwargs: lambda result: fn(args, kwargs, result)


# Span name -> probe.  A probe is called with the arguments before the call
# and returns a function that maps the result to the span's value.
PROBES = {
    "linalg.thin_svd": _after(lambda a, kw, r: _svd_flops(np.shape(_arg(a, kw, 0, "a")), False)),
    "linalg.singular_values": _after(lambda a, kw, r: _svd_flops(np.shape(_arg(a, kw, 0, "a")), True)),
    "superpixel.segment": _after(lambda a, kw, r: r.count),
    "superpixel.refine": _after(lambda a, kw, r: r.count),
    "classify.train_predict": _after(lambda a, kw, r: np.shape(_arg(a, kw, 0, "features"))[1]),
    "io.load_cube": _after(lambda a, kw, r: r.x.size * 4),
}


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans, as [name, start, end, parent index, value] in the
    order they open, while `run` is active."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.absent = []

    def _wrap(self, fn):
        name = _span_name(fn)
        probe = PROBES.get(name)
        by_kind = name == "classify.train_predict"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = f"{name}[{_arg(args, kwargs, 3, 'kind', 'nearest-centroid')}]" if by_kind else name
            finish = probe(args, kwargs) if probe else None
            record = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if finish:
                record[4] = finish(result)
            return result

        return wrapper

    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1], 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def run(self, root):
        """Wraps every target, opens the root span, and restores every
        wrapped attribute on exit."""
        pairs, self.absent = _targets()
        saved = [(module, attr, getattr(module, attr)) for module, attr in pairs]
        try:
            for module, attr, fn in saved:
                setattr(module, attr, self._wrap(fn))
            self._open(root)
            try:
                yield self
            finally:
                self._close()
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


@contextlib.contextmanager
def solve_memory(peaks):
    """Wraps only solve, under the names its callers look it up by, and
    appends to `peaks` the tracemalloc peak of each call over the bytes of
    X, to 0.01: the interpreter's free lists move the peak by some hundred
    bytes from one run to the next.  tracemalloc slows every allocation, so
    the times of such a run do not count."""
    modules = [importlib.import_module(m) for m in ("spdlrr.pipeline", "spdlrr.cli")]
    saved = [(module, module.solve) for module in modules]

    def measured(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            x = np.asarray(_arg(args, kwargs, 0, "x"))
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(round(tracemalloc.get_traced_memory()[1] / x.nbytes, 2))
                tracemalloc.stop()

        return wrapper

    try:
        for module, fn in saved:
            module.solve = measured(fn)
        yield
    finally:
        for module, fn in saved:
            module.solve = fn


# Per-layer metrics: name -> unit.  Every traced run reports all of them; a
# layer that does no work in a workload reports 0.
LAYER_UNITS = {
    "solver.iterations": "count",
    "solver.iter_s_p50": "s",
    "solver.iter_s_p95": "s",
    "solver.update_L_blocks_s": "s",
    "solver.update_E_s": "s",
    "solver.update_J_s": "s",
    "solver.lagrangian_value_s": "s",
    "solver.update_multipliers_s": "s",
    "solver.self_s": "s",
    "solver.peak_alloc_x": "ratio",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_flops": "Gflop-computed",
    "linalg.svt_s": "s",
    "linalg.nuclear_norm_s": "s",
    "linalg.nuclear_subgradient_s": "s",
    "linalg.soft_threshold_s": "s",
    "linalg.max_norm_s": "s",
    "pipeline.rounds": "count",
    "pipeline.self_s": "s",
    "superpixel.segment_s": "s",
    "superpixel.refine_s": "s",
    "superpixel.project_base_image_s": "s",
    **{f"superpixel.count_initial_r{i}": "count" for i in range(1, ROUNDS + 1)},
    **{f"superpixel.count_refined_r{i}": "count" for i in range(1, ROUNDS + 1)},
    "classify.knn_s": "s",
    "classify.knn_pixels_per_s": "1/s",
    "classify.centroid_s": "s",
    "classify.split_s": "s",
    "classify.evaluate_s": "s",
    "cube.normalize_s": "s",
    "io.load_cube_s": "s",
    "io.load_cube_mb_per_s": "MB/s",
    "io.load_labels_s": "s",
    "io.write_raster_s": "s",
    "io.render_map_s": "s",
    "io.load_partition_s": "s",
    "io.write_cube_s": "s",
    "io.write_trace_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, peaks=()):
    """Per-layer metrics of one traced workload execution and the solve
    memory peaks of another (all but trace.overhead_s, which needs the
    untraced runs)."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    self_time = list(dur)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= dur[i]
    totals, selfs, values = (collections.defaultdict(float) for _ in range(3))
    by_name = collections.defaultdict(list)
    for i, (name, _, _, _, value) in enumerate(spans):
        totals[name] += dur[i]
        selfs[name] += self_time[i]
        values[name] += value
        by_name[name].append(i)

    def parent_name(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else ""

    m = {}
    steps = collections.defaultdict(list)  # solve span -> update_L_blocks starts
    for i in by_name["solver.update_L_blocks"]:
        steps[spans[i][3]].append(spans[i][1])
    steps = np.concatenate([np.diff(starts) for starts in steps.values()] or [[]])
    m["solver.iterations"] = len(by_name["solver.update_L_blocks"])
    m["solver.iter_s_p50"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    m["solver.iter_s_p95"] = float(np.percentile(steps, 95)) if steps.size else 0.0
    for fn in ("update_L_blocks", "update_E", "update_J", "lagrangian_value", "update_multipliers"):
        m[f"solver.{fn}_s"] = totals[f"solver.{fn}"]
    m["solver.self_s"] = selfs["solver.solve"]
    m["solver.peak_alloc_x"] = max(peaks, default=0.0)

    svds = [i for name in SVD_SPANS for i in by_name[name] if parent_name(i) not in SVD_SPANS]
    m["linalg.svd_calls"] = len(svds)
    m["linalg.svd_s"] = sum(dur[i] for i in svds)
    m["linalg.svd_flops"] = sum(spans[i][4] for i in svds) / 1e9
    for fn in ("svt", "nuclear_norm", "nuclear_subgradient", "soft_threshold", "max_norm"):
        m[f"linalg.{fn}_s"] = totals[f"linalg.{fn}"]

    m["pipeline.rounds"] = sum(parent_name(i) == "pipeline.run" for i in by_name["solver.solve"])
    m["pipeline.self_s"] = selfs["pipeline.run"]

    for fn in ("segment", "refine", "project_base_image"):
        m[f"superpixel.{fn}_s"] = totals[f"superpixel.{fn}"]
    for key, fn in (("initial", "segment"), ("refined", "refine")):
        counts = [spans[i][4] for i in by_name[f"superpixel.{fn}"]]
        for r in range(1, ROUNDS + 1):
            m[f"superpixel.count_{key}_r{r}"] = int(counts[r - 1]) if r <= len(counts) else 0

    knn = "classify.train_predict[knn]"
    m["classify.knn_s"] = totals[knn]
    m["classify.knn_pixels_per_s"] = values[knn] / totals[knn] if totals[knn] else 0.0
    m["classify.centroid_s"] = totals["classify.train_predict[nearest-centroid]"]
    m["classify.split_s"] = totals["classify.split"]
    m["classify.evaluate_s"] = totals["classify.evaluate"]
    m["cube.normalize_s"] = totals["cube.normalize"]

    for fn in (
        "load_cube",
        "load_labels",
        "write_raster",
        "render_map",
        "load_partition",
        "write_cube",
        "write_trace_csv",
    ):
        m[f"io.{fn}_s"] = totals[f"io.{fn}"]
    loaded = values["io.load_cube"]
    m["io.load_cube_mb_per_s"] = loaded / 1e6 / totals["io.load_cube"] if loaded else 0.0
    m["cli.self_s"] = selfs["cli.cli_main"]
    return m


def write_spans(tracer, path):
    """One CSV line per span: index, name, start and end (s from the first
    span), parent index (-1 for none) and value."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,name,start_s,end_s,parent,value\n")
        for row, (name, start, end, parent, value) in enumerate(tracer.spans):
            fh.write(f"{row},{name},{start - t0:.9f},{end - t0:.9f},{parent},{value:.9g}\n")
