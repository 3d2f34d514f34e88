"""Spans around the layers of ``wclmmse`` and the LAPACK kernels below them.

``Tracer.install`` replaces, from outside the package, every public
function of each module (and every other binding of it: from-import
copies, the ``FILTER_CONSTRUCTORS`` entries), ``SpectralCache.__init__``,
``LinearFilter.apply`` and the numpy/scipy factorizations, with wrappers
that record a span: name, parent span, start, end, error class. Spans stay
in memory until the run ends. A profiler hook counts calls of the same
kernels and of ``SpectralCache.__init__`` by code object, independently
of any binding, so a call that bypasses the wrappers shows as a mismatch.

``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "harness", "dataio", "diagnostics", "filters", "model", "linalg")
# A kernel call must sit inside a span of one of these: the layers that do
# numerical work themselves, below the orchestration in cli and harness.
WORKING_LAYERS = ("dataio", "diagnostics", "filters", "model", "linalg")
# kernel label -> (module, attribute) bindings that reach the LAPACK call
KERNEL_BINDINGS = {
    "eigh": [("numpy.linalg", "eigh"), ("numpy.linalg._linalg", "eigh")],
    "eigvalsh": [("numpy.linalg", "eigvalsh"), ("numpy.linalg._linalg", "eigvalsh")],
    "svd": [("numpy.linalg", "svd"), ("numpy.linalg._linalg", "svd")],
    "cholesky": [("scipy.linalg", "cho_factor"),
                 ("scipy.linalg._decomp_cholesky", "cho_factor")],
    "lu": [("numpy.linalg", "solve"), ("numpy.linalg._linalg", "solve")],
}
FILTER_KINDS = ("wiener", "lrw", "csw", "jpc", "lsjpc", "jpc_simplified", "lsjpc_simplified")
# Kinds every workload builds. A time metric must be measurable on every
# workload (a time that reads 0.0 on every run is no measurement), so the
# other kinds, and the functions only one workload calls, get call counts
# and are timed inside their layer's busy time (``<layer>.s``).
TIMED_KINDS = ("wiener", "lrw", "jpc", "lsjpc")
ERROR_CLASSES = ("SingularMatrixError", "RankError")

# (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    [(f"lapack.{k}.calls", "count") for k in KERNEL_BINDINGS]
    + [(f"lapack.{k}.s", "s") for k in ("eigh", "svd", "cholesky")]
    + [("lapack.eigh.gflop", "gflop-computed"), ("lapack.svd.gflop", "gflop-computed"),
       ("lapack.cholesky.fails", "count"), ("lapack.big_factorizations", "count"),
       ("lapack.self_s", "s")]
    + [(f"linalg.{f}.{stat}", unit)
       for f in ("sym_eig", "solve_spd", "inv_sqrt_spd", "condition_number")
       for stat, unit in (("calls", "count"), ("s", "s"))]
    + [("linalg.solve_spd.lu_fallbacks", "count"), ("linalg.self_s", "s"),
       ("model.estimate_covariance.calls", "count"), ("model.sample_from_model.calls", "count"),
       ("model.covariance_mb", "MB"), ("model.s", "s"), ("model.self_s", "s"),
       ("filters.SpectralCache.builds", "count"), ("filters.SpectralCache.s", "s"),
       ("filters.cache_builds_per_model", "ratio")]
    + [(f"filters.{k}.{stat}", unit) for k in FILTER_KINDS
       for stat, unit in (("calls", "count"), ("errors", "count"))]
    + [(f"filters.{k}.s", "s") for k in TIMED_KINDS]
    + [(f"filters.errors.{c}", "count") for c in ERROR_CLASSES + ("other",)]
    + [("filters.apply.calls", "count"), ("filters.apply.s", "s"), ("filters.s", "s"),
       ("filters.self_s", "s"),
       ("diagnostics.best_l_search.calls", "count"),
       ("diagnostics.best_l_search.builds_per_choice", "ratio"),
       ("diagnostics.analytic_mse.calls", "count"), ("diagnostics.analytic_mse.s", "s"),
       ("diagnostics.s", "s"), ("diagnostics.self_s", "s"),
       ("dataio.load_csv.calls", "count"), ("dataio.window_samples.calls", "count"),
       ("dataio.normalized_rms.calls", "count"), ("dataio.normalized_rms.s", "s"),
       ("dataio.write_results.s", "s"), ("dataio.s", "s"), ("dataio.self_s", "s"),
       ("harness.rows", "count"), ("harness.nan_rows", "count"),
       ("harness.rows_bit_identical", "count"), ("harness.self_s", "s"),
       ("cli.self_s", "s"), ("trace.overhead_s", "s")]
)


def _module(path: str):
    __import__(path)
    return sys.modules[path]


def _code_of(fn):
    """Code object of the function under any decorators (numpy's dispatcher,
    scipy's batching wrapper, whose code is shared by many functions)."""
    return inspect.unwrap(fn).__code__


class Tracer:
    """Wraps the package and the kernels; records spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter
        self._patches: list[tuple[object, str, object]] = []
        self._constructor_patches: list[tuple[object, object]] = []
        self.current_m: int | None = None
        self.models_built = 0
        self.covariance_bytes_max = 0
        self.profile_counts: Counter = Counter()
        self._profiled: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _see_model(self, value, built: bool) -> None:
        if isinstance(value, self._model_type):
            self.current_m = value.m
            blocks = (value.c_x, value.c_y, value.c_xy, value.c_z)
            size = sum(b.nbytes for b in blocks if b is not None)
            self.covariance_bytes_max = max(self.covariance_bytes_max, size)
            self.models_built += built

    def _wrap(self, name: str, fn, kernel: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    name, 0.0, 0.0, None, None]
            tracer.spans.append(span)
            if kernel:
                shape = list(getattr(args[0], "shape", ()))
                span[6] = {"shape": shape, "m": tracer.current_m,
                           "uv": bool(kwargs.get("compute_uv", True))}
            else:
                for value in (*args, *kwargs.values()):
                    tracer._see_model(value, built=False)
            tracer._stack.append(span[0])
            span[3] = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = tracer._clock()
                tracer._stack.pop()
            if not kernel:
                tracer._see_model(result, built=True)
            return result

        return wrapper

    def _package_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "wclmmse" or name.startswith("wclmmse."))]

    def install(self) -> list[str]:
        """Wrap everything; return the bindings that still reach an original."""
        from wclmmse import filters, model

        self._model_type = model.CovarianceModel
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = _module(f"wclmmse.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn, kernel=False)
                    originals[id(fn)] = fn
        for label, bindings in KERNEL_BINDINGS.items():
            fn = getattr(_module(bindings[0][0]), bindings[0][1])
            wrappers[id(fn)] = self._wrap(f"lapack.{label}", fn, kernel=True)
            originals[id(fn)] = fn
            self._profiled[_code_of(fn)] = f"lapack.{label}"
            for mod_name, attr in bindings:
                self._patch(_module(mod_name), attr, wrappers[id(fn)])
        for cls, attr, name in ((filters.SpectralCache, "__init__", "filters.SpectralCache"),
                                (filters.LinearFilter, "apply", "filters.apply")):
            fn = vars(cls)[attr]
            self._patch(cls, attr, self._wrap(name, fn, kernel=False))
            if attr == "__init__":
                self._profiled[fn.__code__] = name
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._patch(mod, attr, wrappers[id(value)])
        table = filters.FILTER_CONSTRUCTORS
        for kind, fn in list(table.items()):
            if id(fn) in wrappers:
                self._constructor_patches.append((kind, fn))
                table[kind] = wrappers[id(fn)]
        sys.setprofile(self._profile)
        return self._unpatched(originals)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _unpatched(self, originals: dict[int, object]) -> list[str]:
        """Bindings in module globals, their dicts/lists/tuples, and class
        dicts of the package that still hold an unwrapped original."""
        found = []
        for mod in self._package_modules():
            for attr, value in vars(mod).items():
                holders = [(attr, value)]
                if isinstance(value, dict):
                    holders += [(f"{attr}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, (list, tuple)):
                    holders += [(f"{attr}[{i}]", v) for i, v in enumerate(value)]
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    holders += [(f"{attr}.{k}", getattr(v, "__func__", v))
                                for k, v in vars(value).items()]
                for where, held in holders:
                    if id(held) in originals and held is originals[id(held)]:
                        found.append(f"{mod.__name__}.{where}")
        return found

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            name = self._profiled.get(frame.f_code)
            if name is not None:
                self.profile_counts[name] += 1

    def uninstall(self) -> None:
        sys.setprofile(None)
        from wclmmse import filters

        for kind, fn in reversed(self._constructor_patches):
            filters.FILTER_CONSTRUCTORS[kind] = fn
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._constructor_patches.clear()

    def report(self, spans_path: Path) -> dict:
        """Write the spans (one JSON object a line); return the run's counters."""
        with spans_path.open("w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, error, info in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end, "error": error,
                                         "info": info}) + "\n")
        return {
            "spans_file": spans_path.name,
            "profile_counts": dict(self.profile_counts),
            "models_built": self.models_built,
            "covariance_bytes_max": self.covariance_bytes_max,
        }


# -- aggregation ------------------------------------------------------------

def load_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _gflop(span: dict) -> float:
    """Textbook flop counts (Golub & Van Loan, 4th ed., 8.3 and 8.6):
    symmetric eigensolver with vectors 9n^3; SVD of a p x q matrix with
    r = min, s = max: 4sr^2 - 4r^3/3 for values only, 6sr^2 + 20r^3 with
    thin vectors."""
    shape = span["info"]["shape"]
    if span["name"] == "lapack.eigh":
        return 9.0 * shape[0] ** 3 / 1e9
    r, s = min(shape[:2]), max(shape[:2])
    if span["info"]["uv"]:
        return (6.0 * s * r * r + 20.0 * r ** 3) / 1e9
    return (4.0 * s * r * r - 4.0 * r ** 3 / 3.0) / 1e9


def check_coverage(spans: list[dict], counters: dict) -> list[str]:
    """Reasons the traced run did not see every call, if any."""
    problems = [f"unwrapped binding: {b}" for b in counters.get("unpatched_bindings", [])]
    by_id = {s["id"]: s for s in spans}
    wrapped = Counter(s["name"] for s in spans)
    for name, count in sorted(counters["profile_counts"].items()):
        if wrapped[name] != count:
            problems.append(f"{name}: {count} calls ran, {wrapped[name]} went through a wrapper")
    for span in spans:
        if not span["name"].startswith("lapack."):
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"].split(".")[0] not in WORKING_LAYERS:
            parent = by_id.get(parent["parent"])
        if parent is None:
            problems.append(f"{span['name']} call {span['id']} has no enclosing span"
                            f" in {', '.join(WORKING_LAYERS)}")
    return problems


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer counts and times; see ``PER_LAYER`` for the list.

    ``counters`` carries what spans cannot: the worker's model counters and
    the row-level figures (``harness.*`` and ``trace.overhead_s``).
    """
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    calls, total, errors = Counter(), defaultdict(float), Counter()
    self_s, busy = defaultdict(float), defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        calls[s["name"]] += 1
        total[s["name"]] += duration
        errors[s["name"]] += s["error"] is not None
        self_s[layer] += duration - covered[s["id"]]
        if by_id.get(s["parent"], {"name": ""})["name"].split(".")[0] != layer:
            busy[layer] += duration

    def inside(span: dict, name: str) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    kernels = [s for s in spans if s["name"].startswith("lapack.")]
    filter_spans = [s for s in spans if s["name"] in {f"filters.{k}" for k in FILTER_KINDS}]
    error_classes = Counter(s["error"] if s["error"] in ERROR_CLASSES else "other"
                            for s in filter_spans if s["error"] is not None)
    searches = calls["diagnostics.best_l_search"]
    out: dict[str, float] = {}
    for k in KERNEL_BINDINGS:
        out[f"lapack.{k}.calls"] = calls[f"lapack.{k}"]
    for k in ("eigh", "svd", "cholesky"):
        out[f"lapack.{k}.s"] = total[f"lapack.{k}"]
    for k in ("eigh", "svd"):
        out[f"lapack.{k}.gflop"] = sum(_gflop(s) for s in kernels if s["name"] == f"lapack.{k}")
    out["lapack.cholesky.fails"] = errors["lapack.cholesky"]
    out["lapack.big_factorizations"] = sum(
        1 for s in kernels
        if s["info"]["m"] is not None and len(s["info"]["shape"]) >= 2
        and min(s["info"]["shape"][:2]) >= s["info"]["m"])
    out["lapack.self_s"] = self_s["lapack"]
    for f in ("sym_eig", "solve_spd", "inv_sqrt_spd", "condition_number"):
        out[f"linalg.{f}.calls"] = calls[f"linalg.{f}"]
        out[f"linalg.{f}.s"] = total[f"linalg.{f}"]
    out["linalg.solve_spd.lu_fallbacks"] = sum(
        1 for s in kernels
        if s["name"] == "lapack.lu" and by_id.get(s["parent"], {}).get("name") == "linalg.solve_spd")
    out["linalg.self_s"] = self_s["linalg"]
    out["model.estimate_covariance.calls"] = calls["model.estimate_covariance"]
    out["model.sample_from_model.calls"] = calls["model.sample_from_model"]
    out["model.covariance_mb"] = counters["covariance_bytes_max"] / 1e6
    out["model.s"] = busy["model"]
    out["model.self_s"] = self_s["model"]
    out["filters.SpectralCache.builds"] = calls["filters.SpectralCache"]
    out["filters.SpectralCache.s"] = total["filters.SpectralCache"]
    out["filters.cache_builds_per_model"] = (
        calls["filters.SpectralCache"] / counters["models_built"] if counters["models_built"] else 0.0)
    for k in FILTER_KINDS:
        out[f"filters.{k}.calls"] = calls[f"filters.{k}"]
        out[f"filters.{k}.errors"] = errors[f"filters.{k}"]
    for k in TIMED_KINDS:
        out[f"filters.{k}.s"] = total[f"filters.{k}"]
    for c in ERROR_CLASSES + ("other",):
        out[f"filters.errors.{c}"] = error_classes[c]
    out["filters.apply.calls"] = calls["filters.apply"]
    out["filters.apply.s"] = total["filters.apply"]
    out["filters.s"] = busy["filters"]
    out["filters.self_s"] = self_s["filters"]
    out["diagnostics.best_l_search.calls"] = searches
    out["diagnostics.best_l_search.builds_per_choice"] = (
        sum(1 for s in filter_spans if inside(s, "diagnostics.best_l_search")) / searches
        if searches else 0.0)
    out["diagnostics.analytic_mse.calls"] = calls["diagnostics.analytic_mse"]
    out["diagnostics.analytic_mse.s"] = total["diagnostics.analytic_mse"]
    out["diagnostics.s"] = busy["diagnostics"]
    out["diagnostics.self_s"] = self_s["diagnostics"]
    out["dataio.load_csv.calls"] = calls["dataio.load_csv"]
    out["dataio.window_samples.calls"] = calls["dataio.window_samples"]
    out["dataio.normalized_rms.calls"] = calls["dataio.normalized_rms"]
    out["dataio.normalized_rms.s"] = total["dataio.normalized_rms"]
    out["dataio.write_results.s"] = (total["dataio.write_results_csv"]
                                     + total["dataio.write_results_json"])
    out["dataio.s"] = busy["dataio"]
    out["dataio.self_s"] = self_s["dataio"]
    for name in ("harness.rows", "harness.nan_rows", "harness.rows_bit_identical",
                 "trace.overhead_s"):
        out[name] = counters[name]
    out["harness.self_s"] = self_s["harness"]
    out["cli.self_s"] = self_s["cli"]
    return {name: out[name] for name, _ in PER_LAYER}
