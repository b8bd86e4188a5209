"""Span recording from outside the program, and the per-layer summary.

``install`` wraps the public functions of every ``amnm`` module and rebinds
each wrapper under every name that an ``amnm`` module holds for the original
function, so calls made through ``from .x import f`` bindings are recorded
too.  A span is ``[name, start, end, parent, op, attrs]``: ``name`` is
``"<layer>.<function>"``, times come from ``time.perf_counter``, ``parent``
is the index of the enclosing span (-1 for none) and ``op`` the benchmark op
that caused it.  Spans stay in memory until the run ends.

The tracer keeps one span stack, so it assumes the program runs its work on
one thread; the benchmark unsets ``AMNM_THREADS`` for that reason.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

from workloads import TSIRELSON_CYCLE

LAYERS = (
    "cli", "jsonio", "algebra", "multilinear", "normest", "rng",
    "diagonal", "stabilizer", "perturbation", "suites", "tsirelson",
)

# Recursive or per-element helpers whose spans would cost more than the work
# they time; their time stays with the caller's span.
UNWRAPPED = {
    "jsonio": {"complex_to_json", "complex_from_json"},
    "algebra": {"multiply", "element_norm"},
    "rng": {"fold_indices"},
    "cli": {"build_parser"},
}

ALGEBRA_CTORS = (
    "build_full_matrix_algebra", "build_commutative_algebra", "direct_sum",
    "unitize", "opposite", "generated_subalgebra",
)
COCHAIN_FUNCS = {"multilinear.defect_cochain", "multilinear.coboundary", "multilinear.restrict_slot"}
NORM_FUNCS = {"multilinear.multilinear_norm", "multilinear.defect", "multilinear.linear_map_norm"}
SUITE_GROUPS = {
    "exact": (
        "check_two_cocycle", "check_linearization", "check_unitize_tensors",
        "check_splitting_v1", "check_average_unit_vanish", "check_preserved_by_improvement",
        "check_diagonal_residuals", "check_decompose_equality",
    ),
    "nofalsify": (
        "check_perturbed_defect", "check_relative_perturbed", "check_coboundary_composition",
        "check_averaging_bound", "check_left_modular", "check_splitting_v2",
        "check_improving_bounds",
    ),
    "stabilize": ("run_stabilize_checks",),
    "checkers": ("checker_valid_battery", "checker_refusal_battery", "dichotomy_grid_check"),
    "tsirelson": ("tsirelson_battery",),
}


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


# -- span attributes, computed after the call returns ----------------------------


def _interval_gap(estimate) -> float | None:
    lower, upper = float(estimate.lower), float(estimate.upper)
    return upper / lower if lower > 0 else None


def _estimate_attrs(args, kwargs, result) -> dict:
    tensor, balls, target = args[0], args[1], args[2]
    kinds = {type(b).__name__ for b in list(balls) + [target]}
    if "CompositeSumBall" in kinds or "CompositeSumTarget" in kinds:
        mode = "composite"
    elif kinds <= {"EuclideanBall", "EuclideanTarget"}:
        mode = "frobenius"
    else:
        mode = "spectral"
    return {"arity": tensor.ndim - 1, "restarts": result.restarts_used, "mode": mode,
            "gap": _interval_gap(result)}


def _stabilize_attrs(args, kwargs, result) -> dict:
    return {"iterates": len(result.iterates)}


def _support_attrs(args, kwargs, result) -> dict:
    return {"support": len(args[0].support)}


def _write_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


ANNOTATORS = {
    "normest.estimate_tensor_norm": _estimate_attrs,
    "stabilizer.stabilize": _stabilize_attrs,
    "tsirelson.tsirelson_norm": _support_attrs,
    "jsonio.write_json": _write_attrs,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer under every binding."""
    modules = {layer: importlib.import_module(f"amnm.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for fname, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or fname.startswith("_"):
                continue
            if fname in UNWRAPPED.get(layer, ()):
                continue
            name = f"{layer}.{fname}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, ANNOTATORS.get(name)))
    holders = [m for key, m in sys.modules.items() if key == "amnm" or key.startswith("amnm.")]
    for module in holders:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# -- summary -----------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """The ``q`` quantile (a multiple of 0.01) of ``values``; 0 when empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def layer_metrics(spans: list, op_wall_s: float, import_s: list[float],
                  overhead_frac: float, levels: list[int]) -> dict:
    """Per-layer metrics from recorded spans.

    ``op_wall_s`` is the summed wall time of the traced ops (interpreter start
    included for process ops), the base of every ``share``.  ``levels`` holds
    the Tsirelson level counts the workload computed alongside its ops.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    self_s = [s[2] - s[1] - c for s, c in zip(spans, child)]
    layer_of = [s[0].split(".", 1)[0] for s in spans]

    def names(prefix):
        return [i for i, s in enumerate(spans) if s[0] == prefix]

    def layer_self(layer):
        return sum(t for t, name in zip(self_s, layer_of) if name == layer)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def has_ancestor(i, wanted) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in wanted:
                return True
            parent = spans[parent][3]
        return False

    base = op_wall_s if op_wall_s > 0 else 1.0
    m: dict[str, tuple[float, str]] = {}

    m["cli.import_s"] = (_median(import_s), "s")
    m["cli.self_s"] = (layer_self("cli"), "s")
    jsonio = {"jsonio.write_json", "jsonio.dumps"}
    m["jsonio.write_s"] = (sum(dur(i) for i, s in enumerate(spans)
                               if s[0] in jsonio and not has_ancestor(i, jsonio)), "s")
    m["jsonio.bytes"] = (float(sum((spans[i][5] or {}).get("bytes", 0) for i in names("jsonio.write_json"))), "bytes")

    algebra = [i for i, layer in enumerate(layer_of) if layer == "algebra"]
    m["algebra.calls"] = (float(len(algebra)), "count")
    m["algebra.self_s"] = (layer_self("algebra"), "s")
    m["algebra.share"] = (layer_self("algebra") / base, "frac")
    for ctor in ALGEBRA_CTORS:
        m[f"algebra.{ctor}.p50_ms"] = (1e3 * _median([dur(i) for i in names(f"algebra.{ctor}")]), "ms")

    cochain = [i for i, s in enumerate(spans) if s[0] in COCHAIN_FUNCS]
    m["multilinear.cochain_calls"] = (float(len(cochain)), "count")
    m["multilinear.cochain_s"] = (sum(self_s[i] for i in cochain), "s")
    m["multilinear.norm_self_s"] = (sum(self_s[i] for i, s in enumerate(spans) if s[0] in NORM_FUNCS), "s")

    estimates = names("normest.estimate_tensor_norm")
    searched = [i for i in estimates if spans[i][5]["restarts"] > 0]
    m["normest.estimates"] = (float(len(estimates)), "count")
    m["normest.self_s"] = (layer_self("normest"), "s")
    m["normest.share"] = (layer_self("normest") / base, "frac")
    for arity in (1, 2):
        m[f"normest.a{arity}.p50_ms"] = (
            1e3 * _median([dur(i) for i in searched if spans[i][5]["arity"] == arity]), "ms")
    restarts = sum(spans[i][5]["restarts"] for i in searched)
    m["normest.ms_per_restart"] = (1e3 * sum(dur(i) for i in searched) / restarts if restarts else 0.0, "ms")
    for mode in ("spectral", "frobenius", "composite"):
        m[f"normest.{mode}.s"] = (sum(dur(i) for i in estimates if spans[i][5]["mode"] == mode), "s")
    gaps = [spans[i][5]["gap"] for i in estimates if spans[i][5]["gap"] is not None]
    m["normest.gap_p50"] = (quantile(gaps, 0.5), "ratio")
    m["normest.gap_p90"] = (quantile(gaps, 0.9), "ratio")

    m["rng.streams"] = (float(len(names("rng.stream"))), "count")
    m["rng.self_s"] = (layer_self("rng"), "s")

    m["diagonal.calls"] = (float(layer_of.count("diagonal")), "count")
    m["diagonal.self_s"] = (layer_self("diagonal"), "s")

    runs = names("stabilizer.stabilize")
    in_runs = sum(1 for i in estimates if has_ancestor(i, {"stabilizer.stabilize"}))
    m["stabilizer.runs"] = (float(len(runs)), "count")
    m["stabilizer.iterates_p50"] = (_median([spans[i][5]["iterates"] for i in runs]), "count")
    m["stabilizer.estimates_per_run"] = (in_runs / len(runs) if runs else 0.0, "count")
    m["stabilizer.self_s"] = (layer_self("stabilizer"), "s")

    m["perturbation.calls"] = (float(layer_of.count("perturbation")), "count")
    m["perturbation.self_s"] = (layer_self("perturbation"), "s")

    group_names = {f"suites.{f}" for funcs in SUITE_GROUPS.values() for f in funcs}
    for group, funcs in SUITE_GROUPS.items():
        wanted = {f"suites.{f}" for f in funcs}
        m[f"suites.{group}_s"] = (sum(dur(i) for i, s in enumerate(spans)
                                      if s[0] in wanted and not has_ancestor(i, group_names)), "s")

    norms = names("tsirelson.tsirelson_norm")
    m["tsirelson.calls"] = (float(layer_of.count("tsirelson")), "count")
    m["tsirelson.self_s"] = (layer_self("tsirelson"), "s")
    m["tsirelson.share"] = (layer_self("tsirelson") / base, "frac")
    for size in sorted(set(TSIRELSON_CYCLE)):
        m[f"tsirelson.s{size}.p50_ms"] = (
            1e3 * _median([dur(i) for i in norms if spans[i][5]["support"] == size]), "ms")
    m["tsirelson.levels_p50"] = (_median(levels), "count")

    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in m.items()}
