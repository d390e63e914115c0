"""Spans around the public functions of every `ffdist` module.

`install` runs inside an op process, after `import ffdist` and before
`cli.main`.  It wraps each public function (and each `lru_cache`d one,
outside its cache, so a hit shows as a short span) and rebinds every
module-level name that refers to it, including names copied in by
`from .x import f` and the values of module-level dicts such as
`harness.RUNNERS`.  Methods of classes (the scalar `FieldSpec`
arithmetic, `SplitMix64`) are left alone: they run millions of times and
their time belongs to the caller.

A span is (id, name, start, end, parent, flags, v1, v2); v1 and v2 hold
per-function work counts (points transformed, pairs requested, table
bytes built, ...).  Spans stay in memory and are saved when the op ends.
The analysis half of this module turns saved spans into layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("field", "fourier", "varieties", "distances", "rng", "harness", "cli")

ERROR = 1  # an exception left the wrapped call
CACHE_MISS = 2  # an lru_cache'd call computed its result
INVALID = 4  # the returned value broke an invariant the benchmark checks

SPAN_DTYPE = np.dtype(
    [
        ("id", np.int64),
        ("name", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("parent", np.int64),
        ("flags", np.int32),
        ("v1", np.int64),
        ("v2", np.int64),
    ]
)


# ---------------------------------------------------------------------------
# Work counts recorded per call: (args, kwargs, result) -> (v1, v2, flags).

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(args, kwargs, result):
    grid = args[0] if args else next(iter(kwargs.values()))
    return grid.values.size, 0, 0


def _pairs(args, kwargs, result):
    E, F = _arg(args, kwargs, 1, "E"), _arg(args, kwargs, 2, "F")
    return E.size * F.size, 0, 0


def _pins(args, kwargs, result):
    P, E, F = (_arg(args, kwargs, i, n) for i, n in enumerate("PEF"))
    bad = any(s > P.spec.q for s in result.sizes.values())
    return E.size * F.size, len(result.sizes), INVALID if bad else 0


def _sample(args, kwargs, result):
    return _arg(args, kwargs, 1, "population"), len(result), 0


def _emitted(args, kwargs, result):
    out, rows = _arg(args, kwargs, 0, "out"), kwargs.get("rows")
    written = 0
    if out is not None:
        base = out
        for suffix in (".csv", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        for suffix in (".csv", ".json") if rows is not None else (".json",):
            written += os.path.getsize(base + suffix)
    return len(rows or ()), written, 0


MEASURES = {
    "fourier.fourier_transform": _points,
    "fourier.inverse_transform": _points,
    "distances.distance_set": _pairs,
    "distances.counting_function": _pairs,
    "distances.pinned_distances": _pins,
    "rng.sample_indices": _sample,
    "harness.emit": _emitted,
}


class Recorder:
    """Collects the spans of one op process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        cache_info = getattr(fn, "cache_info", None)
        measure = MEASURES.get(qualname)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name_id, start, perf_counter(), parent, ERROR, 0, 0))
                raise
            finally:
                stack.pop()
            end = perf_counter()
            v1 = v2 = flags = 0
            if cache_info and cache_info().misses != misses:
                flags = CACHE_MISS
                v1 = getattr(result, "nbytes", 0)
            if measure:
                v1, v2, bad = measure(args, kwargs, result)
                flags |= bad
            spans.append((sid, name_id, start, end, parent, flags, v1, v2))
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def array(self) -> np.ndarray:
        arr = np.array(self.spans, dtype=SPAN_DTYPE)
        return arr[np.argsort(arr["id"], kind="stable")]


def public_functions(module) -> dict[str, object]:
    """Public module-level functions defined in `module`, lru_cached ones too."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            found[name] = obj
    return found


def install(package: str = "ffdist") -> Recorder:
    """Wrap every public function of every layer and rebind all references."""
    rec = Recorder()
    swaps = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, fn in public_functions(module).items():
            swaps[id(fn)] = (fn, rec.wrap(f"{layer}.{name}", fn))
    prefix = package + "."
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = swaps.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
    return rec


# ---------------------------------------------------------------------------
# Analysis of saved spans.

def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans of one op come from one thread, so they nest: siblings never
    overlap and the covered time is the sum of the children's durations.
    Rows must be ordered by id, with ids 0..n-1.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    return dur - covered


def outermost(spans: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Spans in `mask` none of whose ancestors is in `mask`."""
    parent = spans["parent"]
    covered = np.zeros(len(spans), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = anc[live]
        covered[live] |= mask[idx]
        anc[live] = parent[idx]
        live = anc >= 0
    return mask & ~covered


# (metric, reduction, functions).  Reductions: "outer_s" sums the durations
# of outermost matching spans (nested calls are not counted twice),
# "self_s" sums self time, "count" counts calls, "v1"/"v2" sum the work
# counts; a "miss_" prefix keeps only lru_cache misses.
TABLES = ("add_table", "mul_table", "neg_table", "sub_table", "pow_table", "grid_coordinates")
SPECIFIC = (
    ("field.make_field_s", "outer_s", ("field.make_field", "field.field_from_order")),
    ("field.tables_s", "miss_outer_s", tuple(f"field.{t}" for t in TABLES)),
    ("field.table_builds", "miss_count", tuple(f"field.{t}" for t in TABLES)),
    ("field.table_bytes", "miss_v1", tuple(f"field.{t}" for t in TABLES)),
    ("fourier.transforms", "count", ("fourier.fourier_transform", "fourier.inverse_transform")),
    (
        "fourier.transform_s",
        "outer_s",
        ("fourier.fourier_transform", "fourier.inverse_transform", "fourier.plancherel_residual"),
    ),
    ("fourier.transform_points", "v1", ("fourier.fourier_transform", "fourier.inverse_transform")),
    ("varieties.value_grid_s", "outer_s", ("varieties.value_grid",)),
    ("varieties.decay_self_s", "self_s", ("varieties.decay_spectrum", "varieties.exceptional_set")),
    ("varieties.phase_sum_calls", "count", ("varieties.phase_sum",)),
    ("varieties.phase_s", "outer_s", ("varieties.phase_sum", "varieties.phase_sweep")),
    ("distances.distance_set_calls", "count", ("distances.distance_set",)),
    ("distances.distance_set_s", "outer_s", ("distances.distance_set",)),
    ("distances.pairs_requested", "v1", ("distances.distance_set",)),
    ("distances.counting_s", "outer_s", ("distances.counting_function",)),
    ("distances.counting_pairs", "v1", ("distances.counting_function",)),
    ("distances.pinned_s", "outer_s", ("distances.pinned_distances",)),
    ("distances.pins", "v2", ("distances.pinned_distances",)),
    ("distances.verify_self_s", "self_s", ("distances.verify_falconer", "distances.verify_erdos")),
    ("rng.sample_calls", "count", ("rng.sample_indices",)),
    ("rng.sample_s", "outer_s", ("rng.sample_indices",)),
    ("rng.sample_population", "v1", ("rng.sample_indices",)),
    ("rng.sample_k", "v2", ("rng.sample_indices",)),
    ("harness.build_set_self_s", "self_s", ("harness.build_set", "harness.build_pair")),
    ("harness.runner_self_s", "self_s", "harness.run_*"),
    ("harness.emit_s", "outer_s", ("harness.emit",)),
    ("harness.rows", "v1", ("harness.emit",)),
    ("harness.bytes_written", "v2", ("harness.emit",)),
)
# Ratios are sums of numerators over sums of denominators across ops.
RATIOS = ("varieties.value_grid_hit_ratio", "distances.distance_sets_per_trial")
PER_LAYER = tuple(
    [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "calls", "errors")]
    + [name for name, _, _ in SPECIFIC]
    + list(RATIOS)
    + ["trace.overhead_s"]
)


def _select(names: list[str], spans: np.ndarray, functions) -> np.ndarray:
    if isinstance(functions, str):  # a "module.prefix*" pattern
        wanted = [i for i, n in enumerate(names) if n.startswith(functions[:-1])]
    else:
        wanted = [i for i, n in enumerate(names) if n in functions]
    return np.isin(spans["name"], wanted)


def op_layer_sums(spans: np.ndarray, names: list[str]) -> dict[str, float]:
    """Per-layer sums for one op: every metric of PER_LAYER except the
    ratios and the overhead, which need more than one op's spans."""
    out: dict[str, float] = {}
    selfs = self_times(spans)
    dur = spans["end"] - spans["start"]
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])
    span_layer = layer_of[spans["name"]] if len(spans) else np.zeros(0, dtype=int)
    for li, layer in enumerate(LAYERS):
        mine = span_layer == li
        out[f"{layer}.self_s"] = float(selfs[mine].sum())
        out[f"{layer}.calls"] = int(mine.sum())
        out[f"{layer}.errors"] = int(np.count_nonzero(spans["flags"][mine] & ERROR))
    miss = (spans["flags"] & CACHE_MISS) != 0
    for metric, reduction, functions in SPECIFIC:
        mask = _select(names, spans, functions)
        if reduction.startswith("miss_"):
            mask &= miss
            reduction = reduction[5:]
        if reduction == "outer_s":
            out[metric] = float(dur[outermost(spans, mask)].sum())
        elif reduction == "self_s":
            out[metric] = float(selfs[mask].sum())
        elif reduction == "count":
            out[metric] = int(mask.sum())
        else:
            out[metric] = int(spans[reduction][mask].sum())
    return out


def invalid_calls(spans: np.ndarray, names: list[str]) -> list[str]:
    """Names of wrapped calls whose result broke a checked invariant."""
    bad = (spans["flags"] & INVALID) != 0
    return sorted({names[i] for i in spans["name"][bad]})
