"""Per-layer tracing from outside the program.

The traced passes replace every binding of a layer's public functions in the
``critgroup.*`` modules with a wrapper, including ``from``-imported bindings
such as ``critical.matrix_rank`` or ``reports.smith_normal_form``.  Module
attributes are restored when the pass ends, so the untraced runs and the
program itself never see the wrappers.

Two kinds of wrapper exist, each used in a pass of its own so that one does
not skew the other:

* ``SpanRecorder`` keeps one span per call: layer, start and end in
  ``perf_counter_ns``, parent span and op id.  Self time is derived from the
  spans after the pass.
* ``MemoryRecorder`` keeps, per layer, the largest ``tracemalloc`` peak above
  the memory traced at the call's entry.

``arith.is_prime`` is only counted: timing arithmetic helpers in inner loops
would distort the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# Modules whose public functions all belong to one layer named after it.
WHOLE_MODULE_LAYERS = ("cli", "reports", "critical", "closedform", "graphs")

# Modules split into several layers, function by function.
SPLIT_LAYERS = {
    "intmat": {
        "smith_normal_form": "intmat.snf",
        "cokernel": "intmat.snf",
        "determinant": "intmat.det",
        "matrix_rank": "intmat.rank",
    },
    "modring": {
        "kernel_dimension_mod": "modring.kernel",
        "kernel_generators_mod": "modring.kernel",
        "howell_form": "modring.howell",
        "rank_mod_p": "modring.rank_mod_p",
    },
    "mmio": {
        "read_matrix_market": "mmio.read",
        "write_matrix_market": "mmio.write",
    },
}

COUNTED = {"arith": {"is_prime": "arith.is_prime.calls"}}

LAYERS = WHOLE_MODULE_LAYERS + tuple(
    dict.fromkeys(layer for table in SPLIT_LAYERS.values() for layer in table.values())
)


def layer_functions() -> dict:
    """Map each traced function object to its layer name."""
    out = {}
    for short in WHOLE_MODULE_LAYERS:
        mod = sys.modules[f"critgroup.{short}"]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = short
    for short, table in SPLIT_LAYERS.items():
        mod = sys.modules[f"critgroup.{short}"]
        for name, layer in table.items():
            fn = getattr(mod, name, None)
            if fn is not None:
                out[fn] = layer
    return out


def counted_functions() -> dict:
    out = {}
    for short, table in COUNTED.items():
        mod = sys.modules[f"critgroup.{short}"]
        for name, counter in table.items():
            fn = getattr(mod, name, None)
            if fn is not None:
                out[fn] = counter
    return out


def critgroup_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "critgroup" or name.startswith("critgroup."))]


@contextmanager
def patched(wrappers: dict):
    """Replace every binding of each key of ``wrappers`` across critgroup modules.

    Every patched attribute is put back on exit, also on error.
    """
    saved = []
    try:
        for mod in critgroup_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        yield
    finally:
        for mod, name, obj in saved:
            setattr(mod, name, obj)


# ---------------------------------------------------------------- spans


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _probe_howell(counts, ranked, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    if hasattr(rows, "__len__"):
        counts["modring.howell.rows_in"] += len(rows)


def _probe_kernel_generators(counts, ranked, args, kwargs, result):
    counts["modring.kernel.gens_out"] += len(result)


def _probe_rank(counts, ranked, args, kwargs, result):
    ranked.append(_arg(args, kwargs, 0, "matrix"))


def _probe_snf(counts, ranked, args, kwargs, result):
    bits = max((d.bit_length() for d in result.diagonal), default=0)
    counts["intmat.snf.diag_max_bits"] = max(counts["intmat.snf.diag_max_bits"], bits)


def _probe_mmio_read(counts, ranked, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, (str, os.PathLike)):
        counts["mmio.read.bytes"] += os.path.getsize(source)


# Counters measured where the work happens, after the span has closed.
PROBES = {
    "howell_form": _probe_howell,
    "kernel_generators_mod": _probe_kernel_generators,
    "matrix_rank": _probe_rank,
    "smith_normal_form": _probe_snf,
    "read_matrix_market": _probe_mmio_read,
}


class SpanRecorder:
    """Spans in memory: [layer, start_ns, end_ns, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ranked: list = []
        self.op_id = -1

    def wrap_layer(self, fn, layer):
        spans, stack, counts, ranked = self.spans, self.stack, self.counts, self.ranked
        probe = PROBES.get(fn.__name__)
        rec = self

        def wrapper(*args, **kwargs):
            span = [layer, 0, 0, stack[-1] if stack else -1, rec.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                probe(counts, ranked, args, kwargs, result)
            return result

        return wrapper

    def wrap_count(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def tracing(self):
        wrappers = {fn: self.wrap_layer(fn, layer) for fn, layer in layer_functions().items()}
        wrappers.update({fn: self.wrap_count(fn, c) for fn, c in counted_functions().items()})
        return patched(wrappers)

    def layer_totals(self) -> dict:
        """Per layer: busy_s, self_s and calls, derived from the spans.

        busy_s sums the outermost spans of a layer (a layer calling itself is
        not counted twice); calls counts those outermost entries; self_s
        subtracts every direct child span, so self times over all layers add
        up to the total time of the root spans.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        ancestor_layers: list[frozenset] = [frozenset()] * len(spans)
        out = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
        # Parents are appended before their children, so one forward pass
        # knows every ancestor's layers.
        for i, (_layer, start, end, parent, _op) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                ancestor_layers[i] = ancestor_layers[parent] | {spans[parent][0]}
        for i, (layer, start, end, parent, _op) in enumerate(spans):
            t = out[layer]
            t["self_s"] += (end - start - child_ns[i]) / 1e9
            if layer not in ancestor_layers[i]:
                t["busy_s"] += (end - start) / 1e9
                t["calls"] += 1
        return out

    def dump(self) -> list[dict]:
        t0 = min((s[1] for s in self.spans), default=0)
        return [
            {"layer": layer, "start_us": (start - t0) / 1e3, "end_us": (end - t0) / 1e3,
             "parent": parent, "op": op}
            for layer, start, end, parent, op in self.spans
        ]


# ---------------------------------------------------------------- memory


class MemoryRecorder:
    """Largest tracemalloc peak per layer, above the traced memory at entry."""

    def __init__(self) -> None:
        self.peak_kb = {layer: 0.0 for layer in LAYERS}
        self.stack: list[list[int]] = []  # [current at entry, running peak]

    def wrap_layer(self, fn, layer):
        stack, peak_kb = self.stack, self.peak_kb

        def wrapper(*args, **kwargs):
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                # The caller's peak so far must survive the reset below.
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [cur, cur]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                peak_kb[layer] = max(peak_kb[layer], (top - frame[0]) / 1024)
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)

        return wrapper

    @contextmanager
    def tracing(self):
        wrappers = {fn: self.wrap_layer(fn, layer) for fn, layer in layer_functions().items()}
        tracemalloc.start()
        try:
            with patched(wrappers):
                yield
        finally:
            tracemalloc.stop()
