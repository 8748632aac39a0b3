"""Span tracing of emn's public functions, driven from outside the package.

`Tracer.install()` replaces every binding of each function in `TRACED`, in
every loaded `emn` module, with a wrapper that records one span per call:
name, layer, start, end, parent span and, for some functions, a work count.
Spans stay in memory until the benchmark writes them out at the end.
`Tracer.uninstall()` restores the original bindings, so untraced runs call
emn exactly as a user would.

Modules import each other's functions by name (`from emn.propagation import
propagate_batch`), so patching only the defining module would miss most
calls; the tracer patches every binding that refers to the original object.
A listed function that cannot be found raises `TraceError`, so a rename in
emn makes the traced run fail instead of silently dropping a layer.
"""

from __future__ import annotations

import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    "dataio",
    "topology",
    "propagation",
    "memory",
    "inference",
    "adaptation",
    "harness",
)


def _rows(name):
    def count(a, result):
        shape = np.shape(a[name])
        return int(shape[0]) if len(shape) == 2 else 1

    return count


def _file_bytes(name):
    return lambda a, result: os.path.getsize(a[name])


def _retrieval_cells(a, result):
    store = a["store"]
    return int(a["signals"].shape[0]) * store.node_count * store.class_count


def _edges(a, result):
    return int(sum(p.size for p in result.predecessors))


# (layer, module, function, work count from (bound arguments, result) or None)
TRACED = (
    ("dataio", "emn.dataio", "read_dataset", _file_bytes("path")),
    ("dataio", "emn.dataio", "write_dataset", None),
    ("dataio", "emn.dataio", "synth_shifted_blobs", None),
    ("dataio", "emn.dataio", "save_model", _file_bytes("path")),
    ("dataio", "emn.dataio", "load_model", None),
    ("topology", "emn.topology", "build_topology", _edges),
    ("propagation", "emn.propagation", "propagate", lambda a, r: 1),
    ("propagation", "emn.propagation", "propagate_batch", _rows("X")),
    ("propagation", "emn.propagation", "propagate_trace", lambda a, r: 1),
    ("memory", "emn.memory", "init_memory", None),
    ("memory", "emn.memory", "supervised_update", None),
    ("memory", "emn.memory", "store_log_likelihoods", _retrieval_cells),
    ("inference", "emn.inference", "build_model", None),
    ("inference", "emn.inference", "predict", None),
    ("inference", "emn.inference", "predict_batch", _rows("X")),
    ("inference", "emn.inference", "batch_node_votes", None),
    ("inference", "emn.inference", "fused_posteriors_from_signals", None),
    ("inference", "emn.inference", "labels_from_signals", None),
    ("adaptation", "emn.adaptation", "adapt", _rows("X_target")),
    ("adaptation", "emn.adaptation", "pseudo_label", None),
    ("adaptation", "emn.adaptation", "reinforced_update", None),
    ("harness", "emn.harness", "train_supervised", None),
    ("harness", "emn.harness", "evaluate", None),
)


class TraceError(RuntimeError):
    """A function listed for tracing has no binding to patch."""


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "phase", "count")

    def __init__(self, name, layer, start, parent, phase):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.count = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn, count):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, stack[-1] if stack else -1, self.phase)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "emn" or n.startswith("emn.")
        ]
        for layer, module_name, fn_name, count in TRACED:
            home = sys.modules.get(module_name)
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.uninstall()
                raise TraceError(f"{module_name}.{fn_name}: no binding to patch")
            wrapper = self._wrap(layer, f"{layer}.{fn_name}", original, count)
            for module in modules:
                names = [k for k, v in vars(module).items() if v is original]
                for attr in names:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
