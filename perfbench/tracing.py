"""Per-layer tracing of qworkstats from outside the library.

A layer is one module of the package. Every public function of a layer (a
plain function named in the module's ``__all__``) is wrapped, and the wrapper
is bound in place of the original in every ``qworkstats`` module namespace,
so calls inside a module and between modules are recorded as well as calls
from the benchmark. Nothing in the library source changes.

While the tracer is active each wrapped call records one span
``(layer, function, start, end, parent)`` in process CPU time. Spans stay in
memory; :meth:`Tracer.metrics` reduces them to per-layer self time (a span's
duration minus its direct children) and call counts, plus the work counters
named in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "linalg",
    "drive",
    "fcs",
    "tmp",
    "open_system",
    "paths",
    "serialize",
    "scenario",
    "runner",
    "cli",
)

# Public open-system calls that each build their own step cache.
_CACHE_BUILDERS = frozenset(
    {
        "measurement_block",
        "full_counting_operator",
        "heat_counting_operator",
        "environment_counting_operator",
        "open_characteristic_function",
        "heat_ledger",
        "work_via_increments",
    }
)

# Counters reported besides ``<layer>.self_s`` and ``<layer>.calls``.
COUNTERS = (
    "drive.steps_sampled",
    "drive.auto_steps",
    "drive.auto_rounds",
    "drive.evolution_operator.calls",
    "fcs.spectral_terms",
    "fcs.lambda_points",
    "fcs.quasi_bins",
    "tmp.outcomes",
    "open_system.cache_builds",
    "open_system.lambda_points",
    "linalg.eig_hermitian.calls",
    "paths.records",
    "serialize.bytes_written",
    "serialize.files_written",
)


def _written_paths(result) -> list[Path]:
    return [Path(p) for p in (result if isinstance(result, list) else [result])]


class Tracer:
    """Wraps the layer functions once; records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self._installed: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"qworkstats.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[fn] = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qworkstats" and not mod_name.startswith("qworkstats."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self.active = False

    def reset(self) -> None:
        """Drop all spans and counters (start of a pass)."""
        self.spans: list[tuple | None] = []
        self.counts.clear()
        self._stack: list[tuple[int, str]] = []
        self._distinct_drives = 0
        self.begin_op()

    def begin_op(self) -> None:
        """Start a new op: evolution-operator reuse is judged within one op."""
        self._seen_drives: dict[int, weakref.ref] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        clock = time.process_time
        hook = self._hook_for(layer, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else (-1, "")
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (layer, name, start, end, parent[0])
            if hook is not None:
                hook(args, kwargs, result, parent[1])
            return result

        return wrapper

    def _hook_for(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)

        def arg(args, kwargs, key):
            return signature.bind(*args, **kwargs).arguments[key]

        c = self.counts
        if (layer, name) == ("drive", "discretize"):
            def hook(args, kwargs, result, parent):
                c["drive.steps_sampled"] += result.n_steps
                if parent == "discretize_to_tolerance":
                    c["drive.auto_rounds"] += 1
        elif (layer, name) == ("drive", "discretize_to_tolerance"):
            def hook(args, kwargs, result, parent):
                c["drive.auto_steps"] += result.n_steps
        elif (layer, name) == ("drive", "evolution_operator"):
            def hook(args, kwargs, result, parent):
                self._note_drive(arg(args, kwargs, "drive"))
        elif (layer, name) == ("fcs", "spectral_decomposition"):
            def hook(args, kwargs, result, parent):
                c["fcs.spectral_terms"] += len(result)
        elif (layer, name) == ("fcs", "characteristic_function"):
            def hook(args, kwargs, result, parent):
                c["fcs.lambda_points"] += arg(args, kwargs, "grid").size
        elif (layer, name) == ("fcs", "quasi_distribution"):
            def hook(args, kwargs, result, parent):
                c["fcs.quasi_bins"] += result.support.size
        elif (layer, name) == ("tmp", "tmp_distribution"):
            def hook(args, kwargs, result, parent):
                c["tmp.outcomes"] += len(result)
        elif layer == "open_system" and name in _CACHE_BUILDERS:
            def hook(args, kwargs, result, parent):
                c["open_system.cache_builds"] += 1
                if name == "open_characteristic_function":
                    c["open_system.lambda_points"] += arg(args, kwargs, "grid").size
        elif (layer, name) == ("paths", "enumerate_paths"):
            def hook(args, kwargs, result, parent):
                c["paths.records"] += len(result)
        elif layer == "serialize" and name.startswith("write_"):
            def hook(args, kwargs, result, parent):
                for path in _written_paths(result):
                    c["serialize.files_written"] += 1
                    c["serialize.bytes_written"] += path.stat().st_size
        else:
            hook = None
        return hook

    def _note_drive(self, drive) -> None:
        key = id(drive)
        seen = self._seen_drives.get(key)
        if seen is None or seen() is not drive:
            self._seen_drives[key] = weakref.ref(drive)
            self._distinct_drives += 1

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and calls plus the counters, for one pass."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        by_function: Counter = Counter()
        for index, (layer, name, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_time[index]
            calls[layer] += 1
            by_function[f"{layer}.{name}"] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        counts = dict(self.counts)
        counts["drive.evolution_operator.calls"] = by_function["drive.evolution_operator"]
        counts["linalg.eig_hermitian.calls"] = by_function["linalg.eig_hermitian"]
        for key in COUNTERS:
            out[key] = counts.get(key, 0)
        evo_calls = counts["drive.evolution_operator.calls"]
        out["drive.evolution_operator.useful_ratio"] = (
            self._distinct_drives / evo_calls if evo_calls else 1.0
        )
        return out
