"""Span tracer for the traced benchmark run.

Wraps, from outside the package, every public function of each
``torusflow`` module (plus the cross-module spectral helpers
``_advect_arrays``, ``_to_physical`` and ``_to_spectral``) and the
``numpy.fft`` entry points.  Each call records a span ``[name, start, end,
parent]``; spans stay in memory and are summarised into per-layer metrics
once the traced experiment ends.  ``uninstall`` puts every original
binding back.

The tracer keeps one span stack, so it assumes one thread of torusflow
code; the benchmark pins ``SYNERGY_THREADS=1``.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

import numpy as np

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
# complex128 in and out, counted once each way
FFT_BYTES_PER_POINT = 16 * 2

# private spectral helpers called from other modules, with their layer
SPECTRAL_HELPERS = {
    "_advect_arrays": "spectral.advect",
    "_to_physical": "spectral.ops",
    "_to_spectral": "spectral.ops",
}
STEP_SPANS = ("solvers.step_strong", "solvers.step_mild")
LAYERS = (
    "cli", "config", "experiments", "solvers", "diagnostics", "operators", "dyadic",
    "oracles", "snapshots", "spectral.ops", "spectral.advect", "spectral.fft",
)
_STEP_BIT = 1 << len(LAYERS)
_LAYER_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}


def _layer_for(module_short: str, name: str) -> str:
    if module_short == "spectral":
        return SPECTRAL_HELPERS.get(name, "spectral.ops")
    return module_short


def _torusflow_modules() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "torusflow" or key.startswith("torusflow."))
    ]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.layer_of: dict[str, str] = {}
        self.fft_points = 0
        self.snapshot_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, fn, name: str, layer: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_fft(self, args, result):
        self.fft_points += max(np.size(args[0]), result.size)

    def _count_snapshot(self, args, result):
        self.snapshot_bytes += os.path.getsize(args[0])

    def _patch(self, namespace, attr: str, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self) -> "Tracer":
        modules = _torusflow_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and not (short == "spectral" and name in SPECTRAL_HELPERS):
                    continue
                span_name = f"{short}.{name}"
                after = self._count_snapshot if span_name == "snapshots.write_snapshot" else None
                wrappers[id(obj)] = self._wrap(obj, span_name, _layer_for(short, name), after)
        # every binding of a wrapped function, including from-imports elsewhere
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        for name in FFT_NAMES:
            fn = getattr(np.fft, name)
            self._patch(np.fft, name, self._wrap(fn, f"numpy.fft.{name}", "spectral.fft",
                                                 self._count_fft))
        return self

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # summary

    def summarize(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; wall_s is the traced call's time."""
        spans = self.spans
        n = len(spans)
        own = [0] * n
        above = [0] * n  # bits of the layers (and step spans) among a span's ancestors
        child_time = [0.0] * n
        for i, (name, start, end, parent) in enumerate(spans):
            own[i] = _LAYER_BIT[self.layer_of[name]] | (_STEP_BIT if name in STEP_SPANS else 0)
            if parent >= 0:
                above[i] = above[parent] | own[parent]
                child_time[parent] += end - start

        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        incl_s = dict.fromkeys(LAYERS, 0.0)
        step_ms = []
        fft_in_steps = advect_in_steps = advect_in_diag = files = 0
        root_s = 0.0
        diag_bit = _LAYER_BIT["diagnostics"]
        for i, (name, start, end, parent) in enumerate(spans):
            layer = self.layer_of[name]
            dur = end - start
            calls[layer] += 1
            self_s[layer] += dur - child_time[i]
            if not above[i] & _LAYER_BIT[layer]:
                incl_s[layer] += dur
            if parent < 0:
                root_s += dur
            if name in STEP_SPANS:
                step_ms.append(1e3 * dur)
            elif name == "snapshots.write_snapshot":
                files += 1
            if layer == "spectral.fft" and above[i] & _STEP_BIT:
                fft_in_steps += 1
            if layer == "spectral.advect":
                advect_in_steps += bool(above[i] & _STEP_BIT)
                advect_in_diag += bool(above[i] & diag_bit)

        steps = len(step_ms)
        return {
            "spectral.fft.calls": calls["spectral.fft"],
            "spectral.fft.points": self.fft_points,
            "spectral.fft.bytes_computed": self.fft_points * FFT_BYTES_PER_POINT,
            "spectral.fft.self_s": self_s["spectral.fft"],
            "spectral.advect.calls": calls["spectral.advect"],
            "spectral.advect.self_s": self_s["spectral.advect"],
            "spectral.ops.calls": calls["spectral.ops"],
            "spectral.ops.self_s": self_s["spectral.ops"],
            "solvers.steps": steps,
            "solvers.step_ms": statistics.median(step_ms) if step_ms else 0.0,
            "solvers.fft_per_step": fft_in_steps / steps if steps else 0.0,
            "solvers.advect_per_step": advect_in_steps / steps if steps else 0.0,
            "solvers.self_s": self_s["solvers"],
            "solvers.incl_s": incl_s["solvers"],
            "diagnostics.calls": calls["diagnostics"],
            "diagnostics.self_s": self_s["diagnostics"],
            "diagnostics.incl_s": incl_s["diagnostics"],
            "diagnostics.advect_calls": advect_in_diag,
            "diagnostics.to_solver_ratio": (
                incl_s["diagnostics"] / incl_s["solvers"] if incl_s["solvers"] else 0.0
            ),
            "operators.calls": calls["operators"],
            "operators.self_s": self_s["operators"],
            "operators.incl_s": incl_s["operators"],
            "dyadic.calls": calls["dyadic"],
            "dyadic.self_s": self_s["dyadic"],
            "oracles.calls": calls["oracles"],
            "oracles.self_s": self_s["oracles"],
            "experiments.self_s": self_s["experiments"],
            "snapshots.files": files,
            "snapshots.bytes_written": self.snapshot_bytes,
            "snapshots.self_s": self_s["snapshots"],
            "trace.spans": n,
            "trace.wall_s": wall_s,
            # time of the traced call that no module span below the CLI covers
            "trace.unattributed_s": wall_s - root_s + self_s["cli"],
        }

    def dump(self) -> dict:
        """Spans as plain data: span names once, then [name index, start, end, parent]."""
        names = sorted(self.layer_of)
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "layers": [self.layer_of[name] for name in names],
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
        }
