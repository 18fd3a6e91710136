"""Spans and counters around marmopipe's public functions, for the traced pass.

``install`` replaces every module attribute through which the pipeline looks
up a traced function with a wrapper.  Each call records a span (id, name,
start, end, parent id) in memory; some wrappers also count the work done.
The package source is not modified: the wrappers live only in the worker
process that installed them.

Self time is a span's duration minus the part of it that its child spans
cover.  Calls made from ``cli._pmap`` worker threads have the span that is
open in the main thread as their parent, so a stage's self time excludes
the work it fanned out.  Overlapping children count once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)
STAGES = ("stitch", "locate", "tracer", "map", "connectivity")

# module -> functions wrapped there; spans are named "<package module>.<function>",
# without a leading underscore (metric names start with a letter or digit)
TARGETS = {
    "marmopipe.cli": ("_hash_files",),
    "marmopipe.imgcore": ("read_tile", "read_stack", "write_stack", "downsample_stack", "gaussian_blur"),
    "marmopipe.flatfield": ("estimate_shading", "correct_tile"),
    "marmopipe.stitch": ("assemble_slice", "assemble_stack"),
    "marmopipe.injsite": ("rough_localize", "hessian_cell_filter", "detect_cells"),
    "marmopipe.tracerseg": ("threshold_pipeline", "morph_reconstruct", "morph_close"),
    "marmopipe._cc": ("label_components",),
    "marmopipe.mapping": ("apply_field", "load_field", "projection_strengths", "injection_regions"),
    "marmopipe.nnseg.infer": ("sliding_window_predict",),
    "marmopipe.nnseg.layers": ("conv3x3_forward", "conv3x3_backward"),
    "marmopipe.nnseg.train": ("train",),
    "marmopipe.evalsynth": ("generate_phantom",),
}

# every per-layer metric the traced pass reports, with its unit
LAYER_METRICS = {}
for _stage in STAGES:
    LAYER_METRICS[f"cli.stage_{_stage}.s"] = "s"
    LAYER_METRICS[f"cli.stage_{_stage}.peak_mib"] = "MiB"
for _module, _names in TARGETS.items():
    for _name in _names:
        LAYER_METRICS[f"{_module.split('.')[1].lstrip('_')}.{_name}.s"] = "s"
LAYER_METRICS["mapping.RegionAtlas.load.s"] = "s"
LAYER_METRICS.update({
    "cli.hash_mib": "MiB",
    "imgcore.io_mib": "MiB",
    "injsite.cells": "count",
    "tracerseg.mask_px": "count",
    "cc.label_components.calls": "count",
    "cc.components": "count",
    "cc.us_per_component": "us",
    "mapping.voxels": "count",
    "mapping.identity_frac": "ratio",
    "nnseg.windows": "count",
    "nnseg.window_useful_frac": "ratio",
    "nnseg.conv3x3_gflop": "GFLOP",
    "nnseg.sgd_steps": "count",
})
del _stage, _module, _names, _name


class Tracer:
    """In-memory span and counter store for one operation of one worker."""

    def __init__(self, memory: bool):
        self.spans = []  # (id, name, start, end, parent)
        self.counts = defaultdict(float)
        self.memory = memory
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, stage=False):
        """Wrapper recording a span per call; ``count(args, kwargs, result)`` runs
        after the span closes, in a span of its own so that no layer pays for it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a _pmap pool thread: the main thread's open span caused it
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            if stage and self.memory:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
            if stage and self.memory:
                self.counts[f"{name}.peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
            if count is not None:
                with self._lock:  # _pmap threads update the same counters
                    count(self.counts, args, kwargs, result)
                self.spans.append((next(self._ids), "perfbench.count", t1, time.perf_counter(), parent))
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded so far."""
        children = defaultdict(list)
        for _, _, t0, t1, parent in self.spans:
            children[parent].append((t0, t1))
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sid, name, t0, t1, _ in self.spans:
            self_s[name] += (t1 - t0) - _covered(children[sid], t0, t1)
            total_s[name] += t1 - t0
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".s"):
                out[metric] = self_s.get(metric[:-2], 0.0)
            elif metric in self.counts:
                out[metric] = self.counts[metric]
            else:
                out[metric] = 0.0
        c = self.counts
        out["cc.us_per_component"] = 1e6 * _ratio(total_s["cc.label_components"], c["cc.components"])
        out["mapping.identity_frac"] = _ratio(c["mapping.identity_voxels"], c["mapping.voxels"])
        out["nnseg.window_useful_frac"] = _ratio(c["nnseg.kept_px"], c["nnseg.computed_px"])
        out["nnseg.conv3x3_gflop"] = c["nnseg.conv3x3_flop"] / 1e9
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_mib(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / MIB


def _counters():
    from marmopipe import imgcore
    from marmopipe.nnseg import infer

    def hash_files(c, args, kwargs, result):
        c["cli.hash_mib"] += _file_mib(*_arg(args, kwargs, 0, "paths"))

    def tile_io(c, args, kwargs, result):
        c["imgcore.io_mib"] += _file_mib(*imgcore._tile_paths(_arg(args, kwargs, 0, "path")))

    def read_stack(c, args, kwargs, result):
        c["imgcore.io_mib"] += _file_mib(*imgcore._stack_paths(_arg(args, kwargs, 0, "prefix")))

    def write_stack(c, args, kwargs, result):
        c["imgcore.io_mib"] += _file_mib(*imgcore._stack_paths(_arg(args, kwargs, 1, "prefix")))

    def cells(c, args, kwargs, result):
        c["injsite.cells"] += len(result)

    def mask_px(c, args, kwargs, result):
        c["tracerseg.mask_px"] += int(result.mask.sum())

    def components(c, args, kwargs, result):
        c["cc.label_components.calls"] += 1
        c["cc.components"] += result[1]

    def resample(c, args, kwargs, result):
        disp = _arg(args, kwargs, 1, "field").disp
        c["mapping.voxels"] += disp[0].size
        c["mapping.identity_voxels"] += int((~disp.any(axis=0)).sum())

    def windows(c, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        image = _arg(args, kwargs, 1, "image")
        nominal = kwargs.get("nominal_out", args[2] if len(args) > 2 else 92)
        h, w = image.shape[-2:]
        rows = infer._chunk(h, nominal, net.depth, net.margin)
        cols = infer._chunk(w, nominal, net.depth, net.margin)
        c["nnseg.windows"] += len(rows) * len(cols)
        c["nnseg.computed_px"] += sum(r for _, r in rows) * sum(q for _, q in cols)
        c["nnseg.kept_px"] += h * w

    def conv_forward(c, args, kwargs, result):
        f, ch = _arg(args, kwargs, 1, "weight").shape[:2]
        c["nnseg.conv3x3_flop"] += 2 * 9 * ch * f * result.shape[1] * result.shape[2]

    def conv_backward(c, args, kwargs, result):
        f, ch = _arg(args, kwargs, 1, "weight").shape[:2]
        dy = _arg(args, kwargs, 2, "dy")
        c["nnseg.conv3x3_flop"] += 2 * 2 * 9 * ch * f * dy.shape[1] * dy.shape[2]

    def sgd_steps(c, args, kwargs, result):
        c["nnseg.sgd_steps"] += _arg(args, kwargs, 2, "steps")

    return {
        "cli._hash_files": hash_files,
        "imgcore.read_tile": tile_io,
        "imgcore.read_stack": read_stack,
        "imgcore.write_stack": write_stack,
        "injsite.detect_cells": cells,
        "tracerseg.threshold_pipeline": mask_px,
        "cc.label_components": components,
        "mapping.apply_field": resample,
        "nnseg.sliding_window_predict": windows,
        "nnseg.conv3x3_forward": conv_forward,
        "nnseg.conv3x3_backward": conv_backward,
        "nnseg.train": sgd_steps,
    }


def install(memory: bool) -> Tracer:
    """Wrap the traced functions wherever the package holds a reference to them."""
    from marmopipe import cli, mapping

    tracer = Tracer(memory)
    counters = _counters()
    replaced = {}
    for module_name, names in TARGETS.items():
        module = importlib.import_module(module_name)
        for name in names:
            span = f"{module_name.split('.')[1].lstrip('_')}.{name}"
            original = getattr(module, name)
            replaced[id(original)] = tracer.wrap(span, original, counters.get(span))
    for stage_name, fn in cli._STAGES:
        replaced[id(fn)] = tracer.wrap(f"cli.stage_{stage_name}", fn, stage=True)
    cli._STAGES[:] = [(name, replaced[id(fn)]) for name, fn in cli._STAGES]
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("marmopipe") and module is not None:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and callable(value):
                    setattr(module, attr, replaced[id(value)])
    load = mapping.RegionAtlas.__dict__["load"].__func__
    mapping.RegionAtlas.load = classmethod(tracer.wrap("mapping.RegionAtlas.load", load))
    if memory:
        tracemalloc.start()
    return tracer
