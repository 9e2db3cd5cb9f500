"""Outside-in span tracing for the benchmark's traced pass.

Public functions of spinequant are wrapped at every module attribute that
callers resolve them through, so the program itself is not changed. Each
call becomes a span ``[name, start, end, parent, op]`` kept in memory; a
layer's self time is its span duration minus the time its child spans cover.
Hooks turn arguments and results into named work counts at the same
boundaries. A target whose module or function no longer exists is skipped,
so its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "spinequant"
VG1_BYTES_PER_VOXEL = 4  # float32 blob


def _count_assign(counts, args, kwargs, out):
    anchors = kwargs.get("anchors", args[0] if args else None)
    counts["detection.anchors"] += anchors.n_anchors
    counts["detection.positives"] += out.n_positive


def _count_nms(counts, args, kwargs, out):
    counts["detection.candidates"] += len(kwargs.get("candidates", args[0] if args else ()))
    counts["detection.kept"] += len(out)


def _count_straighten(counts, args, kwargs, out):
    counts["straighten.samples"] += out[0].values.size  # computed from the grid


def _count_write_vg1(counts, args, kwargs, out):
    vol = kwargs.get("vol", args[1] if len(args) > 1 else None)
    # The header goes through write_json, which counts it; this is the blob.
    counts["formats.bytes_written"] += VG1_BYTES_PER_VOXEL * vol.values.size


def _count_write_json(counts, args, kwargs, out):
    counts["formats.bytes_written"] += os.path.getsize(kwargs.get("path", args[0]))


def _count_read_vg1(counts, args, kwargs, out):
    header = kwargs.get("path", args[0] if args else None)
    counts["formats.bytes_read"] += (os.path.getsize(header)
                                     + VG1_BYTES_PER_VOXEL * out.values.size)


def _count_read_va1(counts, args, kwargs, out):
    counts["formats.bytes_read"] += os.path.getsize(kwargs.get("path", args[0]))


# (span name, defining module, attribute path, only patch in these modules, hook)
TARGETS = (
    ("phantom.generate_phantom", "phantom", "generate_phantom", None, None),
    ("phantom.oracle_heatmaps", "phantom", "oracle_heatmaps", None, None),
    ("core.resample_volume", "core", "resample_volume", None, None),
    ("localization.slicewise_centerline", "localization", "slicewise_centerline", None, None),
    ("localization.upsample_curve", "localization", "upsample_curve", None, None),
    ("straighten.build_spine_curve", "straighten", "build_spine_curve", None, None),
    ("straighten.straighten_volume", "straighten", "straighten_volume", None,
     _count_straighten),
    ("straighten.world_to_pixel", "straighten", "StraightenTransform.world_to_pixel",
     None, None),
    ("StraightenTransform.pixel_to_world", "straighten",
     "StraightenTransform.pixel_to_world", None, None),
    ("detection.assign_targets", "detection", "assign_targets", None, _count_assign),
    ("detection.detect", "detection", "detect", None, None),
    ("detection.decode_keypoints", "detection", "decode_keypoints", None, None),
    ("detection.nms", "detection", "nms", None, _count_nms),
    # Only the detection layer's binding: evaluation matches with it too.
    ("detection.iou_matrix", "core", "iou_matrix", ("detection",), None),
    ("pipeline.run_phantom_chain", "pipeline", "run_phantom_chain", None, None),
    ("pipeline.extract_centerline", "pipeline", "extract_centerline", None, None),
    ("pipeline.straighten_stage", "pipeline", "straighten_stage", None, None),
    ("pipeline.targets_stage", "pipeline", "targets_stage", None, None),
    ("pipeline.score_stage", "pipeline", "score_stage", None, None),
    ("pipeline.score_detections", "pipeline", "score_detections", None, None),
    ("pipeline.rescore_chain", "pipeline", "rescore_chain", None, None),
    ("evaluation.evaluate_study_set", "evaluation", "evaluate_study_set", None, None),
    ("evaluation.roc_auc", "evaluation", "roc_auc", None, None),
    ("formats.write_vg1", "formats", "write_vg1", None, _count_write_vg1),
    ("formats.write_va1", "formats", "write_va1", None, None),
    ("formats.write_json", "formats", "write_json", None, _count_write_json),
    ("formats.read_vg1", "formats", "read_vg1", None, _count_read_vg1),
    ("formats.read_va1", "formats", "read_va1", None, _count_read_va1),
)


class Tracer:
    """In-memory span and count recorder.

    It records only while ``enabled`` (set by ``instrument``) and an op id
    is set, so untraced ops pass through it at no cost.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if self.op is None:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out
        return traced

    def self_times(self) -> Counter:
        """Summed self time (s) per span name."""
        own = Counter()
        for name, t0, t1, parent, _ in self.spans:
            own[name] += t1 - t0
            if parent is not None:
                own[self.spans[parent][0]] -= t1 - t0
        return own

    def write(self, path) -> None:
        """Write the spans, one JSON list per line, relative to the first start."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0 - t_base, t1 - t_base, parent, op]))
                fh.write("\n")


def _resolve(obj, path: str):
    owner = obj
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


@contextmanager
def instrument(tracer: Tracer):
    """Patch every binding of each target with a traced wrapper; undo on exit."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo = []
    try:
        for name, mod_name, path, only_in, hook in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                continue
            owner, attr, original = _resolve(module, path)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original, hook)
            if "." in path:  # a method: one binding, on its class
                bindings = [(owner, attr)]
            else:
                bindings = [(m, key) for m in modules for key, value in vars(m).items()
                            if value is original and (
                                only_in is None
                                or m.__name__.rsplit(".", 1)[-1] in only_in)]
            for target, key in bindings:
                undo.append((target, key, original))
                setattr(target, key, wrapper)
        tracer.enabled = True
        yield tracer
    finally:
        tracer.enabled = False
        for target, key, original in reversed(undo):
            setattr(target, key, original)
