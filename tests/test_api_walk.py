"""The ``__all__`` walk: every numeric argument of the public API refuses NaN and infinities.

Each exported function and record, the record methods that map coordinates or
indices (``StraightenTransform``'s two world/pixel maps, ``Volume3D``'s two
world/voxel maps and ``AnchorGrid.locate``), ``evaluate_study_set`` and
``PipelineConfig.from_dict`` (given the two soft-argmax settings an older config
echoes) have one valid call below.
For each argument that holds numbers (a number, or numbers nested in lists,
tuples, dicts and arrays), NaN, +inf and -inf are put in turn at a drawn
position, and the call must raise ValueError (or its subclass GeometryError)
whose message names the argument.  Arguments that may stay non-finite are listed in ``EXEMPT``, each
with its reason, and exports with no numeric argument in ``NOT_WALKED``.

The range axis: each argument with a domain (``core.DOMAINS``), a record's field given one
through ``core.check_number_fields`` included, listed in ``RANGES``, is given
0 and a value outside its domain, which must raise a plain ValueError naming the argument and
the domain, and the bounds its domain includes, which must be accepted.
"""
import functools
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinequant
from spinequant import (AnchorGrid, CenterlinePolyline, DetectionTargets, PhantomConfig,
                        PipelineConfig, SpineCurve, StraightenedImage, StraightenTransform,
                        VertebraKeypoints, Volume3D, assign_targets, build_spine_curve,
                        centerline_target, classification_report, decode_keypoints, detect,
                        detect_candidates, detection_loss, detection_loss_grad,
                        encode_keypoints, genant_index, generate_anchors, grade,
                        match_detections, nms, oracle_heatmaps,
                        patient_score, roc_auc, run_phantom_chain, slicewise_centerline,
                        soft_argmax_2d, straighten_plane, upsample_curve)

EXEMPT = {
    ("Volume3D", "values"): "image intensities: one pass over the default phantom costs "
                            "1.2 ms, and read_vg1 refuses non-finite voxels at the file boundary",
    ("StraightenedImage", "values"): "the plane sampled from a Volume3D, whose values are exempt",
    ("DetectionTargets", "offsets"): "inf by design where an encoding leaves the float range "
                                     "(assign_targets); pack_targets refuses such offsets",
}
NOT_WALKED = {
    "EvalReport": "an output record that evaluate_study_set fills after construction",
    "GenantMeasurement": "an output record: measure makes it from checked keypoints",
    **dict.fromkeys(("FormatError", "GeometryError", "UndefinedMetricError"), "exceptions"),
    **dict.fromkeys(("generate_phantom", "heights", "read_va1", "read_vg1",
                     "write_va1", "write_vg1"),
                    "takes only records and paths, which check their numbers themselves"),
}
F32_MAX = float(np.finfo(np.float32).max)
# Where a message names an argument by more than its name.
NAMED = {("evaluation.evaluate_study_set", "studies"): r"^study \d+: "}


def vertebra(cz: float) -> VertebraKeypoints:
    """Ten mm tall, six mm deep keypoints centered on (8, 8, cz)."""
    return VertebraKeypoints([[8.0, 8.0 + dy, cz + dz] for dy in (-3.0, 0.0, 3.0)
                              for dz in (5.0, -5.0)])


def box_keypoints(cx, cy, w, h) -> np.ndarray:
    """(6, 2) image keypoints whose tight box is (cx, cy, w, h)."""
    return np.array([[cx + dx * w / 2, cy + dy * h / 2] for dx in (-1, 0, 1) for dy in (-1, 1)])


@functools.cache
def shapes():
    """Shared records of a small straight spine, built once: never mutated by the walk."""
    polyline = CenterlinePolyline(np.full((20, 2), [10.0, 12.0]), np.arange(0.0, 40.0, 2.0))
    curve = build_spine_curve(polyline, step=1.0)
    vol = Volume3D(np.zeros((20, 24, 44), dtype=np.float32), (1.0, 1.0, 1.0))
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=3.0).transform
    anchors = generate_anchors((4, 3), 1.0, scales_mm=(3.0,), ratios=(1.0,))
    targets = DetectionTargets((2, 2, 1), np.arange(4), np.zeros(4, dtype=int),
                               np.zeros((4, 6, 2)), np.ones(4))
    return polyline, curve, vol, transform, anchors, targets


def _calls():
    """name -> (callable, keyword arguments of one valid call), made fresh per call."""
    polyline, curve, vol, transform, anchors, targets = shapes()
    rng = np.random.default_rng(5)
    cuts = {"mild_cut": 0.8, "moderate_cut": 0.74, "severe_cut": 0.6}
    kps_mm = [vertebra(10.0).points, vertebra(30.0).points]
    boxes = [np.array([5.0, 5.0, 4.0, 4.0]), np.array([15.0, 5.0, 4.0, 4.0])]
    return {
        "AnchorGrid": (AnchorGrid, {"image_shape": (4, 3), "sides_px": np.array([[2.0, 3.0]])}),
        "CenterlinePolyline": (CenterlinePolyline, {"xy": polyline.xy, "z": polyline.z}),
        "DetectionTargets": (DetectionTargets, {
            "shape": (2, 2, 1), "index": np.arange(4), "matched": np.zeros(4, dtype=int),
            "offsets": np.zeros((4, 6, 2)), "genant_weights": np.ones(4)}),
        "PhantomConfig": (PhantomConfig, {**PhantomConfig().to_dict(),
                                          "heights_mm": ((20.0, 20.0, 20.0),)}),
        "PipelineConfig": (PipelineConfig, PipelineConfig().to_dict()),
        "PipelineConfig.from_dict": (lambda **doc: PipelineConfig.from_dict(doc), {
            "softargmax_mode": "probabilities", "softargmax_temperature": 1.0}),
        "SpineCurve": (SpineCurve, {k: getattr(curve, k)
                                    for k in ("s", "centers", "t", "u", "v")}),
        "StraightenTransform": (StraightenTransform, {
            k: getattr(transform, k) for k in ("s", "centers", "u", "v", "delta", "j_half")}),
        "StraightenedImage": (StraightenedImage, {"values": np.zeros((7, transform.n_rows)),
                                                  "transform": transform}),
        "VertebraKeypoints": (VertebraKeypoints, {"points": vertebra(10.0).points,
                                                  "label": "V1"}),
        "Volume3D": (Volume3D, {"values": np.zeros((2, 2, 2)), "spacing": (1.0, 1.0, 1.0),
                                "origin": (0.0, 0.0, 0.0)}),
        "Volume3D.voxel_to_world": (vol.voxel_to_world, {"idx": np.array([[1.0, 2.0, 3.5],
                                                                          [0.0, 4.0, 9.0]])}),
        "Volume3D.world_to_voxel": (vol.world_to_voxel, {"pts": np.array([2.0, 3.0, 4.5])}),
        "AnchorGrid.locate": (anchors.locate, {"index": np.array([0, 5, 11])}),
        "StraightenTransform.pixel_to_world": (transform.pixel_to_world,
                                               {"xy": np.array([[1.0, 2.0], [3.0, 4.5]])}),
        "StraightenTransform.world_to_pixel": (transform.world_to_pixel,
                                               {"pts": transform.centers[[3, 5]] + 0.5}),
        "assign_targets": (assign_targets, {
            "anchors": generate_anchors((20, 10), 1.0, scales_mm=(4.0,), ratios=(1.0,)),
            "ground_truth": [(box_keypoints(5.0, 5.0, 4.0, 4.0), 0.9),
                             (box_keypoints(15.0, 5.0, 4.0, 4.0), 0.7)],
            "iou_threshold": 0.5}),
        "build_spine_curve": (build_spine_curve, {"polyline": polyline, "step": 1.0,
                                                  "smoothing": 10.0, "pad_mm": 2.0}),
        "centerline_target": (centerline_target, {
            "annotations": [vertebra(10.0), vertebra(30.0)], "z_slices": np.arange(0.0, 40.0)}),
        "classification_report": (classification_report, {
            "pred_genant": [0.5, 0.7, 0.9], "gt_genant": [0.6, 0.5, 0.9], "threshold": 0.8}),
        "decode_keypoints": (decode_keypoints, {"offsets": rng.normal(0.0, 0.3, (2, 6, 2)),
                                                "centers": [[1.0, 2.0], [3.0, 1.0]],
                                                "sides": [[2.0, 3.0], [3.0, 3.0]]}),
        "detect": (detect, {"objectness_map": np.full((4, 3, 1), 0.9),
                            "offsets_map": rng.normal(0.0, 0.3, (4, 3, 1, 6, 2)),
                            "anchors": anchors, "score_threshold": 0.5, "iou_threshold": 0.45}),
        "detect_candidates": (detect_candidates, {
            "index": np.arange(12), "scores": np.ones(12),
            "offsets": rng.normal(0.0, 0.3, (12, 6, 2)), "anchors": anchors,
            "score_threshold": 0.5, "iou_threshold": 0.45}),
        "detection_loss": (detection_loss, {
            "pred_objectness": np.full((2, 2, 1), 0.7),
            "pred_offsets": rng.normal(0.0, 0.3, (2, 2, 1, 6, 2)), "targets": targets}),
        "detection_loss_grad": (detection_loss_grad, {
            "pred_objectness": np.full((2, 2, 1), 0.7),
            "pred_offsets": rng.normal(0.0, 0.3, (2, 2, 1, 6, 2)), "targets": targets}),
        "encode_keypoints": (encode_keypoints, {"keypoints": rng.normal(0.0, 3.0, (2, 6, 2)),
                                                "centers": [[1.0, 2.0], [3.0, 1.0]],
                                                "sides": [[2.0, 3.0], [3.0, 3.0]]}),
        "evaluation.evaluate_study_set": (spinequant.evaluation.evaluate_study_set, {
            "studies": [{"detections": [(kps, 0.8, 0.9) for kps in kps_mm],
                         "ground_truth": [(kps, 0.8) for kps in kps_mm]}],
            "iou_threshold": 0.5, "mild_cut": 0.8, "moderate_cut": 0.74}),
        "genant_index": (genant_index, {"h_a": 8.0, "h_m": 10.0, "h_p": 10.0}),
        "generate_anchors": (generate_anchors, {"image_shape": (4, 3), "pixel_spacing": 1.0,
                                                "scales_mm": (3.0, 4.0), "ratios": (1.0, 2.0)}),
        "grade": (grade, {"g": 0.7, **cuts}),
        "match_detections": (match_detections, {
            "detections": [(boxes[0], 0.9), (boxes[1], 0.5)], "ground_truth": boxes,
            "iou_threshold": 0.5}),
        "nms": (nms, {"boxes": np.array(boxes), "scores": np.array([0.9, 0.5]),
                      "iou_threshold": 0.45}),
        "oracle_heatmaps": (oracle_heatmaps, {
            "annotations": [vertebra(10.0), vertebra(30.0)],
            "vol": Volume3D(np.zeros((16, 16, 40), dtype=np.float32), (1.0, 1.0, 1.0)),
            "sigma_vox": 2.0}),
        "patient_score": (patient_score, {"indices": [0.9, 0.7], **cuts}),
        "roc_auc": (roc_auc, {"scores": [0.9, 0.5, 0.2], "labels": [True, False, True]}),
        "run_phantom_chain": (run_phantom_chain, {
            "phantom_cfg": PhantomConfig(n_vertebrae=5, shape=(80, 80, 144), seed=13),
            "cfg": PipelineConfig(half_extent_mm=(35.0, 35.0))}),
        "slicewise_centerline": (slicewise_centerline, {
            "maps": Volume3D(np.ones((4, 4, 3)), (1.0, 1.0, 1.0))}),
        "soft_argmax_2d": (soft_argmax_2d, {"values": np.arange(12.0).reshape(4, 3)}),
        "straighten_plane": (straighten_plane, {"vol": vol, "curve": curve, "delta": 1.0,
                                                "half_extent": 3.0, "fill": -1024.0}),
        "upsample_curve": (upsample_curve, {"curve": polyline,
                                            "z_fine": np.arange(1.0, 37.0, 0.5)}),
    }


def leaves(value, path=()) -> list[tuple]:
    """Paths to the numbers an argument holds, in lists, tuples, dicts and arrays.

    An array element's path ends in its flat index; records, strings and None hold none.
    """
    if isinstance(value, np.ndarray):
        return [path + (i,) for i in range(value.size)]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in leaves(v, path + (i,))]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in leaves(v, path + (k,))]
    return [path] if isinstance(value, numbers.Number) else []


def inject(value, path: tuple, bad: float):
    """A copy of ``value`` with ``bad`` at ``path`` (an array becomes floating to hold it)."""
    if not path:
        return bad
    head, rest = path[0], path[1:]
    if isinstance(value, np.ndarray):
        out = value.astype(np.result_type(value.dtype, np.float16))
        out.flat[head] = bad
        return out
    if isinstance(value, dict):
        return {**value, head: inject(value[head], rest, bad)}
    items = list(value)
    items[head] = inject(items[head], rest, bad)
    return type(value)(items)


CASES = [(name, arg) for name, (_, kwargs) in _calls().items() for arg, value in kwargs.items()
         if leaves(value) and (name, arg) not in EXEMPT]


def test_the_walk_covers_every_export():
    calls = _calls()
    walked = {name for name in calls if "." not in name}
    assert walked.isdisjoint(NOT_WALKED)
    assert walked | NOT_WALKED.keys() == set(spinequant.__all__)
    assert all(arg in calls[name][1] for name, arg in EXEMPT)


@pytest.mark.parametrize("name", sorted(_calls()))
def test_each_valid_call_of_the_walk_succeeds(name):
    fn, kwargs = _calls()[name]
    fn(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, arg", CASES, ids=[f"{name}-{arg}" for name, arg in CASES])
@settings(derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_every_numeric_argument_refuses_non_finite_values_by_name(name, arg, bad, data):
    fn, kwargs = _calls()[name]
    paths = leaves(kwargs[arg])
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="position")]
    with pytest.raises(ValueError) as exc:
        fn(**{**kwargs, arg: inject(kwargs[arg], path, bad)})
    assert re.search(NAMED.get((name, arg), rf"(?<!\w){arg}(?!\w)"), str(exc.value))


@pytest.mark.parametrize("name, arg, value", [
    ("Volume3D.voxel_to_world", "idx", [np.nan, 0.0, 0.0]),
    ("Volume3D.voxel_to_world", "idx", [[1.0, 2.0]]),
    ("Volume3D.world_to_voxel", "pts", [np.inf, 0.0, 0.0]),
    ("Volume3D.world_to_voxel", "pts", 3.0),
    ("AnchorGrid.locate", "index", np.array([1.5])),
    ("AnchorGrid.locate", "index", np.array([12])),
    ("AnchorGrid.locate", "index", np.array([10**6])),
    ("AnchorGrid.locate", "index", np.array([-1])),
    ("AnchorGrid.locate", "index", np.array([[1, 2]])),
], ids=["nan voxel", "voxel pair", "inf point", "scalar point", "float index",
        "index one past the grid", "index far past the grid", "negative index", "2d index"])
def test_record_methods_refuse_bad_shapes_and_indices_by_name(name, arg, value):
    # These once passed NaN and inf through, raised numpy's errors (a TypeError for
    # the float index), or returned a center off the grid: (333333, 1) for 10**6.
    fn, kwargs = _calls()[name]
    with pytest.raises(ValueError, match=rf"^{arg} must be") as exc:
        fn(**{**kwargs, arg: value})
    assert exc.type is ValueError


@pytest.mark.parametrize("name, arg, value", [
    ("match_detections", "ground_truth", np.full((1, 2, 4), 4.0)),
    ("match_detections", "ground_truth", np.full((1, 1, 4), 4.0)),
    ("Volume3D", "values", np.zeros((2, 2, 2, 1))),
    ("StraightenedImage", "values", np.zeros((6, 3))),
], ids=["two boxes a row", "box with an extra axis", "4d volume", "plane of another shape"])
def test_arrays_of_the_wrong_shape_are_refused_by_name(name, arg, value):
    # These once raised numpy's "cannot reshape array of size 8 into shape (1,4)", took
    # the extra axis, or spoke of a "3D array" or a "sagittal image" without naming values.
    fn, kwargs = _calls()[name]
    with pytest.raises(ValueError, match=rf"^{arg}\b"):
        fn(**{**kwargs, arg: value})


@pytest.mark.parametrize("name", ["PipelineConfig", "straighten_plane"])
@pytest.mark.parametrize("fill", [1e39, -3.5e38, float(np.nextafter(F32_MAX, np.inf)),
                                  float(np.nextafter(-F32_MAX, -np.inf))])
def test_a_fill_past_the_float32_range_is_refused_by_name(name, fill):
    # straighten_plane once cast such a fill to inf in the plane, with a RuntimeWarning
    # (an error under the suite's warning filter), and PipelineConfig passed it on.  The
    # nearest doubles past the bound would round to float32 max, and are refused all the same.
    fn, kwargs = _calls()[name]
    with pytest.raises(ValueError, match=r"^fill must be in \[-3.4e38, 3.4e38\], got") as exc:
        fn(**{**kwargs, "fill": fill})
    assert exc.type is ValueError
    for bound in (F32_MAX, -F32_MAX):
        fn(**{**kwargs, "fill": bound})


# (call, argument, position of the number in it, domain): every ranged argument of the walk,
# record fields included.
RANGES = [
    ("AnchorGrid", "image_shape", (0,), "> 0"),
    ("AnchorGrid", "sides_px", (1,), "> 0"),
    ("DetectionTargets", "shape", (1,), "> 0"),
    ("DetectionTargets", "matched", (2,), ">= 0"),
    ("DetectionTargets", "genant_weights", (3,), "(0, 1]"),
    ("PhantomConfig", "spacing", (2,), "> 0"),
    ("PhantomConfig", "scoliosis_wavelength_mm", (), "> 0"),
    ("PhantomConfig", "pitch_mm", (), "> 0"),
    ("PhantomConfig", "body_width_mm", (), "> 0"),
    ("PhantomConfig", "body_depth_mm", (), "> 0"),
    ("PhantomConfig", "heights_mm", (0, 1), "> 0"),
    ("PhantomConfig", "seed", (), ">= 0"),
    ("PipelineConfig", "working_spacing_mm", (), "> 0"),
    ("PipelineConfig", "delta_mm", (), "> 0"),
    ("PipelineConfig", "half_extent_mm", (1,), ">= 0"),
    ("PipelineConfig", "smoothing_lambda", (), ">= 0"),
    ("PipelineConfig", "curve_pad_mm", (), ">= 0"),
    ("PipelineConfig", "anchor_scales_mm", (0,), "> 0"),
    ("PipelineConfig", "anchor_ratios", (2,), "> 0"),
    ("PipelineConfig", "objectness_threshold", (), "[0, 1]"),
    ("PipelineConfig", "nms_iou", (), "(0, 1]"),
    ("PipelineConfig", "assign_iou", (), "(0, 1]"),
    ("PipelineConfig", "match_iou", (), "(0, 1]"),
    ("PipelineConfig.from_dict", "softargmax_temperature", (), "> 0"),
    ("StraightenTransform", "delta", (), "> 0"),
    ("StraightenTransform", "j_half", (), ">= 0"),
    ("Volume3D", "spacing", (1,), "> 0"),
    ("assign_targets", "ground_truth", (1, 1), "(0, 1]"),
    ("assign_targets", "iou_threshold", (), "(0, 1]"),
    ("build_spine_curve", "step", (), "> 0"),
    ("build_spine_curve", "smoothing", (), ">= 0"),
    ("build_spine_curve", "pad_mm", (), ">= 0"),
    ("decode_keypoints", "sides", (1, 0), "> 0"),
    ("detect", "score_threshold", (), "[0, 1]"),
    ("detect", "iou_threshold", (), "(0, 1]"),
    ("detect_candidates", "score_threshold", (), "[0, 1]"),
    ("detect_candidates", "iou_threshold", (), "(0, 1]"),
    ("encode_keypoints", "sides", (0, 1), "> 0"),
    ("evaluation.evaluate_study_set", "iou_threshold", (), "(0, 1]"),
    ("genant_index", "h_a", (), "> 0"),
    ("genant_index", "h_m", (), "> 0"),
    ("genant_index", "h_p", (), "> 0"),
    ("generate_anchors", "image_shape", (1,), "> 0"),
    ("generate_anchors", "pixel_spacing", (), "> 0"),
    ("generate_anchors", "scales_mm", (1,), "> 0"),
    ("generate_anchors", "ratios", (0,), "> 0"),
    ("match_detections", "iou_threshold", (), "(0, 1]"),
    ("nms", "iou_threshold", (), "(0, 1]"),
    ("nms", "boxes", (7,), "> 0"),
    ("oracle_heatmaps", "sigma_vox", (), "> 0"),
    ("straighten_plane", "delta", (), "> 0"),
    ("straighten_plane", "half_extent", (), ">= 0"),
]
# Per domain: 0 and the values outside it that must be refused (integers where an integer
# is read, so the domain and not the type refuses them), and the bounds it includes.
REFUSED = {"> 0": (0, -1), ">= 0": (-1,), "(0, 1]": (0, 1.5, -0.1), "[0, 1]": (-0.1, 1.5)}
BOUNDS = {"> 0": (), ">= 0": (0,), "(0, 1]": (1,), "[0, 1]": (0, 1)}


def test_the_range_table_names_arguments_of_the_walk():
    calls = _calls()
    for name, arg, path, _ in RANGES:
        assert path in leaves(calls[name][1][arg])


@pytest.mark.parametrize("name, arg, path, domain, value", [
    (*case, value) for case in RANGES for value in REFUSED[case[3]]],
    ids=[f"{name}-{arg}={value}" for name, arg, _, domain in RANGES for value in REFUSED[domain]])
def test_every_ranged_argument_refuses_values_outside_its_domain_by_name(name, arg, path,
                                                                         domain, value):
    # Before the domain rule, a soft-argmax temperature of 0 or -1, smoothing and pad_mm -1,
    # half_extent -1 (refused as j_half), AnchorGrid's image side 0 and anchor side -1
    # passed or were refused without their name, and a side of 0 in encode_keypoints
    # divided by zero.
    fn, kwargs = _calls()[name]
    with pytest.raises(ValueError) as exc:
        fn(**{**kwargs, arg: inject(kwargs[arg], path, value)})
    assert exc.type is ValueError
    assert re.search(rf"(?<!\w){arg}(?!\w)", str(exc.value)) and domain in str(exc.value)


@pytest.mark.parametrize("name, arg, path, value", [
    (name, arg, path, value) for name, arg, path, domain in RANGES for value in BOUNDS[domain]],
    ids=[f"{name}-{arg}={value}" for name, arg, _, domain in RANGES for value in BOUNDS[domain]])
def test_every_ranged_argument_accepts_the_bounds_of_its_domain(name, arg, path, value):
    fn, kwargs = _calls()[name]
    fn(**{**kwargs, arg: inject(kwargs[arg], path, value)})
