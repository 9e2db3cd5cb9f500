"""End-to-end wiring of the two-step pipeline over in-memory objects.

Stage functions here are what the command-line layer and the demo scripts
call: straightening (centerline to mid-sagittal image), scoring (detections
to Genant grades in world space), target generation and evaluation.  All
tunables live in one PipelineConfig that is echoed into every emitted JSON
document for reproducibility.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import detection, genant, localization, straighten
from .core import (DEFAULT_FILL, GeometryError, Volume3D, check_number_fields, check_size,
                   finite_numbers, require)
from .detection import AnchorGrid, DetectionTargets
from .genant import VertebraKeypoints
from .localization import CenterlinePolyline
from .phantom import PhantomConfig, generate_phantom, oracle_heatmaps
from .straighten import StraightenedImage, StraightenTransform

N_COORDS = 2 * detection.N_KEYPOINTS  # encoded coordinates per anchor
# Size-budget elements each curve row costs beyond its plane pixels: its frame,
# its transform.json row and the Python objects of to_dict (about 3.7 KB of
# memory per row, measured at 65,000 rows).
ROW_COST = 1024


@dataclass(frozen=True)
class PipelineConfig:
    """Fully-resolved tunables of the pipeline; defaults match the method."""

    working_spacing_mm: float = 3.0
    delta_mm: float = 1.0
    # (left-right, anterior-posterior) half-widths of the straightened grid.
    # Only the mid-sagittal plane is sampled, so only the anterior-posterior
    # entry shapes the outputs; the pair stays so echoed configs still load.
    half_extent_mm: tuple[float, float] = (60.0, 60.0)
    smoothing_lambda: float = 10.0
    curve_pad_mm: float = 15.0
    anchor_scales_mm: tuple[float, ...] = detection.DEFAULT_SCALES_MM
    anchor_ratios: tuple[float, ...] = detection.DEFAULT_RATIOS
    objectness_threshold: float = detection.DEFAULT_OBJECTNESS_THRESHOLD
    nms_iou: float = detection.DEFAULT_NMS_IOU
    assign_iou: float = detection.DEFAULT_ASSIGN_IOU
    match_iou: float = 0.5
    mild_cut: float = genant.DEFAULT_MILD_CUT
    moderate_cut: float = genant.DEFAULT_MODERATE_CUT
    severe_cut: float = genant.DEFAULT_SEVERE_CUT
    softargmax_mode: str = "probabilities"
    softargmax_temperature: float = 1.0
    fill: float = DEFAULT_FILL

    def __post_init__(self):
        check_number_fields(
            self, **dict.fromkeys(("working_spacing_mm", "delta_mm", "softargmax_temperature",
                                   "anchor_scales_mm", "anchor_ratios"), "> 0"),
            **dict.fromkeys(("smoothing_lambda", "curve_pad_mm", "half_extent_mm"), ">= 0"),
            **dict.fromkeys(("nms_iou", "assign_iou", "match_iou"), "(0, 1]"),
            objectness_threshold="[0, 1]")
        for name in ("anchor_scales_mm", "anchor_ratios"):
            require(self, len(getattr(self, name)) > 0, name, "non-empty")
        require(self, self.softargmax_mode in ("probabilities", "logits"),
                "softargmax_mode", "'probabilities' or 'logits'")
        if not self.severe_cut < self.moderate_cut < self.mild_cut:
            raise ValueError(
                "grade cuts must be ordered severe_cut < moderate_cut < mild_cut, "
                f"got {self.severe_cut!r}, {self.moderate_cut!r}, {self.mild_cut!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return cls(**doc)

    def grade_cuts(self) -> dict:
        return {"mild_cut": self.mild_cut, "moderate_cut": self.moderate_cut,
                "severe_cut": self.severe_cut}


_ZERO = np.zeros((1, 1, 1), dtype=np.float32)
_ZERO.flags.writeable = False  # so Volume3D adopts its broadcast without a copy


def working_grid(vol: Volume3D, cfg: PipelineConfig) -> Volume3D:
    """The isotropic grid at ``working_spacing_mm`` over ``vol``'s extent from its origin,
    which the centerline heatmaps live on.  Only its geometry (shape, spacing, origin) is
    ever read, so its values are one read-only zero broadcast over its shape."""
    s = cfg.working_spacing_mm
    steps = [float(np.ceil(round((n - 1) * t / s, 9))) for n, t in zip(vol.shape, vol.spacing)]
    check_size([k + 1 for k in steps],
               f"spacing {(s,) * 3} mm over the {vol.shape} volume at {vol.spacing} mm")
    return Volume3D(np.broadcast_to(_ZERO, [int(k) + 1 for k in steps]), (s,) * 3, vol.origin)


def oracle_phantom(phantom_cfg: PhantomConfig, cfg: PipelineConfig
                   ) -> tuple[Volume3D, list[VertebraKeypoints], list[float], Volume3D]:
    """The phantom volume, its annotations and planted Genant indices, and its
    oracle heatmaps on the working grid."""
    volume, annotations, planted = generate_phantom(phantom_cfg)
    return volume, annotations, planted, oracle_heatmaps(annotations, working_grid(volume, cfg))


def extract_centerline(vol: Volume3D, cfg: PipelineConfig,
                       heatmaps: Volume3D | None = None,
                       annotations: list[VertebraKeypoints] | None = None
                       ) -> CenterlinePolyline:
    """World-frame centerline at the original slice resolution.

    Either decodes per-slice probability maps (which must live on the working
    grid of ``vol``) with the soft-argmax, or interpolates the annotated
    middle keypoints; the coarse curve is then linearly upsampled onto the
    volume's own slice positions.
    """
    if (heatmaps is None) == (annotations is None):
        raise ValueError("provide exactly one of heatmaps or annotations")
    working = working_grid(vol, cfg)
    if heatmaps is not None:
        if heatmaps.shape[:2] != working.shape[:2]:
            raise GeometryError(
                f"heatmap grid {heatmaps.shape[:2]} does not match the working "
                f"grid {working.shape[:2]}")
        if not np.allclose(heatmaps.spacing, working.spacing, atol=1e-6) or \
                not np.allclose(heatmaps.origin[:2], working.origin[:2], atol=1e-6):
            raise GeometryError("heatmap volume is not on the working grid")
        coarse = localization.slicewise_centerline(
            heatmaps, mode=cfg.softargmax_mode, temperature=cfg.softargmax_temperature)
    else:
        coarse = localization.centerline_target(annotations, working.slice_z_world())
    z_fine = vol.slice_z_world()
    slack = localization.SPAN_SLACK_MM
    z_fine = z_fine[(z_fine >= coarse.z[0] - slack) & (z_fine <= coarse.z[-1] + slack)]
    if len(z_fine) < 4:
        raise GeometryError("centerline spans fewer than four output slices")
    return localization.upsample_curve(coarse, z_fine)


def straighten_stage(vol: Volume3D, cfg: PipelineConfig,
                     heatmaps: Volume3D | None = None,
                     annotations: list[VertebraKeypoints] | None = None
                     ) -> StraightenedImage:
    """The mid-sagittal image of the volume straightened along its centerline.

    Only the anterior-posterior half-extent, ``half_extent_mm[1]``, is read.
    Before the curve is built, the size budget counts each row's plane pixels
    plus its ``ROW_COST``.
    """
    polyline = extract_centerline(vol, cfg, heatmaps=heatmaps, annotations=annotations)
    rows = float(polyline.z[-1] - polyline.z[0] + 2 * cfg.curve_pad_mm) / cfg.delta_mm  # at least
    check_size((rows, 2 * np.floor(cfg.half_extent_mm[1] / cfg.delta_mm + 1e-9) + 1 + ROW_COST),
               f"delta_mm {cfg.delta_mm}, half_extent_mm {cfg.half_extent_mm} and curve_pad_mm "
               f"{cfg.curve_pad_mm}: the straightened plane, {ROW_COST} more per curve row,")
    curve = straighten.build_spine_curve(polyline, step=cfg.delta_mm,
                                         smoothing=cfg.smoothing_lambda,
                                         pad_mm=cfg.curve_pad_mm)
    return straighten.straighten_plane(vol, curve, delta=cfg.delta_mm,
                                       half_extent=cfg.half_extent_mm[1], fill=cfg.fill)


def image_anchors(image: StraightenedImage, cfg: PipelineConfig) -> AnchorGrid:
    check_size((*image.values.shape, len(cfg.anchor_scales_mm), len(cfg.anchor_ratios), N_COORDS),
               "anchor_scales_mm x anchor_ratios: the anchor offsets")
    return detection.generate_anchors(image.values.shape, image.delta,
                                      scales_mm=cfg.anchor_scales_mm,
                                      ratios=cfg.anchor_ratios)


@dataclass(frozen=True)
class VertebraResult:
    """One scored vertebra with image- and world-space keypoints."""

    score: float | None
    keypoints_px: np.ndarray          # (6, 2)
    keypoints_mm: np.ndarray          # (6, 3)
    measurement: genant.GenantMeasurement
    label: str | None = None

    def to_dict(self) -> dict:
        m = self.measurement
        return {
            "score": self.score,
            "label": self.label,
            "keypoints": np.asarray(self.keypoints_px, dtype=float).tolist(),
            "keypoints_world": np.asarray(self.keypoints_mm, dtype=float).tolist(),
            "heights_mm": [m.h_a, m.h_m, m.h_p],
            "genant": m.genant,
            "grade": m.grade,
            "center_mm": genant.body_centers(self.keypoints_mm).tolist(),
        }


def score_detections(keypoints_px: np.ndarray, scores: np.ndarray,
                     transform: StraightenTransform, cfg: PipelineConfig
                     ) -> list[VertebraResult]:
    """Map (K, 6, 2) detected keypoints back to 3D in one call and grade them; a detection
    with a keypoint off the image is dropped, as clipping it would give a wrong height."""
    on_image = transform.inside(keypoints_px).all(axis=-1)
    keypoints_px, scores = keypoints_px[on_image], scores[on_image]
    kps_mm = transform.pixel_to_world(keypoints_px.reshape(-1, 2)).reshape(
        -1, detection.N_KEYPOINTS, 3)
    return [VertebraResult(score, px, mm,
                           genant.measure(VertebraKeypoints(mm), **cfg.grade_cuts()))
            for score, px, mm in zip(scores.tolist(), keypoints_px, kps_mm)]


def score_stage(sagittal: StraightenedImage, cfg: PipelineConfig,
                objectness_map: np.ndarray | None = None,
                offsets_map: np.ndarray | None = None,
                annotations: list[VertebraKeypoints] | None = None
                ) -> list[VertebraResult]:
    """Score either prediction maps (detect, then grade) or raw annotations."""
    if annotations is not None:
        return [VertebraResult(None, px, kps.as_array(), genant.measure(kps, **cfg.grade_cuts()),
                               label=kps.label)
                for kps, px in zip(annotations, _annotation_pixels(sagittal, annotations))]
    if objectness_map is None or offsets_map is None:
        raise ValueError("need prediction maps or annotations")
    dets = detection.detect(objectness_map, offsets_map, image_anchors(sagittal, cfg),
                            score_threshold=cfg.objectness_threshold, iou_threshold=cfg.nms_iou)
    return score_detections(*dets, sagittal.transform, cfg)


def patient_summary(results: list[VertebraResult], cfg: PipelineConfig) -> dict | None:
    if not results:
        return None
    g, grd = genant.patient_score([r.measurement.genant for r in results],
                                  **cfg.grade_cuts())
    return {"genant": g, "grade": grd}


def targets_stage(sagittal: StraightenedImage, annotations: list[VertebraKeypoints],
                  cfg: PipelineConfig) -> tuple[AnchorGrid, DetectionTargets]:
    """Project annotations onto the image and assign detection targets."""
    anchors = image_anchors(sagittal, cfg)
    gt = [(px, genant.measure(kps, **cfg.grade_cuts()).genant)
          for kps, px in zip(annotations, _annotation_pixels(sagittal, annotations))]
    return anchors, detection.assign_targets(anchors, gt, iou_threshold=cfg.assign_iou)


def _annotation_pixels(sagittal: StraightenedImage, annotations) -> np.ndarray:
    """(V, 6, 2) image keypoints of V annotated vertebrae, from one world_to_pixel call."""
    pts = np.reshape([kps.as_array() for kps in annotations], (-1, 3))
    return sagittal.transform.world_to_pixel(pts).reshape(-1, detection.N_KEYPOINTS, 2)


# ---------------------------------------------------------------------------
# Prediction/target raster packing (the VG1 plane layout)
# ---------------------------------------------------------------------------

def pack_prediction_planes(objectness: np.ndarray, offsets: np.ndarray,
                           genant_weights: np.ndarray | None = None) -> np.ndarray:
    """Stack detection maps into the (nx, ny, planes) float32 raster layout.

    Plane order for A anchor types: planes [0, A) hold objectness per type;
    planes [A, 13A) hold the 12 offset coordinates per type (keypoint-major:
    coordinate c = 2 * keypoint + axis); optional planes [13A, 14A) hold the
    per-anchor Genant weights of targets.  The result is read-only and
    Fortran-ordered (plane-major, x fastest) like a VG1 blob, so ``Volume3D``
    and ``write_vg1`` take it without a copy.
    """
    nx, ny, a = objectness.shape
    groups = [objectness, np.asarray(offsets).reshape(nx, ny, a * N_COORDS)]
    if genant_weights is not None:
        groups.append(genant_weights)
    out = np.empty((nx, ny, sum(g.shape[2] for g in groups)), dtype=np.float32, order="F")
    np.concatenate(groups, axis=2, out=out)
    out.flags.writeable = False
    return out


F32 = np.finfo(np.float32)


def pack_targets(targets: DetectionTargets) -> np.ndarray:
    """``pack_prediction_planes`` of the targets' dense maps, written from the
    positive anchors only.

    Negative anchors are zero in every map, so the raster comes from
    ``np.zeros``, whose pages stay untouched, and only the positive anchors'
    objectness, 12 keypoint-major offsets and Genant weight are scattered in:
    the same bytes as the dense packing.  A nonzero offset outside the normal
    float32 range, which the cast would turn into inf or flush toward 0, raises
    GeometryError before any value is cast.
    """
    nx, ny, a = targets.shape
    ix, iy, t = np.unravel_index(targets.index, targets.shape)
    offsets = targets.offsets.reshape(-1, N_COORDS)
    size = np.abs(offsets)
    if not np.all((size <= F32.max) & ((size >= F32.tiny) | (size == 0))):
        raise GeometryError(
            f"target offsets of {np.min(size, initial=np.inf, where=size > 0):.6g} to "
            f"{size.max():.6g} anchor sides leave the float32 range of the raster: "
            "anchor_scales_mm and anchor_ratios set the anchor sides")
    out = np.zeros((nx, ny, 14 * a), dtype=np.float32, order="F")
    out[ix, iy, t] = 1.0
    out[ix[:, None], iy[:, None], a + N_COORDS * t[:, None] + np.arange(N_COORDS)] = offsets
    out[ix, iy, 13 * a + t] = targets.genant_weights
    out.flags.writeable = False
    return out


def unpack_prediction_planes(values: np.ndarray, n_types: int
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Inverse of pack_prediction_planes; accepts 13A or 14A planes.

    Returns views of ``values`` (float32 when it is a VG1 raster), not copies:
    objectness (nx, ny, A), offsets (nx, ny, A, 6, 2) and the Genant weights
    (nx, ny, A) or None.
    """
    nx, ny, planes = values.shape
    a = n_types
    if planes not in (13 * a, 14 * a):
        raise GeometryError(
            f"prediction raster has {planes} planes, expected {13 * a} or {14 * a}")
    offsets = values[:, :, a:13 * a].reshape(nx, ny, a, detection.N_KEYPOINTS, 2)
    weights = values[:, :, 13 * a:] if planes == 14 * a else None
    return values[:, :, :a], offsets, weights


# ---------------------------------------------------------------------------
# Phantom-driven end-to-end chain (used by demos, tests and the CLI)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainResult:
    """What the oracle-driven pipeline produces for one phantom and a later
    stage reads: the annotations, the planted Genant indices, the straightened
    mid-sagittal image, the anchors, the targets and the graded results.

    The CT volume and its heatmaps are not kept: no later stage reads them,
    so a finished chain pins no volume.
    """

    annotations: list[VertebraKeypoints]
    planted_genant: list[float]
    straighten: StraightenedImage
    anchors: AnchorGrid
    targets: DetectionTargets
    results: list[VertebraResult]

    def study_for_evaluation(self, cfg: PipelineConfig,
                             results: list | None = None) -> dict:
        """World keypoints of the graded detections and the planted vertebrae,
        in the form evaluate_study_set consumes (``cfg`` is not read)."""
        return {
            "detections": [(r.keypoints_mm, r.measurement.genant, r.score)
                           for r in (self.results if results is None else results)],
            "ground_truth": [(kps.as_array(), g)
                             for kps, g in zip(self.annotations, self.planted_genant)],
        }


def run_phantom_chain(phantom_cfg: PhantomConfig, cfg: PipelineConfig,
                      keypoint_noise_mm: float = 0.0,
                      noise_seed: int = 0) -> ChainResult:
    """Phantom -> oracle heatmaps -> straightening -> oracle detection -> grading.

    ``keypoint_noise_mm`` adds Gaussian noise of that magnitude to every
    regressed keypoint coordinate of the positive anchors, emulating an
    imperfect regression head.  The volume and heatmaps are dropped once the
    plane is straightened, so neither is alive during target assignment.
    """
    finite_numbers(keypoint_noise_mm, "keypoint_noise_mm", domain=">= 0")
    volume, annotations, planted, heatmaps = oracle_phantom(phantom_cfg, cfg)
    sagittal = straighten_stage(volume, cfg, heatmaps=heatmaps)
    del volume, heatmaps
    anchors, targets = targets_stage(sagittal, annotations, cfg)
    chain = ChainResult(annotations, planted, sagittal, anchors, targets, [])
    _, results = rescore_chain(chain, cfg, keypoint_noise_mm=keypoint_noise_mm,
                               noise_seed=noise_seed)
    return replace(chain, results=results)


def rescore_chain(chain: ChainResult, cfg: PipelineConfig,
                  keypoint_noise_mm: float = 0.0, noise_seed: int = 0
                  ) -> tuple[tuple[np.ndarray, np.ndarray], list[VertebraResult]]:
    """Detect and grade from a chain's oracle targets, optionally noised.

    Keypoint noise (mm std per regressed coordinate) is injected into the
    offsets of the positive anchors, drawn in ascending flat anchor order
    and encoded against the anchor sides, so decoded pixel positions carry
    exactly that magnitude.  The positive anchors go to
    ``detect_candidates`` with score 1; no map over all anchors is built.
    """
    finite_numbers(keypoint_noise_mm, "keypoint_noise_mm", domain=">= 0")
    targets = chain.targets
    offsets = targets.offsets
    if keypoint_noise_mm > 0:
        rng = np.random.default_rng(finite_numbers(noise_seed, "noise_seed", integer=True))
        sigma_px = keypoint_noise_mm / chain.straighten.delta
        noise = rng.normal(0.0, sigma_px, size=offsets.shape)
        centers, sides = chain.anchors.locate(targets.index)
        # Noise is a shift in pixels: its offsets are those from a center at 0.
        offsets = offsets + detection.encode_keypoints(noise, np.zeros_like(centers), sides)
    dets = detection.detect_candidates(targets.index, np.ones(targets.n_positive), offsets,
                                       chain.anchors, score_threshold=cfg.objectness_threshold,
                                       iou_threshold=cfg.nms_iou)
    return dets, score_detections(*dets, chain.straighten.transform, cfg)
