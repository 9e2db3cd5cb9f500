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
                   require, resample_volume)
from .detection import AnchorGrid, Detection, DetectionTargets
from .evaluation import sagittal_plane_box  # noqa: F401  (callers import it from here)
from .genant import VertebraKeypoints
from .localization import CenterlinePolyline
from .phantom import PhantomConfig, generate_phantom, oracle_heatmaps
from .straighten import StraightenedImage, StraightenTransform

N_COORDS = 2 * detection.N_KEYPOINTS  # encoded coordinates per anchor


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
        check_number_fields(self)
        for name in ("working_spacing_mm", "delta_mm", "softargmax_temperature"):
            require(self, getattr(self, name) > 0, name, "positive")
        for name in ("smoothing_lambda", "curve_pad_mm"):
            require(self, getattr(self, name) >= 0, name, "non-negative")
        require(self, min(self.half_extent_mm) >= 0, "half_extent_mm", "a pair of values >= 0")
        for name in ("anchor_scales_mm", "anchor_ratios"):
            values = getattr(self, name)
            require(self, len(values) > 0 and min(values) > 0, name, "non-empty and positive")
        for name in ("nms_iou", "assign_iou", "match_iou"):
            require(self, 0 < getattr(self, name) <= 1, name, "in (0, 1]")
        require(self, 0 <= self.objectness_threshold <= 1, "objectness_threshold", "in [0, 1]")
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
    working = resample_volume(vol, (cfg.working_spacing_mm,) * 3, fill=cfg.fill)
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
    z_fine = z_fine[(z_fine >= coarse.z[0] - 1e-9) & (z_fine <= coarse.z[-1] + 1e-9)]
    if len(z_fine) < 4:
        raise GeometryError("centerline spans fewer than four output slices")
    return localization.upsample_curve(coarse, z_fine)


def straighten_stage(vol: Volume3D, cfg: PipelineConfig,
                     heatmaps: Volume3D | None = None,
                     annotations: list[VertebraKeypoints] | None = None
                     ) -> StraightenedImage:
    """The mid-sagittal image of the volume straightened along its centerline.

    Every later stage reads only this plane and its transform, so the
    left-right half-extent is 0 and no other plane of the straightened
    volume is computed.
    """
    polyline = extract_centerline(vol, cfg, heatmaps=heatmaps, annotations=annotations)
    rows = float(polyline.z[-1] - polyline.z[0] + 2 * cfg.curve_pad_mm) / cfg.delta_mm  # at least
    check_size((rows, 2 * np.floor(cfg.half_extent_mm[1] / cfg.delta_mm + 1e-9) + 1),
               f"delta_mm {cfg.delta_mm}, half_extent_mm {cfg.half_extent_mm} and curve_pad_mm "
               f"{cfg.curve_pad_mm}: the straightened plane")
    curve = straighten.build_spine_curve(polyline, step=cfg.delta_mm,
                                         smoothing=cfg.smoothing_lambda,
                                         pad_mm=cfg.curve_pad_mm)
    plane, transform = straighten.straighten_volume(
        vol, curve, delta=cfg.delta_mm, half_extent=(0.0, cfg.half_extent_mm[1]),
        fill=cfg.fill)
    return straighten.mid_sagittal_slice(plane, transform)


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
    keypoints_px: np.ndarray | None   # (6, 2)
    keypoints_mm: np.ndarray          # (6, 3)
    measurement: genant.GenantMeasurement
    label: str | None = None

    def to_dict(self) -> dict:
        m = self.measurement
        return {
            "score": self.score,
            "label": self.label,
            "keypoints": None if self.keypoints_px is None
            else [[float(c) for c in row] for row in self.keypoints_px],
            "keypoints_world": [[float(c) for c in row] for row in self.keypoints_mm],
            "heights_mm": [m.h_a, m.h_m, m.h_p],
            "genant": m.genant,
            "grade": m.grade,
            "center_mm": [float(c) for c in
                          (self.keypoints_mm[2] + self.keypoints_mm[3]) / 2],
        }


def score_detections(detections_2d: list[Detection], transform: StraightenTransform,
                     cfg: PipelineConfig) -> list[VertebraResult]:
    """Map detections back to 3D, all keypoints in one call, and grade them."""
    px = np.reshape([det.keypoints for det in detections_2d], (-1, 2))
    kps_mm = transform.pixel_to_world(px).reshape(-1, detection.N_KEYPOINTS, 3)
    return [VertebraResult(det.score, det.keypoints, mm,
                           genant.measure(VertebraKeypoints.from_array(mm), **cfg.grade_cuts()))
            for det, mm in zip(detections_2d, kps_mm)]


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
    return detect_and_score(objectness_map, offsets_map, image_anchors(sagittal, cfg),
                            sagittal.transform, cfg)[1]


def detect_and_score(objectness_map, offsets_map, anchors: AnchorGrid,
                     transform: StraightenTransform, cfg: PipelineConfig
                     ) -> tuple[list[Detection], list[VertebraResult]]:
    """Decode prediction maps into detections (NMS included) and grade them."""
    dets = detection.detect(objectness_map, offsets_map, anchors,
                            score_threshold=cfg.objectness_threshold,
                            iou_threshold=cfg.nms_iou)
    return dets, score_detections(dets, transform, cfg)


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
    """Everything the full oracle-driven pipeline produces for one phantom."""

    volume: Volume3D
    annotations: list[VertebraKeypoints]
    planted_genant: list[float]
    heatmaps: Volume3D
    straighten: StraightenedImage
    anchors: AnchorGrid
    targets: DetectionTargets
    detections: list[Detection]
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
    imperfect regression head.
    """
    volume, annotations, planted = generate_phantom(phantom_cfg)
    working = resample_volume(volume, (cfg.working_spacing_mm,) * 3, fill=cfg.fill)
    heatmaps = oracle_heatmaps(annotations, working)
    sagittal = straighten_stage(volume, cfg, heatmaps=heatmaps)
    anchors, targets = targets_stage(sagittal, annotations, cfg)
    chain = ChainResult(volume, annotations, planted, heatmaps, sagittal,
                        anchors, targets, [], [])
    dets, results = rescore_chain(chain, cfg, keypoint_noise_mm=keypoint_noise_mm,
                                  noise_seed=noise_seed)
    return replace(chain, detections=dets, results=results)


def rescore_chain(chain: ChainResult, cfg: PipelineConfig,
                  keypoint_noise_mm: float = 0.0, noise_seed: int = 0
                  ) -> tuple[list[Detection], list[VertebraResult]]:
    """Detect and grade from a chain's oracle maps, optionally noised.

    Keypoint noise (mm std per regressed coordinate) is injected into the
    offsets of the positive anchors, scaled by the anchor side so decoded
    pixel positions carry exactly that magnitude.  The targets' arrays are
    read, never copied: without noise they go to ``detect`` as they are, and
    with noise only the positive anchors' offsets are written into a zeroed
    array, which equals a noised copy because targets are zero elsewhere.
    """
    targets = chain.targets
    anchors = chain.anchors
    offsets = targets.offsets
    if keypoint_noise_mm > 0:
        rng = np.random.default_rng(noise_seed)
        pos = np.nonzero(targets.objectness == 1)
        sigma_px = keypoint_noise_mm / chain.straighten.delta
        noise = rng.normal(0.0, sigma_px,
                           size=(len(pos[0]), detection.N_KEYPOINTS, 2))
        offsets = np.zeros(targets.offsets.shape)
        offsets[pos] = targets.offsets[pos] + noise / anchors.sides_px[pos[2]][:, None, :]
    return detect_and_score(targets.objectness, offsets, anchors,
                            chain.straighten.transform, cfg)
