"""Anchor-based six-keypoint vertebra detection machinery.

Anchors live at every pixel of the straightened mid-sagittal image with a
fixed set of scales (mm) and height/width ratios.  Keypoints are regressed
relative to the matched anchor with the shift- and scale-invariant offsets

    ex = (gx - ax) / aw,   ey = (gy - ay) / ah,

and the training loss combines binary cross-entropy on objectness with a
regression term on the offsets weighted by the inverse Genant index of the
matched vertebra, so strongly compressed vertebrae weigh more.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Box2D, GeometryError, boxes_from_keypoints, iou_matrix

DEFAULT_SCALES_MM = (17.0, 23.0, 28.0, 35.0)
DEFAULT_RATIOS = (0.8, 1.1, 1.3, 2.0)
DEFAULT_OBJECTNESS_THRESHOLD = 0.5
DEFAULT_NMS_IOU = 0.45
DEFAULT_ASSIGN_IOU = 0.5
BCE_EPS = 1e-7

N_KEYPOINTS = 6


@dataclass(frozen=True)
class AnchorGrid:
    """One anchor per (pixel, scale, ratio) on the detection image.

    ``ratio`` is height/width and ``scale`` the box side in mm at ratio one,
    so width = scale / sqrt(ratio) and height = scale * sqrt(ratio).
    ``sides_px`` is the read-only (A, 2) table of anchor sides in pixels:
    row t holds the (width, height) of anchor type t, and t runs
    scale-major, t = scale_index * len(ratios) + ratio_index.  Anchor
    (ix, iy, t) is centered on pixel (ix, iy); its flat index is
    (ix * ny + iy) * A + t, the C order of an (nx, ny, A) array.
    """

    image_shape: tuple[int, int]
    pixel_spacing: float
    scales_mm: tuple[float, ...]
    ratios: tuple[float, ...]
    sides_px: np.ndarray  # (A, 2)

    @property
    def n_types(self) -> int:
        return len(self.sides_px)

    @property
    def n_anchors(self) -> int:
        return self.image_shape[0] * self.image_shape[1] * self.n_types


def generate_anchors(image_shape, pixel_spacing: float,
                     scales_mm=DEFAULT_SCALES_MM,
                     ratios=DEFAULT_RATIOS) -> AnchorGrid:
    """Anchor grid over every pixel center of a ``(nx, ny)`` image."""
    if pixel_spacing <= 0:
        raise ValueError("pixel spacing must be positive")
    if min(image_shape[:2]) <= 0:
        raise ValueError(f"image shape must have positive sides, got {tuple(image_shape)}")
    scales_mm = tuple(float(s) for s in scales_mm)
    ratios = tuple(float(r) for r in ratios)
    if any(s <= 0 for s in scales_mm) or any(r <= 0 for r in ratios):
        raise ValueError("scales and ratios must be positive")
    with np.errstate(over="ignore"):  # an overflow is refused right below
        sides = np.array([[s / np.sqrt(r), s * np.sqrt(r)] for s in scales_mm for r in ratios],
                         dtype=float).reshape(-1, 2) / pixel_spacing
    if not np.all(np.isfinite(sides)):
        raise GeometryError(f"anchors of {max(scales_mm)} mm overflow pixels of {pixel_spacing} mm")
    sides.flags.writeable = False
    return AnchorGrid((int(image_shape[0]), int(image_shape[1])),
                      float(pixel_spacing), scales_mm, ratios, sides)


def encode_keypoints(keypoints: np.ndarray, anchor: Box2D) -> np.ndarray:
    """Anchor-relative offsets of keypoints: (k - center) / side, shape (6, 2)."""
    keypoints = np.asarray(keypoints, dtype=float)
    return (keypoints - [anchor.cx, anchor.cy]) / [anchor.w, anchor.h]


def decode_keypoints(offsets: np.ndarray, anchor: Box2D) -> np.ndarray:
    """Inverse of encode_keypoints: offsets * side + center."""
    offsets = np.asarray(offsets, dtype=float)
    return offsets * [anchor.w, anchor.h] + [anchor.cx, anchor.cy]


@dataclass(frozen=True)
class DetectionTargets:
    """Per-anchor training targets on an (nx, ny, A) anchor grid.

    Positive anchors carry the encoded keypoints, the Genant weight of the
    matched vertebra and its index; negative anchors have matched == -1.
    """

    objectness: np.ndarray      # (nx, ny, A) float, 0 or 1
    offsets: np.ndarray         # (nx, ny, A, 6, 2)
    genant_weights: np.ndarray  # (nx, ny, A), defined where objectness == 1
    matched: np.ndarray         # (nx, ny, A) int, ground-truth index or -1

    @property
    def n_positive(self) -> int:
        return int(self.objectness.sum())


def assign_targets(anchors: AnchorGrid, ground_truth,
                   iou_threshold: float = DEFAULT_ASSIGN_IOU) -> DetectionTargets:
    """Match anchors to annotated vertebrae and build training targets.

    ``ground_truth`` is a sequence of (keypoints_px (6, 2), genant_index)
    pairs.  An anchor is positive when its IoU with a ground-truth box
    exceeds ``iou_threshold``, which must lie in (0, 1] (else ValueError),
    matched to the highest-IoU vertebra; in
    addition the best anchor of every vertebra is forced positive even below
    the threshold, so no vertebra is left without a trainable anchor.  The
    vertebra with the highest best IoU claims first, each claims its
    highest-IoU unclaimed anchor (lowest flat index among ties), and with
    more vertebrae than anchors the last ones claim none.  An empty
    ground-truth list yields all-negative targets.

    IoU is computed only for anchors near a vertebra: an anchor of side
    (w, h) at pixel (ix, iy) can overlap a box of side (bw, bh) centered at
    (bx, by) only if |ix - bx| < (w + bw) / 2 and |iy - by| < (h + bh) / 2,
    taken here with 1 px of slack.  Every other anchor has IoU exactly 0
    with every vertebra, so the result equals that of the full
    anchor-by-vertebra IoU matrix.  The window is the OR over vertebrae of
    each one's (ix, iy, type) rectangle; its anchors' boxes come from the
    flat index (ix, iy, type) by integer arithmetic, and one ``iou_matrix``
    call scores them.
    """
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    nx, ny = anchors.image_shape
    a = anchors.n_types
    shape = (nx, ny, a)
    objectness = np.zeros(shape)
    offsets = np.zeros(shape + (N_KEYPOINTS, 2))
    weights = np.zeros(shape)
    gt = list(ground_truth)
    if not gt:
        return DetectionTargets(objectness, offsets, weights, np.full(shape, -1, dtype=int))

    gt_weights = np.array([g for _, g in gt], dtype=float)
    for g in gt_weights:
        if not 0 < g <= 1:
            raise ValueError(f"Genant weight must be in (0, 1], got {g}")
    gt_kps = np.asarray([kps for kps, _ in gt], dtype=float)
    gt_boxes = boxes_from_keypoints(gt_kps)  # (M, 4)

    wh = anchors.sides_px
    reach = (gt_boxes[:, None, 2:] + wh) / 2 + 1  # (M, A, 2)
    near_x = np.abs(np.arange(nx)[:, None] - gt_boxes[:, None, None, 0]) < reach[:, None, :, 0]
    near_y = np.abs(np.arange(ny)[:, None] - gt_boxes[:, None, None, 1]) < reach[:, None, :, 1]
    window = np.zeros(shape, dtype=bool)
    for m in range(len(gt)):
        sx, sy = _span(near_x[m].any(axis=1)), _span(near_y[m].any(axis=1))
        window[sx, sy] |= near_x[m][sx, None] & near_y[m][None, sy]
    # Window anchors in ascending flat order, so ties among them break as
    # the flat index does.  The first len(gt) anchors always join the window:
    # a vertebra that overlaps no unclaimed anchor takes the lowest unclaimed
    # flat index, which is below the number of claims made so far.
    window.flat[:len(gt)] = True
    flat = np.flatnonzero(window)
    pixel, t = np.divmod(flat, a)
    rows = np.empty((4, len(flat)))  # (cx, cy, w, h) rows, coordinate-major
    np.divmod(pixel, ny, out=(rows[0], rows[1]))
    rows[2:] = wh[t].T
    overlaps = iou_matrix(gt_boxes, rows.T)  # (M, K)

    # Best vertebra of each window anchor: a strict > keeps the first
    # maximum, as argmax does.
    best = overlaps[0].copy()
    best_gt = np.zeros(len(flat), dtype=int)
    better = np.empty(len(flat), dtype=bool)
    for m in range(1, len(gt)):
        np.greater(overlaps[m], best, out=better)
        np.copyto(best, overlaps[m], where=better)
        best_gt[better] = m
    match_flat = np.full(anchors.n_anchors, -1)
    match_flat[flat] = np.where(best > iou_threshold, best_gt, -1)

    # Force the best unclaimed anchor of every vertebra positive, most
    # confident vertebra first, so two vertebrae never claim one anchor.
    # Claimed columns drop to -1 below every IoU; argmax keeps ties at the
    # lowest flat anchor index (determinism).
    for m in np.argsort(-overlaps.max(axis=1), kind="stable"):
        col = int(overlaps[m].argmax())
        if overlaps[m, col] < 0:
            continue  # every anchor is claimed already
        match_flat[flat[col]] = m
        overlaps[:, col] = -1.0

    matched = match_flat.reshape(shape)
    pos = np.nonzero(matched >= 0)
    m_pos = matched[pos]
    objectness[pos] = 1.0
    rel = gt_kps[m_pos] - np.stack(pos[:2], axis=1)[:, None, :]
    offsets[pos] = rel / wh[pos[2]][:, None, :]
    weights[pos] = gt_weights[m_pos]
    return DetectionTargets(objectness, offsets, weights, matched)


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of a 1D mask (empty if none)."""
    idx = np.flatnonzero(mask)
    return slice(idx[0], idx[-1] + 1) if len(idx) else slice(0, 0)


def _check_prediction_shapes(pred_objectness, pred_offsets, targets: DetectionTargets):
    # C order: numpy's pairwise sums group terms by memory layout, so this keeps
    # the loss bitwise independent of the layout of the predictions (VG1 rasters
    # read as Fortran-ordered views).
    pred_objectness = np.asarray(pred_objectness, dtype=float, order="C")
    pred_offsets = np.asarray(pred_offsets, dtype=float, order="C")
    shape = targets.objectness.shape
    if pred_objectness.shape != shape:
        raise ValueError(f"objectness shape {pred_objectness.shape} != {shape}")
    if pred_offsets.shape != shape + (N_KEYPOINTS, 2):
        raise ValueError(f"offsets shape {pred_offsets.shape} incompatible with {shape}")
    return pred_objectness, pred_offsets


def detection_loss_terms(pred_objectness, pred_offsets,
                         targets: DetectionTargets,
                         eps: float = BCE_EPS) -> tuple[float, float]:
    """(bce, regression) parts of the detection loss.

    bce is the mean binary cross-entropy over all anchors with predictions
    clipped to [eps, 1-eps].  The regression part averages, over positive
    anchors, the mean absolute offset error of the matched vertebra's 12
    encoded coordinates divided by its Genant index; it is zero when there
    is no positive anchor.
    """
    pred_o, pred_e = _check_prediction_shapes(pred_objectness, pred_offsets, targets)
    o = targets.objectness
    p = np.clip(pred_o, eps, 1 - eps)
    bce = float(-np.mean(o * np.log(p) + (1 - o) * np.log1p(-p)))

    pos = o == 1
    n_pos = int(pos.sum())
    if n_pos == 0:
        return bce, 0.0
    err = np.abs(pred_e[pos] - targets.offsets[pos]).mean(axis=(1, 2))
    reg = float(np.sum(err / targets.genant_weights[pos]) / n_pos)
    return bce, reg


def detection_loss(pred_objectness, pred_offsets, targets: DetectionTargets,
                   eps: float = BCE_EPS) -> float:
    """Objectness BCE plus Genant-weighted keypoint regression error."""
    bce, reg = detection_loss_terms(pred_objectness, pred_offsets, targets, eps=eps)
    return bce + reg


def detection_loss_grad(pred_objectness, pred_offsets,
                        targets: DetectionTargets,
                        eps: float = BCE_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of detection_loss w.r.t. both prediction arrays.

    The BCE gradient is zero where the prediction is saturated past the
    clipping range; the regression gradient uses sign(error), i.e. zero at
    the (non-differentiable) exact match.
    """
    pred_o, pred_e = _check_prediction_shapes(pred_objectness, pred_offsets, targets)
    o = targets.objectness
    n = o.size
    inside = (pred_o > eps) & (pred_o < 1 - eps)
    p = np.clip(pred_o, eps, 1 - eps)
    grad_o = np.where(inside, (-o / p + (1 - o) / (1 - p)) / n, 0.0)

    grad_e = np.zeros_like(pred_e)
    pos = o == 1
    n_pos = int(pos.sum())
    if n_pos:
        scale = 1.0 / (targets.genant_weights[pos] * n_pos * 2 * N_KEYPOINTS)
        grad_e[pos] = np.sign(pred_e[pos] - targets.offsets[pos]) * scale[:, None, None]
    return grad_o, grad_e


@dataclass(frozen=True)
class Detection:
    """One decoded vertebra candidate on the straightened image (pixels)."""

    score: float
    box: Box2D
    keypoints: np.ndarray  # (6, 2)

    def __post_init__(self):
        kps = np.asarray(self.keypoints, dtype=float)
        if kps.shape != (N_KEYPOINTS, 2):
            raise ValueError(f"keypoints must be (6, 2), got {kps.shape}")
        kps.flags.writeable = False
        object.__setattr__(self, "keypoints", kps)
        object.__setattr__(self, "score", float(self.score))


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_threshold: float = DEFAULT_NMS_IOU) -> np.ndarray:
    """Greedy non-maximum suppression, highest score first.

    ``boxes`` holds (K, 4) rows (cx, cy, w, h) and ``scores`` their (K,)
    scores.  Returns the indices of the kept boxes in descending-score
    order; ties keep the earlier box (stable sort).  A box is suppressed
    when its IoU with a kept box exceeds ``iou_threshold``, so a threshold
    of 1 suppresses nothing.  Each box after the first is tested with one
    ``iou_matrix`` call against the boxes kept so far, which are held in a
    preallocated array.
    """
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    boxes = np.asarray(boxes, dtype=float)[order]
    kept_boxes = np.empty_like(boxes)
    keep: list[int] = []
    for row in range(len(boxes)):
        n_kept = len(keep)
        # The row is short, so a plain-Python test beats a numpy reduction.
        if n_kept and any(v > iou_threshold for v in
                          iou_matrix(boxes[row:row + 1], kept_boxes[:n_kept])[0].tolist()):
            continue
        kept_boxes[n_kept] = boxes[row]
        keep.append(row)
    return order[keep]


def detect(objectness_map, offsets_map, anchors: AnchorGrid,
           score_threshold: float = DEFAULT_OBJECTNESS_THRESHOLD,
           iou_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Decode prediction maps into non-overlapping vertebra detections.

    ``offsets_map`` has shape (nx, ny, A, 6, 2).  Anchors scoring above
    ``score_threshold`` are decoded in one array pass (keypoints = offsets *
    anchor side + anchor center, as in ``decode_keypoints``; box = the tight
    box of the keypoints) and reduced with greedy NMS; a ``Detection`` is
    built for each survivor only.  Candidate order, and therefore
    tie-breaking, is the flat anchor order.  Only the candidates' offsets
    are converted to float64, so float32 maps of any memory layout (views
    of a VG1 raster) decode to the same bits as float64 copies of them.
    Non-finite keypoints raise ValueError and a candidate with zero extent
    raises GeometryError.
    """
    obj = np.asarray(objectness_map, dtype=float)
    nx, ny = anchors.image_shape
    a = anchors.n_types
    if obj.shape != (nx, ny, a):
        raise ValueError(f"objectness shape {obj.shape} != {(nx, ny, a)}")
    off = np.asarray(offsets_map)
    if off.shape != (nx, ny, a, N_KEYPOINTS, 2):
        raise ValueError(f"offsets shape {off.shape} incompatible with {(nx, ny, a)}")

    idx = np.nonzero(obj > score_threshold)
    kps = (np.asarray(off[idx], dtype=float) * anchors.sides_px[idx[2]][:, None, :]
           + np.stack(idx[:2], axis=1)[:, None, :])
    boxes = boxes_from_keypoints(kps)
    scores = obj[idx]
    return [Detection(scores[k], Box2D(*boxes[k].tolist()), kps[k])
            for k in nms(boxes, scores, iou_threshold)]
