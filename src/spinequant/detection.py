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

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_AREA, GeometryError, boxes_from_keypoints, check_number_fields,
                   finite_array, finite_numbers, iou_matrix, iou_ratio, owned_array, require)

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
    (ix * ny + iy) * A + t, the C order of an (nx, ny, A) array.  Both image
    sides and every anchor side must be > 0, and the table must hold a row,
    else ValueError.  A writeable ``sides_px`` is copied (``owned_array``).
    """

    image_shape: tuple[int, int]
    sides_px: np.ndarray  # (A, 2)

    def __post_init__(self):
        check_number_fields(self, image_shape="> 0")
        object.__setattr__(self, "sides_px", owned_array(
            finite_array(self.sides_px, "sides_px", (None, 2), domain="> 0"), float))
        require(self, self.n_types > 0, "sides_px", "at least one (width, height) row")

    @property
    def n_types(self) -> int:
        return len(self.sides_px)

    @property
    def n_anchors(self) -> int:
        return self.image_shape[0] * self.image_shape[1] * self.n_types

    def locate(self, index) -> tuple[np.ndarray, np.ndarray]:
        """(P, 2) float centers (ix, iy) and (P, 2) sides of the flat anchor indices ``index``."""
        index = finite_array(index, "index", (None,), np.intp)
        if index.size and not 0 <= index.min() <= index.max() < self.n_anchors:
            raise ValueError(f"index must be in [0, {self.n_anchors}), got {index.min()} to "
                             f"{index.max()}")
        pixel, t = np.divmod(index, self.n_types)
        centers = np.empty((len(pixel), 2))
        np.divmod(pixel, self.image_shape[1], out=(centers[:, 0], centers[:, 1]))
        return centers, self.sides_px.take(t, axis=0)  # a fancy index is ~10x slower


def generate_anchors(image_shape, pixel_spacing: float,
                     scales_mm=DEFAULT_SCALES_MM,
                     ratios=DEFAULT_RATIOS) -> AnchorGrid:
    """Anchor grid over every pixel center of a ``(nx, ny)`` image; the pixel
    spacing, scales and ratios must be > 0, with at least one scale and one ratio
    (``AnchorGrid`` checks the image sides)."""
    finite_numbers(pixel_spacing, "pixel_spacing", domain="> 0")
    scales_mm = finite_numbers(scales_mm, "scales_mm", (None,), domain="> 0")
    ratios = finite_numbers(ratios, "ratios", (None,), domain="> 0")
    if not (scales_mm and ratios):
        raise ValueError(f"{'ratios' if scales_mm else 'scales_mm'} must be non-empty, got ()")
    with np.errstate(over="ignore"):  # an overflow is refused right below
        sides = np.array([[s / np.sqrt(r), s * np.sqrt(r)] for s in scales_mm for r in ratios],
                         dtype=float).reshape(-1, 2) / pixel_spacing
        area = sides[:, 0] * sides[:, 1]
    if not (np.all(sides > 0) and np.all(area <= MAX_AREA)):
        raise GeometryError(f"anchor_scales_mm {min(scales_mm):g}-{max(scales_mm):g} and "
                            f"anchor_ratios {min(ratios):g}-{max(ratios):g} give anchor sides "
                            f"or areas that overflow or underflow pixels of {pixel_spacing} mm")
    sides.flags.writeable = False
    return AnchorGrid(tuple(image_shape[:2]), sides)


def encode_keypoints(keypoints, centers, sides) -> np.ndarray:
    """Offsets (k - center) / side of (P, 6, 2) keypoints from P anchors'
    (P, 2) centers and sides (``AnchorGrid.locate``); every side must be > 0."""
    keypoints = finite_array(keypoints, "keypoints", (None, N_KEYPOINTS, 2))
    offsets = keypoints - finite_array(centers, "centers", (len(keypoints), 2))[:, None, :]
    offsets /= finite_array(sides, "sides", (len(keypoints), 2), domain="> 0")[:, None, :]
    return offsets


def decode_keypoints(offsets, centers, sides) -> np.ndarray:
    """Inverse of encode_keypoints: offsets * side + center, (P, 6, 2); sides > 0.

    The keypoints keep the memory order of ``offsets``, so a view of
    coordinate-major (2, 6, P) offsets decodes along contiguous P.  Keypoints
    that leave the float range raise GeometryError naming the offsets and sides.
    """
    offsets = finite_array(offsets, "offsets", (None, N_KEYPOINTS, 2))
    p = len(offsets)
    sides = finite_array(sides, "sides", (p, 2), domain="> 0")
    with np.errstate(over="ignore"):  # refused right below
        kps = offsets * sides[:, None, :]
        kps += finite_array(centers, "centers", (p, 2))[:, None, :]
    if not np.isfinite(kps).all():
        raise GeometryError(f"offsets of up to {np.abs(offsets).max():.6g} anchor sides, on "
                            f"anchor sides of up to {sides.max():.6g} px, leave the float "
                            "range once decoded")
    return kps


@dataclass(frozen=True)
class DetectionTargets:
    """Training targets of the positive anchors of an (nx, ny, A) anchor grid.

    ``index`` holds the positive anchors' flat indices (see ``AnchorGrid``)
    in ascending order, and row p of the other arrays belongs to anchor
    ``index[p]``: the index (>= 0) of its matched vertebra, its encoded
    keypoints and that vertebra's Genant index (in (0, 1]).  Every other
    anchor is negative: its objectness, offsets and weight are 0 and it
    matches no vertebra.  ``dense`` rebuilds the maps over every anchor.
    The arrays are read-only (``owned_array``).
    """

    shape: tuple[int, int, int]
    index: np.ndarray           # (P,) int, ascending flat anchor indices
    matched: np.ndarray         # (P,) int, ground-truth index
    offsets: np.ndarray         # (P, 6, 2)
    genant_weights: np.ndarray  # (P,)

    def __post_init__(self):
        check_number_fields(self, shape="> 0")
        index = owned_array(finite_array(self.index, "index", (None,), np.int64), np.int64)
        n_anchors = math.prod(self.shape)
        if np.any(np.diff(index) <= 0) or (
                len(index) and not 0 <= index[0] <= index[-1] < n_anchors):
            raise ValueError(f"index must hold ascending, distinct anchor indices in "
                             f"[0, {n_anchors}) of a grid of shape {self.shape}")
        object.__setattr__(self, "index", index)
        p = len(index)
        offsets = owned_array(self.offsets, float)  # may be inf: see assign_targets
        if offsets.shape != (p, N_KEYPOINTS, 2):
            raise ValueError(f"offsets has shape {offsets.shape}, expected "
                             f"{(p, N_KEYPOINTS, 2)} for {p} positive anchors")
        object.__setattr__(self, "offsets", offsets)
        for name, dtype, domain in (("matched", np.int64, ">= 0"),
                                    ("genant_weights", float, "(0, 1]")):
            object.__setattr__(self, name, owned_array(
                finite_array(getattr(self, name), name, (p,), dtype, domain=domain), dtype))

    @property
    def n_positive(self) -> int:
        return len(self.index)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(objectness, offsets, genant_weights, matched) over every anchor.

        Shapes (nx, ny, A), (nx, ny, A, 6, 2), (nx, ny, A) and (nx, ny, A);
        negative anchors hold 0 and, in ``matched``, -1.  New writeable arrays.
        """
        objectness = np.zeros(self.shape)
        objectness.flat[self.index] = 1.0
        offsets = np.zeros(self.shape + (N_KEYPOINTS, 2))
        offsets.reshape(-1, N_KEYPOINTS, 2)[self.index] = self.offsets
        weights = np.zeros(self.shape)
        weights.flat[self.index] = self.genant_weights
        matched = np.full(self.shape, -1)
        matched.flat[self.index] = self.matched
        return objectness, offsets, weights, matched


def assign_targets(anchors: AnchorGrid, ground_truth,
                   iou_threshold: float = DEFAULT_ASSIGN_IOU) -> DetectionTargets:
    """Match anchors to annotated vertebrae and build training targets.

    ``ground_truth`` is a sequence of (keypoints_px (6, 2), genant_index)
    pairs.  An anchor is positive when its IoU with a ground-truth box
    exceeds ``iou_threshold``, which must lie in (0, 1] (else ValueError),
    matched to the highest-IoU vertebra (the lowest index on ties); in
    addition the best anchor of every vertebra is forced positive even below
    the threshold, so no vertebra is left without a trainable anchor.  The
    vertebra with the highest best IoU claims first, each claims its
    highest-IoU unclaimed anchor (lowest flat index among ties), and with
    more vertebrae than anchors the last ones claim none.  An empty
    ground-truth list yields all-negative targets.

    IoU is formed per vertebra, only on the anchors that can pass the
    threshold.  In float arithmetic the IoU only grows with either axis
    overlap (the product, ``I / (U - I)`` and ``min(., 1)`` are each
    monotone), so an anchor of type t on pixel column i can pass only if the
    IoU of its x overlap and the vertebra's largest y overlap for type t
    does, and likewise for rows.  Those two (M, n, A) bound tables pick each
    vertebra's candidate columns and rows; the largest overlap is attained
    in some row (column), so they are exactly the columns and rows that hold
    an anchor above the threshold.  The vertebra's IoU block is formed on
    them alone with the operations of ``iou_matrix(gt_boxes, anchor_boxes)``
    in the same order: the same bits as the full anchor-by-vertebra matrix.
    The forced claims go in the order of the closed-form block maximum, the
    IoU of the largest x and y overlaps maximized over types, and each takes
    its anchor from the candidate block.  Only a vertebra with no unclaimed
    anchor above the threshold there (its best IoU is at or below it, or
    other vertebrae claimed every anchor above it) forms its full block: the
    pixels along x and along y where it overlaps an anchor of some type.
    Every anchor outside that block has IoU exactly 0 with it.
    """
    finite_numbers(iou_threshold, "iou_threshold", domain="(0, 1]")
    nx, ny = anchors.image_shape
    shape = (nx, ny, anchors.n_types)
    gt = list(ground_truth)
    if not gt:
        return DetectionTargets(shape, [], [], np.empty((0, N_KEYPOINTS, 2)), [])

    gt_weights = finite_array([g for _, g in gt], "ground_truth Genant weights", (len(gt),),
                              domain="(0, 1]")
    gt_kps = finite_array([kps for kps, _ in gt], "ground_truth keypoints",
                          (len(gt), N_KEYPOINTS, 2))
    gt_boxes = boxes_from_keypoints(gt_kps)  # (M, 4)

    # sides[k][m, i, t]: the overlap along axis k of vertebra m and an anchor
    # of type t centered on pixel i, (M, n, A); peaks[k][m, t] is its maximum
    # over i.
    g_half = gt_boxes[:, 2:] / 2
    g_lo, g_hi = gt_boxes[:, :2] - g_half, gt_boxes[:, :2] + g_half
    a_half = anchors.sides_px / 2
    sides = []
    for k, n in enumerate((nx, ny)):
        pixel = np.arange(n, dtype=float)[:, None]
        side = np.minimum(g_hi[:, k, None, None], pixel + a_half[:, k])
        side -= np.maximum(g_lo[:, k, None, None], pixel - a_half[:, k])
        sides.append(np.maximum(side, 0.0, out=side))
    peaks = [side.max(axis=1) for side in sides]
    a_w, a_h = anchors.sides_px.T
    areas = (gt_boxes[:, 2] * gt_boxes[:, 3])[:, None] + a_w * a_h  # (M, A), union + intersection

    def iou_block(m, pixels):
        # The IoUs of vertebra m over the pixels[0] x pixels[1] x types
        # block; its C order is ascending flat anchor order.
        return iou_ratio(sides[0][m, pixels[0]][:, None] * sides[1][m, pixels[1]], areas[m])

    # passes[k][m, i]: some anchor on pixel i along axis k may pass the
    # threshold with vertebra m, by the bound of the largest overlap along
    # the other axis.  The candidate block holds every anchor above it.
    passes = [np.any(iou_ratio(side * peak[:, None], areas[:, None]) > iou_threshold, axis=2)
              for side, peak in zip(sides, peaks[::-1])]
    blocks, index, ious, matched = [], [], [], []
    for m in range(len(gt)):
        pixels = tuple(np.flatnonzero(p[m]) for p in passes)
        iou = iou_block(m, pixels)
        above = np.flatnonzero(iou > iou_threshold)
        blocks.append((iou, pixels))
        index.append(_block_anchors(above, iou.shape, pixels, shape))
        ious.append(iou.ravel()[above])
        matched.append(np.full(len(above), m))

    # Force the best unclaimed anchor of every vertebra positive, most
    # confident vertebra first, so two vertebrae never claim one anchor.  An
    # anchor above the threshold ranks above every anchor outside the
    # candidate block, so only when none is left unclaimed there is the full
    # block searched.  A vertebra whose unclaimed anchors all have IoU 0
    # takes the lowest unclaimed flat index.
    best = iou_ratio(peaks[0] * peaks[1], areas).max(axis=1)
    claims: dict[int, int] = {}
    for m in np.argsort(-best, kind="stable"):
        flat = _first_unclaimed(*blocks[m], iou_threshold, shape, claims)
        if flat is None:
            pixels = tuple(np.flatnonzero(side[m].any(axis=1)) for side in sides)
            flat = _first_unclaimed(iou_block(m, pixels), pixels, 0.0, shape, claims)
        if flat is None:
            flat = min(set(range(len(claims) + 1)) - claims.keys())
            if flat >= anchors.n_anchors:
                continue  # every anchor is claimed already
        claims[flat] = int(m)
    # The blocks (0.45 MB on the default phantom) and the overlap tables go
    # before the offsets are encoded: the tracemalloc peak falls from 4.0 to
    # 3.4 MB.
    del blocks, sides

    # One match per anchor: a forced claim (IoU +inf here) first, then the
    # highest IoU and, on ties, the lowest vertebra (lexsort is stable).
    index.append(np.fromiter(claims, int, len(claims)))
    ious.append(np.full(len(claims), np.inf))
    matched.append(np.fromiter(claims.values(), int, len(claims)))
    index = np.concatenate(index)
    order = np.lexsort((-np.concatenate(ious), index))
    index, matched = index[order], np.concatenate(matched)[order]
    first = np.diff(index, prepend=-1) != 0
    index, matched = index[first], matched[first]

    with np.errstate(over="ignore"):  # past the float range is inf, which pack_targets refuses
        offsets = encode_keypoints(gt_kps[matched], *anchors.locate(index))
    return DetectionTargets(shape, index, matched, offsets, gt_weights[matched])


def _block_anchors(j, block_shape, pixels, shape):
    """Flat anchor indices of C-order positions ``j`` of an IoU block over the
    pixels ``pixels[0]`` along x and ``pixels[1]`` along y of a ``shape`` grid."""
    bx, by, t = np.unravel_index(j, block_shape)
    return np.ravel_multi_index((pixels[0][bx], pixels[1][by], t), shape)


def _first_unclaimed(iou, pixels, floor, shape, claims):
    """The flat index of the highest-IoU anchor above ``floor`` of an IoU
    block (see ``_block_anchors``) that is not in ``claims``, or None.

    A claimed anchor that is the argmax drops to -1 in ``iou`` and the argmax
    is taken again; argmax keeps ties at the lowest flat index (determinism).
    """
    while iou.size and iou.max() > floor:
        col = int(iou.argmax())
        flat = int(_block_anchors(col, iou.shape, pixels, shape))
        if flat not in claims:
            return flat
        iou.flat[col] = -1.0
    return None


def _check_predictions(pred_objectness, pred_offsets, targets: DetectionTargets):
    """The checked objectness map and (P, 6, 2) offsets of the positive
    anchors, the only offsets the loss reads."""
    # C order: numpy's pairwise sums group terms by memory layout, so this keeps
    # the loss bitwise independent of the layout of the predictions (VG1 rasters
    # read as Fortran-ordered views).
    pred_o = finite_array(pred_objectness, "pred_objectness", targets.shape, order="C")
    pred_e = np.asarray(pred_offsets)
    if pred_e.shape != targets.shape + (N_KEYPOINTS, 2):
        raise ValueError(f"pred_offsets has shape {pred_e.shape}, expected "
                         f"{targets.shape + (N_KEYPOINTS, 2)}")
    return pred_o, finite_array(pred_e[np.unravel_index(targets.index, targets.shape)],
                                "pred_offsets", (targets.n_positive, N_KEYPOINTS, 2))


def detection_loss_terms(pred_objectness, pred_offsets,
                         targets: DetectionTargets) -> tuple[float, float]:
    """(bce, regression) parts of the detection loss.

    bce is the mean binary cross-entropy over all anchors with predictions
    clipped to [BCE_EPS, 1 - BCE_EPS].  The regression part averages, over positive
    anchors, the mean absolute offset error of the matched vertebra's 12
    encoded coordinates divided by its Genant index; it is zero when there
    is no positive anchor.
    """
    pred_o, pos_e = _check_predictions(pred_objectness, pred_offsets, targets)
    pos = targets.index
    p = np.clip(pred_o, BCE_EPS, 1 - BCE_EPS)
    # Each anchor's log-likelihood: log(1 - p) for a negative, log(p) for a positive.
    log_lik = np.log1p(-p)
    log_lik.flat[pos] = np.log(p.flat[pos])
    bce = float(-np.mean(log_lik))

    n_pos = targets.n_positive
    if n_pos == 0:
        return bce, 0.0
    err = np.abs(pos_e - targets.offsets).mean(axis=(1, 2))
    reg = float(np.sum(err / targets.genant_weights) / n_pos)
    return bce, reg


def detection_loss(pred_objectness, pred_offsets, targets: DetectionTargets) -> float:
    """Objectness BCE plus Genant-weighted keypoint regression error."""
    bce, reg = detection_loss_terms(pred_objectness, pred_offsets, targets)
    return bce + reg


def detection_loss_grad(pred_objectness, pred_offsets,
                        targets: DetectionTargets) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of detection_loss w.r.t. both prediction arrays.

    The BCE gradient is zero where the prediction is saturated past the
    clipping range; the regression gradient uses sign(error), i.e. zero at
    the (non-differentiable) exact match.
    """
    pred_o, pos_e = _check_predictions(pred_objectness, pred_offsets, targets)
    pos = targets.index
    inside = (pred_o > BCE_EPS) & (pred_o < 1 - BCE_EPS)
    p = np.clip(pred_o, BCE_EPS, 1 - BCE_EPS)
    # d(-log-likelihood)/dp: 1 / (1 - p) for a negative, -1 / p for a positive.
    grad = 1 / (1 - p)
    grad.flat[pos] = -1 / p.flat[pos]
    grad_o = np.where(inside, grad / pred_o.size, 0.0)

    grad_e = np.zeros(targets.shape + (N_KEYPOINTS, 2))
    n_pos = targets.n_positive
    if n_pos:
        scale = 1.0 / (targets.genant_weights * n_pos * 2 * N_KEYPOINTS)
        grad_e.reshape(-1, N_KEYPOINTS, 2)[pos] = (
            np.sign(pos_e - targets.offsets) * scale[:, None, None])
    return grad_o, grad_e


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_threshold: float = DEFAULT_NMS_IOU) -> np.ndarray:
    """Greedy non-maximum suppression, highest score first.

    ``boxes`` holds (K, 4) rows (cx, cy, w, h) with sides w, h > 0 and
    ``scores`` their (K,) scores, all finite; any other shape or value raises
    ValueError, as does an ``iou_threshold`` outside (0, 1].  Returns the
    indices of the kept boxes in descending-score order; ties keep the earlier
    box (stable sort).  A box is suppressed when its IoU with a kept box
    exceeds ``iou_threshold``, so a threshold of 1 suppresses nothing.

    Suppression goes one kept box at a time: the first box still alive is
    kept, and one ``iou_matrix`` call gives its IoU with the boxes alive after
    it whose y-interval overlaps its own; those above the threshold are
    dropped at once.  The intervals are cy -/+ h/2, formed as ``iou_matrix``
    forms them, and the tests are strict, so every box left out has a y
    overlap <= 0 and so an IoU of 0, which never suppresses.  The pairs whose
    IoU can suppress are thus the (kept, later) pairs of the textbook loop
    that tests each candidate against the boxes kept before it, and
    ``iou_matrix`` is symmetric to the bit, so the kept indices are that
    loop's.  The boxes are ranked once into (4, K) memory, so each overlap
    test runs along contiguous K.
    """
    finite_numbers(iou_threshold, "iou_threshold", domain="(0, 1]")
    boxes = finite_array(boxes, "boxes", (None, 4))
    finite_array(boxes[:, 2:], "boxes (w, h)", (None, 2), domain="> 0")
    scores = finite_array(scores, "scores", (len(boxes),))
    order = np.argsort(-scores, kind="stable")
    ranked = boxes.T.take(order, axis=1)  # (4, K); a fancy index takes about 3x as long
    half = ranked[3] / 2
    lo, hi = ranked[1] - half, ranked[1] + half
    alive = np.ones(len(order), dtype=bool)
    keep: list[int] = []
    r = 0
    while r < len(order) and alive[r]:
        keep.append(order[r])
        alive[r] = False
        near = np.flatnonzero((lo < hi[r]) & (hi > lo[r]) & alive)
        # Not ``<=``: a NaN IoU suppresses nothing.
        alive[near[iou_matrix(ranked[:, r:r + 1].T, ranked[:, near].T)[0] > iou_threshold]] = False
        r = alive.argmax()  # the first box alive: every box before it is kept or dropped
    return np.array(keep, dtype=np.intp)


def detect_candidates(index, scores, offsets, anchors: AnchorGrid,
                      score_threshold: float = DEFAULT_OBJECTNESS_THRESHOLD,
                      iou_threshold: float = DEFAULT_NMS_IOU) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping vertebra detections from candidate anchors.

    ``index`` holds flat anchor indices (see ``AnchorGrid``), ``scores``
    their (P,) objectness and ``offsets`` their (P, 6, 2) encoded keypoints.
    Candidates scoring strictly above ``score_threshold`` (in [0, 1]) are
    decoded in one pass and their tight boxes reduced by ``nms`` at
    ``iou_threshold`` (in (0, 1]); a threshold out of range raises
    ValueError.  Returns the survivors' (K, 6, 2) image keypoints and (K,)
    scores in keep order; ties break by the order of ``index``.  Non-finite
    inputs raise ValueError, and zero extent or keypoints past the float
    range GeometryError.

    The candidates' offsets are gathered once into coordinate-major (2, 6, P)
    memory and their centers and sides into (2, P), so the decode, the
    corners and the boxes (``nms`` gets a (P, 4) view of (4, P) memory) each
    run along contiguous P: with (P, 6, 2) rows numpy's inner loops run over
    2 elements.  Only the kept keypoints go back to (K, 6, 2) rows.
    """
    finite_numbers(score_threshold, "score_threshold", domain="[0, 1]")
    finite_numbers(iou_threshold, "iou_threshold", domain="(0, 1]")
    scores = finite_array(scores, "scores", (None,))
    index = finite_array(index, "index", scores.shape, np.intp)
    offsets = np.asarray(offsets)
    if offsets.shape != scores.shape + (N_KEYPOINTS, 2):
        raise ValueError(f"offsets has shape {offsets.shape}, expected "
                         f"{scores.shape + (N_KEYPOINTS, 2)}")
    offsets = np.ascontiguousarray(offsets.T)  # (2, 6, P); no copy when already so
    passed = scores > score_threshold
    # detect and rescore_chain pass only candidates above the threshold.  Gathering
    # all of them again copies 1 MB on the default phantom, which cost a rescore
    # about 500 page faults and 30% of its time.
    if not passed.all():
        index, scores, offsets = index[passed], scores[passed], offsets[..., passed]
    centers, sides = (np.ascontiguousarray(a.T) for a in anchors.locate(index))
    kps = decode_keypoints(offsets.T, centers.T, sides.T).T  # (2, 6, P)
    del offsets  # a copy, if one was made, goes before the boxes and NMS
    keep = nms(boxes_from_keypoints(kps.T), scores, iou_threshold)
    return np.ascontiguousarray(kps[..., keep].T), scores[keep]


def detect(objectness_map, offsets_map, anchors: AnchorGrid,
           score_threshold: float = DEFAULT_OBJECTNESS_THRESHOLD,
           iou_threshold: float = DEFAULT_NMS_IOU) -> tuple[np.ndarray, np.ndarray]:
    """``detect_candidates`` on the anchors of the (nx, ny, A) ``objectness_map``
    above ``score_threshold``, in flat order, and their (nx, ny, A, 6, 2)
    ``offsets_map`` rows.  Only the candidates' offsets are gathered, so
    float32 maps of any memory layout (views of a VG1 raster) decode to the
    same bits as float64 copies of them.  A non-finite objectness, or offset
    of a candidate, raises ValueError naming its map.
    """
    shape = anchors.image_shape + (anchors.n_types,)
    obj = finite_array(objectness_map, "objectness_map", shape)
    off = np.asarray(offsets_map)
    if off.shape != shape + (N_KEYPOINTS, 2):
        raise ValueError(f"offsets_map has shape {off.shape}, expected {shape + (N_KEYPOINTS, 2)}")
    finite_numbers(score_threshold, "score_threshold", domain="[0, 1]")  # before any gather
    index = np.flatnonzero(obj > score_threshold)
    cand = np.unravel_index(index, shape)
    return detect_candidates(index, obj[cand],
                             finite_array(off[cand], "offsets_map", (len(index), N_KEYPOINTS, 2)),
                             anchors, score_threshold, iou_threshold)
