"""References the tests hold the array code to: scalar ones (one box, one
anchor or one point set at a time), whole-grid ones (every anchor at once),
per-study ones (one study of an evaluation set at a time), a point-list
phantom rasterizer and the element-by-element walk of the JSON number rule.

A box is a plain (cx, cy, w, h) row.
"""
import math
import numbers
import reprlib
from dataclasses import asdict

import numpy as np

from spinequant.core import (DEFAULT_FILL, UndefinedMetricError, _sample_voxel_coords,
                             iou_matrix)
from spinequant.evaluation import (EvalReport, _mean_std, classification_report,
                                   sagittal_plane_box)
from spinequant.genant import DEFAULT_MILD_CUT, DEFAULT_MODERATE_CUT
from spinequant.phantom import BODY_INTENSITY


def corners(box) -> tuple:
    """(x0, y0, x1, y1) of a box."""
    cx, cy, w, h = box
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def iou(a, b) -> float:
    """Intersection-over-union of two boxes from their corners."""
    ax0, ay0, ax1, ay1 = corners(a)
    bx0, by0, bx1, by1 = corners(b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return float(min(inter / union, 1.0))


def encode_one(keypoints, anchor) -> np.ndarray:
    """Offsets (k - center) / side of (6, 2) keypoints from one anchor box."""
    cx, cy, w, h = anchor
    return (np.asarray(keypoints, dtype=float) - [cx, cy]) / [w, h]


def decode_one(offsets, anchor) -> np.ndarray:
    """Inverse of encode_one: offsets * side + center."""
    cx, cy, w, h = anchor
    return np.asarray(offsets, dtype=float) * [w, h] + [cx, cy]


def anchor_boxes_flat(grid) -> np.ndarray:
    """(N, 4) rows (cx, cy, w, h) of every anchor of an ``AnchorGrid`` in flat order.

    Row (ix * ny + iy) * A + t is anchor (ix, iy, t): the C order of an
    (nx, ny, A) array.
    """
    nx, ny = grid.image_shape
    ix, iy, t = (g.ravel() for g in np.meshgrid(np.arange(nx), np.arange(ny),
                                                 np.arange(grid.n_types), indexing="ij"))
    return np.column_stack([ix, iy, grid.sides_px[t]]).astype(float)


def anchor_ious(grid, ground_truth) -> np.ndarray:
    """(M, N) IoU of M annotated vertebrae, (keypoints (6, 2), genant) pairs,
    with every anchor in flat order: one ``iou_matrix`` call on tight boxes."""
    kps = np.array([k for k, _ in ground_truth], dtype=float)
    lo, hi = kps.min(axis=1), kps.max(axis=1)
    return iou_matrix(np.concatenate([(lo + hi) / 2, hi - lo], axis=1), anchor_boxes_flat(grid))


def full_grid_targets(grid, ground_truth, iou_threshold=0.5):
    """(index, matched, offsets, genant_weights) of the positive anchors, from
    ``anchor_ious`` over the whole grid and the claim rules.

    An anchor above the threshold goes to its first best vertebra.  Then,
    most confident vertebra first, each claims the first maximum of its IoU
    row, and the claimed column drops to -1 for every vertebra.
    """
    overlaps = anchor_ious(grid, ground_truth)
    best = overlaps.argmax(axis=0)
    match = np.where(overlaps.max(axis=0) > iou_threshold, best, -1)
    for m in np.argsort(-overlaps.max(axis=1), kind="stable"):
        col = overlaps[m].argmax()
        if overlaps[m, col] >= 0:
            match[col] = m
            overlaps[:, col] = -1.0
    index = np.flatnonzero(match >= 0)
    matched = match[index]
    anchors = anchor_boxes_flat(grid)
    kps = np.array([k for k, _ in ground_truth], dtype=float)
    offsets = (kps[matched] - anchors[index, None, :2]) / anchors[index, None, 2:]
    return index, matched, offsets, np.array([g for _, g in ground_truth])[matched]


def trilinear_sample(vol, pts, fill: float = DEFAULT_FILL) -> np.ndarray | float:
    """Trilinear interpolation of a Volume3D at world-mm points, through the
    package's kernel ``_sample_voxel_coords``.

    ``pts`` is one point (3,), which gives a float, or an array (..., 3).
    Points outside the voxel-center hull return ``fill``.
    """
    pts = np.asarray(pts, dtype=float)
    out = _sample_voxel_coords(vol.values, vol.world_to_voxel(pts.reshape(-1, 3)), float(fill))
    return float(out[0]) if pts.ndim == 1 else out.reshape(pts.shape[:-1])


def greedy_match(det_boxes, scores, gt_boxes, iou_threshold):
    """(pairs, false positives, false negatives) of one study, one detection at a time.

    By (-score, box) each detection takes the first maximum of its IoU row
    over the unclaimed ground truth in box order, if it exceeds the threshold.
    """
    det_boxes = np.asarray(det_boxes, dtype=float).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    if len(det_boxes) == 0 or len(gt_boxes) == 0:
        return [], list(range(len(det_boxes))), list(range(len(gt_boxes)))
    gt_rank = np.lexsort(gt_boxes.T[::-1])
    overlaps = iou_matrix(det_boxes, gt_boxes[gt_rank])
    pairs, fps = [], []
    for i in np.lexsort((*det_boxes.T[::-1], -scores)):
        col = int(np.argmax(overlaps[i]))
        if overlaps[i, col] > iou_threshold:
            overlaps[:, col] = -np.inf  # claimed
            pairs.append((int(i), int(gt_rank[col])))
        else:
            fps.append(int(i))
    claimed = {m for _, m in pairs}
    return sorted(pairs), sorted(fps), [m for m in range(len(gt_boxes)) if m not in claimed]


def study_set_report(studies, iou_threshold=0.5, mild_cut=DEFAULT_MILD_CUT,
                     moderate_cut=DEFAULT_MODERATE_CUT):
    """``evaluate_study_set``'s (report, problems), one study at a time: each
    study's boxes, greedy matches and nearest centers on their own."""
    problems = []
    report = EvalReport()
    all_loc, frac_loc = [], []
    pred_g, gt_g = [], []
    patient_pred, patient_gt = [], []
    tp = fp = fn = 0
    n_gt_fractured = tp_fractured = 0

    for study in studies:
        det_kps = np.reshape([kps for kps, _, _ in study["detections"]], (-1, 6, 3))
        gt_kps = np.reshape([kps for kps, _ in study["ground_truth"]], (-1, 6, 3))
        det_gs = [g for _, g, _ in study["detections"]]
        gt_gs = [g for _, g in study["ground_truth"]]
        scores = [1.0 if score is None else score for _, _, score in study["detections"]]
        pairs, fps, fns = greedy_match(sagittal_plane_box(det_kps), scores,
                                       sagittal_plane_box(gt_kps), iou_threshold)
        tp += len(pairs)
        fp += len(fps)
        fn += len(fns)
        if det_gs and gt_gs:
            pred_c = (det_kps[:, 2] + det_kps[:, 3]) / 2
            gt_c = (gt_kps[:, 2] + gt_kps[:, 3]) / 2
            with np.errstate(over="ignore"):
                errs = np.linalg.norm(pred_c[:, None, :] - gt_c[None, :, :], axis=2).min(axis=1)
            all_loc.extend(errs.tolist())
            frac_loc.extend(float(errs[i]) for i, m in pairs if gt_gs[m] <= moderate_cut)
        for i, m in pairs:
            pred_g.append(det_gs[i])
            gt_g.append(gt_gs[m])
            if gt_gs[m] <= moderate_cut:
                tp_fractured += 1
        n_gt_fractured += sum(1 for g in gt_gs if g <= moderate_cut)
        if det_gs:
            patient_pred.append(min(det_gs))
        if gt_gs:
            patient_gt.append(min(gt_gs))

    if all_loc:
        report.localization_mean_mm, report.localization_std_mm = _mean_std(all_loc)
    if frac_loc:
        (report.localization_fractured_mean_mm,
         report.localization_fractured_std_mm) = _mean_std(frac_loc)
    report.tp, report.fp, report.fn = tp, fp, fn
    report.precision = tp / (tp + fp) if (tp + fp) else None
    report.recall = tp / (tp + fn) if (tp + fn) else None
    if n_gt_fractured:
        report.recall_fractured = tp_fractured / n_gt_fractured

    levels = {"vertebra": (pred_g, gt_g)}
    if len(patient_pred) >= 2 and len(patient_pred) == len(patient_gt):
        levels["patient"] = (patient_pred, patient_gt)
    for name, cut in (("mild", mild_cut), ("moderate", moderate_cut)):
        report.classification[name] = {"vertebra": None, "patient": None}
        for level, (pred, gt) in levels.items():
            try:
                report.classification[name][level] = asdict(classification_report(pred, gt, cut))
            except (UndefinedMetricError, ValueError) as exc:
                problems.append(f"{name}/{level}: {exc}")
    return report, problems


def fill_body(values, cfg, center, axis_lr, axis_ap, axis_up, width, depth, heights_trip):
    """``phantom._fill_body`` from a point list: every subgrid voxel as one (x, y, z)
    world offset row, and each local coordinate one matmul with a body axis."""
    h_a, h_m, h_p = heights_trip
    radius = np.sqrt(width ** 2 + depth ** 2 + max(heights_trip) ** 2) / 2
    spacing = np.asarray(cfg.spacing)
    origin = np.asarray(cfg.origin)
    lo = np.maximum(np.floor((center - radius - origin) / spacing).astype(int), 0)
    hi = np.minimum(np.ceil((center + radius - origin) / spacing).astype(int) + 1,
                    cfg.shape)
    if np.any(lo >= hi):
        return
    grid = np.meshgrid(*(np.arange(a, b) for a, b in zip(lo, hi)), indexing="ij")
    pts = origin + np.stack(grid, axis=-1) * spacing - center
    local_lr = pts @ axis_lr
    local_ap = pts @ axis_ap
    local_up = pts @ axis_up
    half_depth = depth / 2
    frac = np.clip(local_ap / half_depth, -1.0, 1.0)
    h = np.where(frac <= 0, h_a + (h_m - h_a) * (1 + frac), h_m + (h_p - h_m) * frac)
    inside = (np.abs(local_lr) <= width / 2) & (np.abs(local_ap) <= half_depth) \
        & (np.abs(local_up) <= h / 2)
    values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]][inside] = BODY_INTENSITY


def finite_numbers_walk(value, name: str, shape: tuple = (), integer: bool = False):
    """``core.finite_numbers`` as a recursive walk: one generator frame per element.

    Each leaf must be a real number (an integer if ``integer``), not a bool,
    and finite as a float; each sequence a list, tuple or ndarray of the
    length ``shape`` gives.  Returns the same nested tuples of floats (or
    ints) and raises the same ValueError message.
    """
    number = numbers.Integral if integer else numbers.Real

    def walk(v, dims):
        if not dims:
            if isinstance(v, bool) or not isinstance(v, number) or not math.isfinite(v):
                raise ValueError
            return int(v) if integer else float(v)
        if not isinstance(v, (list, tuple, np.ndarray)) or dims[0] not in (None, len(v)):
            raise ValueError
        return tuple(walk(x, dims[1:]) for x in v)

    try:
        return walk(value, shape)
    except (ValueError, TypeError, OverflowError):
        kind = "finite integer" if integer else "finite number"
        what = f"{kind}s of shape {shape}".replace("None", "n") if shape else f"a {kind}"
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}") from None
