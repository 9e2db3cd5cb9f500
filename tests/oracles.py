"""References the tests hold the array code to: scalar ones (one box, one
anchor or one point set at a time) and whole-grid ones (every anchor at once).

A box is a plain (cx, cy, w, h) row.
"""
import numpy as np

from spinequant.core import DEFAULT_FILL, _sample_voxel_coords, iou_matrix


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
