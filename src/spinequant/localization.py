"""Centerline decoding from per-slice probability maps and its training target.

Per axial slice, a 2D map is reduced to one (x, y) point with a soft-argmax;
stacking the points over slices yields the 3D centerline polyline.  The
regression target interpolates the annotated middle-height keypoints over
the same slice grid, and the objective between the two is a plain mean
absolute error in mm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import GeometryError, Volume3D
from .genant import VertebraKeypoints


@dataclass(frozen=True)
class CenterlinePolyline:
    """One world-mm (x, y) point per axial slice, ordered by strictly increasing z.

    ``frame`` must be "world"; the field stays so positional callers keep working.
    """

    xy: np.ndarray   # (n, 2)
    z: np.ndarray    # (n,)
    frame: str = "world"

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2 or z.shape != (xy.shape[0],):
            raise ValueError(f"inconsistent polyline arrays: {xy.shape} vs {z.shape}")
        if self.frame != "world":
            raise ValueError(f"unknown frame {self.frame!r}, only 'world' is supported")
        if len(z) > 1 and not np.all(np.diff(z) > 0):
            raise ValueError("slice positions must be strictly increasing")
        xy.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return len(self.z)

    def points(self) -> np.ndarray:
        """(n, 3) array of (x, y, z) rows."""
        return np.column_stack([self.xy, self.z])


def soft_argmax_2d(values: np.ndarray, mode: str = "probabilities",
                   temperature: float = 1.0) -> tuple[float, float]:
    """Differentiable argmax of one 2D map: the weight-averaged grid position.

    In "probabilities" mode the map itself (non-negative, positive total mass)
    is normalized into weights; in "logits" mode weights are a softmax of
    ``temperature * values``.  Returns continuous (x, y) grid coordinates.
    """
    # C order keeps the pairwise sums, and so the result, bitwise independent
    # of the map's memory layout (a slice of a VG1 raster is Fortran-ordered).
    values = np.asarray(values, dtype=float, order="C")
    if values.ndim != 2:
        raise ValueError(f"expected a 2D map, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("map has NaN or infinite entries")
    if mode == "probabilities":
        if np.any(values < 0):
            raise ValueError("probability map has negative entries")
        total = values.sum()
        if not total > 0:
            raise GeometryError("probability map has no mass")
        w = values / total
    elif mode == "logits":
        shifted = temperature * (values - values.max())
        e = np.exp(shifted)
        w = e / e.sum()
    else:
        raise ValueError(f"unknown soft-argmax mode {mode!r}")
    xs = np.arange(values.shape[0], dtype=float)
    ys = np.arange(values.shape[1], dtype=float)
    return float(w.sum(axis=1) @ xs), float(w.sum(axis=0) @ ys)


def slicewise_centerline(maps: Volume3D, mode: str = "probabilities",
                         temperature: float = 1.0) -> CenterlinePolyline:
    """Decode one point per axial slice of ``maps`` into the world-mm polyline.

    The slices of the volume hold probability maps (or logits); each decoded
    voxel position goes through the volume's ``voxel_to_world``.  Per-slice
    failures are re-raised with the slice index attached.
    """
    values = maps.values
    pts = np.empty((values.shape[2], 2))
    for k in range(values.shape[2]):
        try:
            pts[k] = soft_argmax_2d(values[:, :, k], mode=mode, temperature=temperature)
        except (GeometryError, ValueError) as exc:
            raise GeometryError(f"slice {k}: {exc}") from exc
    world = maps.voxel_to_world(np.column_stack([pts, np.arange(values.shape[2], dtype=float)]))
    return CenterlinePolyline(world[:, :2], world[:, 2])


def centerline_target(annotations: list[VertebraKeypoints],
                      z_slices: np.ndarray) -> CenterlinePolyline:
    """Regression target: middle keypoints interpolated over the slice grid.

    All middle superior/inferior keypoints are sorted by world z and x(z),
    y(z) are interpolated with a monotone piecewise-cubic scheme, which
    passes through the keypoints without overshooting between vertebrae.
    The curve is evaluated at every entry of ``z_slices`` (world mm) lying
    between the extreme keypoints.
    """
    pts = []
    for kps in annotations:
        pts.append(kps.middle_superior)
        pts.append(kps.middle_inferior)
    if not pts:
        raise GeometryError("no annotations")
    pts = np.asarray(pts, dtype=float)
    order = np.argsort(pts[:, 2])
    pts = pts[order]
    # Collapse duplicate z values (shared endplate annotations) by averaging.
    z_unique, inverse = np.unique(pts[:, 2], return_inverse=True)
    if len(z_unique) < 2:
        raise GeometryError("need middle keypoints at two or more distinct z values")
    xy = np.zeros((len(z_unique), 2))
    np.add.at(xy, inverse, pts[:, :2])
    xy /= np.bincount(inverse)[:, None]

    fx = PchipInterpolator(z_unique, xy[:, 0])
    fy = PchipInterpolator(z_unique, xy[:, 1])
    z_slices = np.asarray(z_slices, dtype=float)
    inside = (z_slices >= z_unique[0]) & (z_slices <= z_unique[-1])
    z_eval = z_slices[inside]
    if len(z_eval) < 2:
        raise GeometryError("fewer than two slices fall inside the annotated span")
    return CenterlinePolyline(np.column_stack([fx(z_eval), fy(z_eval)]), z_eval)


def centerline_mae(pred: CenterlinePolyline, target: CenterlinePolyline) -> float:
    """Mean absolute per-coordinate deviation between two polylines.

    Both polylines must share their slice grid; the result is in mm.
    """
    if len(pred) != len(target) or not np.allclose(pred.z, target.z, atol=1e-9):
        raise ValueError("polylines cover different slice ranges")
    return float(np.mean(np.abs(pred.xy - target.xy)))


def upsample_curve(curve: CenterlinePolyline, z_fine: np.ndarray) -> CenterlinePolyline:
    """Linearly interpolate a polyline onto a finer slice grid.

    Positions beyond the coarse range are extended linearly along the end
    segments, so a straight centerline stays straight after upsampling.
    """
    if len(curve) < 2:
        raise GeometryError("need at least two coarse samples")
    z_fine = np.sort(np.asarray(z_fine, dtype=float))
    xy = np.column_stack([
        _interp_extrap(z_fine, curve.z, curve.xy[:, 0]),
        _interp_extrap(z_fine, curve.z, curve.xy[:, 1]),
    ])
    return CenterlinePolyline(xy, z_fine)


def _interp_extrap(x, xp, fp):
    """np.interp with linear extrapolation from the end segments."""
    y = np.interp(x, xp, fp)
    lo = x < xp[0]
    hi = x > xp[-1]
    if np.any(lo):
        slope = (fp[1] - fp[0]) / (xp[1] - xp[0])
        y[lo] = fp[0] + slope * (x[lo] - xp[0])
    if np.any(hi):
        slope = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
        y[hi] = fp[-1] + slope * (x[hi] - xp[-1])
    return y
