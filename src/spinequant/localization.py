"""Centerline decoding from per-slice probability maps and its training target.

Per axial slice, a 2D map is reduced to one (x, y) point with a soft-argmax;
stacking the points over slices yields the 3D centerline polyline.  The
regression target interpolates the annotated middle-height keypoints over
the same slice grid, and the objective between the two is a plain mean
absolute error in mm.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .core import GeometryError, Volume3D, owned_array
from .genant import VertebraKeypoints
from .splines import pchip


SPAN_SLACK_MM = 1e-9  # how far a slice may pass a centerline's end and still lie on it


@dataclass(frozen=True)
class CenterlinePolyline:
    """One finite world-mm (x, y) point per axial slice, ordered by strictly increasing z."""

    xy: np.ndarray   # (n, 2)
    z: np.ndarray    # (n,)

    def __post_init__(self):
        xy = owned_array(self.xy, float)
        z = owned_array(self.z, float)
        if xy.ndim != 2 or xy.shape[1] != 2 or z.shape != (xy.shape[0],):
            raise ValueError(f"inconsistent polyline arrays: {xy.shape} vs {z.shape}")
        for name, arr in (("xy", xy), ("z", z)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {reprlib.repr(arr.tolist())}")
        if len(z) > 1 and not np.all(np.diff(z) > 0):
            raise ValueError("slice positions must be strictly increasing")
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
    A non-finite ``temperature`` raises ValueError in either mode.
    """
    if not math.isfinite(temperature):
        raise ValueError(f"temperature must be finite, got {temperature!r}")
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
    voxel position goes through the volume's ``voxel_to_world``.  In
    "probabilities" mode an all-zero map, as a network may emit off the spine,
    holds no position: its slice is skipped, at an end or in the middle, and
    ``upsample_curve`` spans the gap; fewer than two slices left raise
    GeometryError.  Other per-slice failures are re-raised with the slice index.
    """
    values = maps.values
    pts = []
    for k in range(values.shape[2]):
        if mode == "probabilities" and not values[:, :, k].any():
            continue
        try:
            pts.append((*soft_argmax_2d(values[:, :, k], mode=mode, temperature=temperature), k))
        except (GeometryError, ValueError) as exc:
            raise GeometryError(f"slice {k}: {exc}") from exc
    if len(pts) < min(2, values.shape[2]):
        raise GeometryError(f"only {len(pts)} of {values.shape[2]} slices have probability "
                            "mass; a centerline needs two")
    world = maps.voxel_to_world(np.array(pts, dtype=float).reshape(-1, 3))
    return CenterlinePolyline(world[:, :2], world[:, 2])


def centerline_target(annotations: list[VertebraKeypoints],
                      z_slices: np.ndarray) -> CenterlinePolyline:
    """Regression target: middle keypoints interpolated over the slice grid.

    All middle superior/inferior keypoints are sorted by world z and x(z),
    y(z) are interpolated with Fritsch-Carlson monotone piecewise cubics
    (``splines.pchip``, PCHIP), which pass through the keypoints without
    overshooting between vertebrae.
    The curve is evaluated at every entry of ``z_slices`` (world mm) lying
    between the extreme keypoints; a non-finite entry raises ValueError.
    """
    z_slices = np.asarray(z_slices, dtype=float)
    if not np.all(np.isfinite(z_slices)):
        raise ValueError(f"z_slices must be finite, got {reprlib.repr(z_slices.tolist())}")
    if not annotations:
        raise GeometryError("no annotations")
    pts = np.concatenate([kps.as_array()[2:4] for kps in annotations])
    order = np.argsort(pts[:, 2])
    pts = pts[order]
    # Collapse duplicate z values (shared endplate annotations) by averaging.
    z_unique, inverse = np.unique(pts[:, 2], return_inverse=True)
    if len(z_unique) < 2:
        raise GeometryError("need middle keypoints at two or more distinct z values")
    xy = np.zeros((len(z_unique), 2))
    np.add.at(xy, inverse, pts[:, :2])
    xy /= np.bincount(inverse)[:, None]

    fit = pchip(z_unique, xy)
    inside = (z_slices >= z_unique[0]) & (z_slices <= z_unique[-1])
    z_eval = z_slices[inside]
    if len(z_eval) < 2:
        raise GeometryError("fewer than two slices fall inside the annotated span")
    return CenterlinePolyline(fit(z_eval), z_eval)


def centerline_mae(pred: CenterlinePolyline, target: CenterlinePolyline) -> float:
    """Mean absolute per-coordinate deviation between two polylines.

    Both polylines must share their slice grid; the result is in mm.
    """
    if len(pred) != len(target) or not np.allclose(pred.z, target.z, atol=1e-9):
        raise ValueError("polylines cover different slice ranges")
    return float(np.mean(np.abs(pred.xy - target.xy)))


def upsample_curve(curve: CenterlinePolyline, z_fine: np.ndarray) -> CenterlinePolyline:
    """Linearly interpolate a polyline onto a finer slice grid within its span.

    A position more than ``SPAN_SLACK_MM`` outside the coarse range raises
    GeometryError; one within the slack takes the end point.
    """
    if len(curve) < 2:
        raise GeometryError("need at least two coarse samples")
    z_fine = np.sort(np.asarray(z_fine, dtype=float))
    if np.any(z_fine < curve.z[0] - SPAN_SLACK_MM) or np.any(z_fine > curve.z[-1] + SPAN_SLACK_MM):
        raise GeometryError(f"slices outside the centerline's span "
                            f"[{curve.z[0]:g}, {curve.z[-1]:g}] mm")
    xy = np.column_stack([np.interp(z_fine, curve.z, curve.xy[:, k]) for k in range(2)])
    return CenterlinePolyline(xy, z_fine)
