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

from .core import GeometryError, Volume3D, finite_array, finite_numbers, owned_array
from .genant import VertebraKeypoints
from .splines import pchip


SPAN_SLACK_MM = 1e-9  # how far a slice may pass a centerline's end and still lie on it
# Slices per soft-argmax pass: 8-32 timed alike on the default 54 x 54 stack; 16 is a 0.37 MB slab.
CENTERLINE_SLAB = 16


@dataclass(frozen=True)
class CenterlinePolyline:
    """One finite world-mm (x, y) point per axial slice, ordered by strictly increasing z."""

    xy: np.ndarray   # (n, 2)
    z: np.ndarray    # (n,)

    def __post_init__(self):
        xy = owned_array(finite_array(self.xy, "xy", (None, 2)), float)
        z = owned_array(finite_array(self.z, "z", (len(xy),)), float)
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
    An unknown ``mode`` or a non-finite ``temperature`` or map raises ValueError.
    """
    temperature = _check_mode(mode, temperature)
    # C order keeps the pairwise sums, and so the result, bitwise independent
    # of the map's memory layout (a slice of a VG1 raster is Fortran-ordered).
    values = finite_array(values, "values", (None, None), order="C")
    return _soft_argmax(values[None].copy(), mode, temperature)[0]


def _soft_argmax(maps: np.ndarray, mode: str, temperature: float) -> list[tuple[float, float]]:
    """``soft_argmax_2d`` of each of (S, nx, ny) ``maps``, which it may overwrite once float64 and
    C-ordered; the dots stay one per map, as a batched (S, nx) @ (nx,) rounds otherwise."""
    w = finite_array(maps, "values", (None, None, None), order="C")
    if mode == "probabilities":
        if np.any(w < 0):
            raise ValueError("probability map has negative entries")
        if not np.all((total := w.sum(axis=(1, 2))) > 0):
            raise GeometryError("probability map has no mass")
    else:
        w -= w.max(axis=(1, 2), keepdims=True)
        w *= temperature
        total = np.exp(w, out=w).sum(axis=(1, 2))
    w /= total[:, None, None]
    xs, ys = (np.arange(n, dtype=float) for n in w.shape[1:])
    return [(float(a @ xs), float(b @ ys)) for a, b in zip(w.sum(axis=2), w.sum(axis=1))]


def _check_mode(mode: str, temperature: float) -> float:
    """The soft-argmax ``temperature`` as a float, once ``mode`` and it are known good."""
    if mode not in ("probabilities", "logits"):
        raise ValueError(f"unknown soft-argmax mode {mode!r}")
    return finite_numbers(temperature, "temperature")


def slicewise_centerline(maps: Volume3D, mode: str = "probabilities",
                         temperature: float = 1.0) -> CenterlinePolyline:
    """Decode one point per axial slice of ``maps`` into the world-mm polyline.

    The slices of the volume hold probability maps (or logits); each decoded
    voxel position goes through the volume's ``voxel_to_world``.  In
    "probabilities" mode an all-zero map, as a network may emit off the spine,
    holds no position: its slice is skipped, at an end or in the middle, and
    ``upsample_curve`` spans the gap; fewer than two slices left raise
    GeometryError.  A bad ``mode`` or ``temperature`` is a ValueError before any
    slice is read; a fault in a slice's map is re-raised as GeometryError with its index.
    Slabs of ``CENTERLINE_SLAB`` maps are decoded at once, a failing one again map by map.
    """
    temperature = _check_mode(mode, temperature)
    values = maps.values
    pts = []
    for k0 in range(0, values.shape[2], CENTERLINE_SLAB):
        slab = values[:, :, k0:k0 + CENTERLINE_SLAB].transpose(2, 0, 1)
        ks = k0 + np.flatnonzero(slab.any(axis=(1, 2)) | (mode == "logits"))
        try:
            xy = _soft_argmax(slab if len(ks) == len(slab) else slab[ks - k0], mode, temperature)
            pts += [(x, y, k) for (x, y), k in zip(xy, ks)]
        except (GeometryError, ValueError):
            for k in ks:
                try:
                    soft_argmax_2d(values[:, :, k], mode=mode, temperature=temperature)
                except (GeometryError, ValueError) as exc:
                    raise GeometryError(f"slice {k}: {exc}") from exc
            raise
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
    z_slices = finite_array(z_slices, "z_slices", (None,))
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
    z_fine = np.sort(finite_array(z_fine, "z_fine", (None,)))
    if np.any(z_fine < curve.z[0] - SPAN_SLACK_MM) or np.any(z_fine > curve.z[-1] + SPAN_SLACK_MM):
        raise GeometryError(f"slices outside the centerline's span "
                            f"[{curve.z[0]:g}, {curve.z[-1]:g}] mm")
    xy = np.column_stack([np.interp(z_fine, curve.z, curve.xy[:, k]) for k in range(2)])
    return CenterlinePolyline(xy, z_fine)
