"""Shared geometry primitives: volume raster, 2D boxes, trilinear interpolation.

Coordinate conventions used throughout the package:

* world coordinates are millimetres; voxel indices address voxel centers,
  so ``world = origin + index * spacing``.
* x is the patient left-right axis, y is anterior-posterior and z is the
  cranio-caudal (axial stack) axis.
* intensities are stored as 32-bit floats regardless of the source width.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_FILL = -1024.0  # air on the HU scale


class GeometryError(ValueError):
    """Degenerate geometry: zero-extent boxes, unusable centerlines, bad grids."""


class UndefinedMetricError(ValueError):
    """A requested metric has no defined value, e.g. single-class ROC AUC."""


@dataclass(frozen=True)
class Volume3D:
    """Immutable voxel raster with anisotropic spacing and a world origin.

    ``values`` has shape (nx, ny, nz); ``origin`` is the world position of the
    center of voxel (0, 0, 0).  The raster keeps the memory order it is given
    (a VG1 file reads as an x-fastest, Fortran-ordered array).  A writeable
    array is copied, so later writes to it do not leak in; an array that is
    already read-only down to the buffer that owns its memory is adopted.
    """

    values: np.ndarray
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 3:
            raise ValueError(f"expected a 3D array, got shape {values.shape}")
        spacing = _finite_triple(self.spacing, "spacing")
        origin = _finite_triple(self.origin, "origin")
        if min(spacing) <= 0:
            raise ValueError(f"spacing must be three positive numbers, got {spacing}")
        if not all(math.isfinite(o + (n - 1) * s)
                   for o, n, s in zip(origin, values.shape, spacing)):
            raise ValueError(f"spacing {spacing} and origin {origin} put the far "
                             f"voxel of a {values.shape} grid at infinity")
        if values is self.values and not _read_only(values):
            values = values.copy(order="K")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def voxel_to_world(self, idx) -> np.ndarray:
        """Map (continuous) voxel indices, shape (..., 3), to world mm."""
        idx = np.asarray(idx, dtype=float)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def world_to_voxel(self, pts) -> np.ndarray:
        """Map world-mm points, shape (..., 3), to continuous voxel indices."""
        pts = np.asarray(pts, dtype=float)
        return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)

    def slice_z_world(self) -> np.ndarray:
        """World z coordinate of each axial slice center."""
        nz = self.shape[2]
        return self.origin[2] + self.spacing[2] * np.arange(nz)


def _finite_triple(values, name: str) -> tuple[float, float, float]:
    """Three finite real numbers (bools excluded) as floats, else ValueError naming the field."""
    try:
        out = tuple(float(v) for v in values
                    if isinstance(v, numbers.Real) and not isinstance(v, bool))
        ok = len(out) == len(values) == 3 and all(map(math.isfinite, out))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be three finite numbers, got {values!r}")
    return out


def _read_only(values: np.ndarray) -> bool:
    """Whether no array in the view chain down to the owner of the memory is writeable."""
    while values is not None:
        if not isinstance(values, np.ndarray) or values.flags.writeable:
            return False
        values = values.base
    return True


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned 2D box given by center and positive width/height."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise GeometryError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) of the box."""
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=float)


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two boxes, in [0, 1] (rounding capped at 1)."""
    ax0, ay0, ax1, ay1 = a.corners
    bx0, by0, bx1, by1 = b.corners
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return float(min(inter / union, 1.0))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between box arrays of shape (N, 4) and (M, 4).

    Boxes are rows (cx, cy, w, h); returns an (N, M) matrix.  The x and y
    overlaps of every pair are formed together in one (2, N, M) side array,
    so a call costs the same few numpy operations whatever N and M are; a
    pair that does not overlap gets exactly 0, and identical boxes, whose
    rounded corners can give a ratio just above 1, get exactly 1.
    """
    # Coordinate-major (4, N) copies, so the (2, N, M) broadcasts run along
    # contiguous memory (an (N, M, 2) layout is about twice as slow at large N).
    a = np.ascontiguousarray(np.array(a, dtype=float, ndmin=2).T)
    b = np.ascontiguousarray(np.array(b, dtype=float, ndmin=2).T)
    a_half = a[2:] / 2
    b_half = b[2:] / 2
    a_lo, a_hi = a[:2] - a_half, a[:2] + a_half
    b_lo, b_hi = b[:2] - b_half, b[:2] + b_half
    side = np.minimum(a_hi[:, :, None], b_hi[:, None])
    side -= np.maximum(a_lo[:, :, None], b_lo[:, None])
    np.maximum(side, 0.0, out=side)
    inter = side[0] * side[1]
    union = (a[2] * a[3])[:, None] + (b[2] * b[3])[None, :]
    union -= inter
    inter /= union
    np.minimum(inter, 1.0, out=inter)
    return inter


def boxes_from_keypoints(kps: np.ndarray) -> np.ndarray:
    """Tight axis-aligned boxes of K point sets, (K, N, 2) -> (K, 4) rows (cx, cy, w, h).

    Raises ValueError unless every point is finite, and GeometryError when
    any set is collinear along an axis, which signals a corrupt annotation.
    """
    kps = np.asarray(kps, dtype=float)
    if kps.ndim != 3 or kps.shape[1] == 0 or kps.shape[2] != 2 \
            or not np.all(np.isfinite(kps)):
        raise ValueError(f"expected finite point sets of shape (K, N, 2), got {kps.shape}")
    lo = kps.min(axis=1)
    hi = kps.max(axis=1)
    if np.any(hi <= lo):
        raise GeometryError("keypoints have zero extent along an axis")
    return np.concatenate([(lo + hi) / 2, hi - lo], axis=1)


def bbox_from_keypoints(kps: np.ndarray) -> Box2D:
    """Tight axis-aligned box of one set of 2D points, shape (N, 2) (no margin).

    The checks and errors are those of ``boxes_from_keypoints``.
    """
    return Box2D(*boxes_from_keypoints(np.asarray(kps, dtype=float)[None])[0])


def trilinear_sample(vol: Volume3D, pts, fill: float = DEFAULT_FILL) -> np.ndarray | float:
    """Trilinear interpolation of the volume at world-mm points.

    ``pts`` is a single point of shape (3,) or an array (..., 3).  Points
    outside the voxel-center hull return ``fill``.  Scalar input yields a
    scalar.
    """
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    idx = vol.world_to_voxel(pts.reshape(-1, 3))
    out = _sample_voxel_coords(vol.values, idx, float(fill))
    if single:
        return float(out[0])
    return out.reshape(pts.shape[:-1])


_HULL_TOL = 1e-6  # voxel units; absorbs float noise at the exact hull boundary


def _sample_voxel_coords(values: np.ndarray, idx: np.ndarray, fill: float) -> np.ndarray:
    """Trilinear interpolation at continuous voxel coordinates (N, 3)."""
    nx, ny, nz = values.shape
    x, y, z = idx[:, 0], idx[:, 1], idx[:, 2]
    inside = ((x >= -_HULL_TOL) & (x <= nx - 1 + _HULL_TOL) &
              (y >= -_HULL_TOL) & (y <= ny - 1 + _HULL_TOL) &
              (z >= -_HULL_TOL) & (z <= nz - 1 + _HULL_TOL))

    # Base corner clipped so that i0+1 stays addressable; fractional parts
    # are computed against the clipped base, which is exact on the far face.
    x0 = np.clip(np.floor(x).astype(np.intp), 0, max(nx - 2, 0))
    y0 = np.clip(np.floor(y).astype(np.intp), 0, max(ny - 2, 0))
    z0 = np.clip(np.floor(z).astype(np.intp), 0, max(nz - 2, 0))
    fx = np.clip(x - x0, 0.0, 1.0)
    fy = np.clip(y - y0, 0.0, 1.0)
    fz = np.clip(z - z0, 0.0, 1.0)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)

    c000 = values[x0, y0, z0]
    c100 = values[x1, y0, z0]
    c010 = values[x0, y1, z0]
    c110 = values[x1, y1, z0]
    c001 = values[x0, y0, z1]
    c101 = values[x1, y0, z1]
    c011 = values[x0, y1, z1]
    c111 = values[x1, y1, z1]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    return np.where(inside, out, fill)


def resample_volume(vol: Volume3D, new_spacing, fill: float = DEFAULT_FILL) -> Volume3D:
    """Trilinear resample onto a grid with the given spacing.

    The origin is preserved and the new grid covers at least the original
    world extent; samples that land beyond the voxel hull take ``fill``.
    """
    new_spacing = tuple(float(s) for s in new_spacing)
    if any(s <= 0 for s in new_spacing):
        raise ValueError(f"new spacing must be positive, got {new_spacing}")
    old_extent = [(n - 1) * s for n, s in zip(vol.shape, vol.spacing)]
    new_shape = tuple(int(np.ceil(round(e / s, 9))) + 1
                      for e, s in zip(old_extent, new_spacing))
    out = np.empty(new_shape, dtype=np.float32)
    xs = vol.origin[0] + new_spacing[0] * np.arange(new_shape[0])
    ys = vol.origin[1] + new_spacing[1] * np.arange(new_shape[1])
    zs = vol.origin[2] + new_spacing[2] * np.arange(new_shape[2])

    def fill_chunk(k0: int, k1: int):
        gx, gy, gz = np.meshgrid(xs, ys, zs[k0:k1], indexing="ij")
        pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        idx = vol.world_to_voxel(pts)
        out[:, :, k0:k1] = _sample_voxel_coords(vol.values, idx, float(fill)).reshape(
            new_shape[0], new_shape[1], k1 - k0)

    _run_chunked(fill_chunk, new_shape[2])
    return Volume3D(out, new_spacing, vol.origin)


def _run_chunked(fn, n: int):
    """Run fn(k0, k1) over [0, n) in contiguous chunks of at most 32 slices.

    Chunking bounds the temporary point arrays one fill call builds, and so
    the peak memory of full-volume resampling.
    """
    for k0 in range(0, n, 32):
        fn(k0, min(k0 + 32, n))
