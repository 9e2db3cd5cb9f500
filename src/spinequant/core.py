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
import reprlib
from dataclasses import dataclass, fields

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
        check_number_fields(self)
        check_grid(values.shape, self.spacing, self.origin)
        if values is self.values and not _read_only(values):
            values = values.copy(order="K")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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


def finite_numbers(value, name: str, shape: tuple = (), integer: bool = False):
    """The one rule for numbers read from JSON: finite reals nested as ``shape`` says.

    ``shape`` () is one number, (3,) a list or tuple of three, (None, 3) any
    count of triples.  Each leaf must be a real number, finite as a float,
    and an integer if ``integer``; bools, strings and None are not numbers.
    Returns tuples of floats (or ints), else raises ValueError naming ``name``.
    Ranges are the caller's to check.
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


# finite_numbers arguments for each numeric annotation of a checked dataclass field.
_ANNOTATION_RULES = {
    "int": ((), True), "float": ((), False), "tuple[int, int, int]": ((3,), True),
    "tuple[float, float]": ((2,), False), "tuple[float, float, float]": ((3,), False),
    "tuple[float, ...]": ((None,), False),
    "tuple[tuple[float, float, float], ...] | None": ((None, 3), False),
}


def check_number_fields(obj) -> None:
    """Pass each numeric field of a frozen dataclass through ``finite_numbers``.

    The rule comes from the field's annotation, a string under ``from
    __future__ import annotations``; None stays where the annotation allows.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in _ANNOTATION_RULES and not (value is None and f.type.endswith("| None")):
            object.__setattr__(obj, f.name,
                               finite_numbers(value, f.name, *_ANNOTATION_RULES[f.type]))


def require(obj, ok: bool, name: str, rule: str) -> None:
    """Raise ValueError naming field ``name`` of ``obj`` and its value unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {getattr(obj, name)!r}")


def check_grid(shape, spacing, origin) -> None:
    """Raise ValueError unless ``spacing`` is positive and the far voxel
    ``origin + (shape - 1) * spacing`` of the grid is finite."""
    if min(spacing) <= 0:
        raise ValueError(f"spacing must be three positive numbers, got {spacing}")
    if not all(math.isfinite(o + (n - 1) * s) for o, n, s in zip(origin, shape, spacing)):
        raise ValueError(f"spacing {spacing} and origin {origin} put the far "
                         f"voxel of a {shape} grid at infinity")


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


IOU_BLOCK = 4096  # columns of b per block of iou_matrix, so its side arrays stay in cache


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between box arrays of shape (N, 4) and (M, 4).

    Boxes are rows (cx, cy, w, h); returns an (N, M) matrix.  The columns of
    ``b`` are taken in blocks of ``IOU_BLOCK``; within a block the x and y
    overlaps of every pair are formed together in one (2, N, block) side
    array and the ratios are written into the preallocated result, so the
    temporaries stay small and a short call costs a few numpy operations.  A
    pair that does not overlap gets exactly 0, and identical boxes, whose
    rounded corners can give a ratio just above 1, get exactly 1.
    """
    # (4, M) blocks of b are made contiguous, so the (2, N, block) broadcasts
    # run along contiguous memory (an (N, M, 2) layout is about twice as slow
    # at large M); a is only broadcast, so its (4, N) view is not copied.
    a = np.array(a, dtype=float, ndmin=2, copy=None).T
    b = np.array(b, dtype=float, ndmin=2, copy=None)
    a_half = a[2:] / 2
    a_lo, a_hi = (a[:2] - a_half)[:, :, None], (a[:2] + a_half)[:, :, None]
    a_area = (a[2] * a[3])[:, None]
    out = np.empty((a.shape[1], len(b)))
    for j0 in range(0, len(b), IOU_BLOCK):
        bb = np.ascontiguousarray(b[j0:j0 + IOU_BLOCK].T)
        b_half = bb[2:] / 2
        side = np.minimum(a_hi, (bb[:2] + b_half)[:, None])
        side -= np.maximum(a_lo, (bb[:2] - b_half)[:, None])
        np.maximum(side, 0.0, out=side)
        inter = np.multiply(side[0], side[1], out[:, j0:j0 + IOU_BLOCK])
        union = a_area + bb[2] * bb[3]
        union -= inter
        inter /= union
        np.minimum(inter, 1.0, out=inter)
    return out


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


def _axis_taps(c: np.ndarray, n: int):
    """Interpolation taps of continuous coordinates along one axis of n voxels.

    Returns the base index i0, the next index i1, the fraction f and the hull
    mask.  The base is clipped so that i0 + 1 stays addressable; the fraction
    is taken against the clipped base, which is exact on the far face.
    """
    inside = (c >= -_HULL_TOL) & (c <= n - 1 + _HULL_TOL)
    i0 = np.clip(np.floor(c).astype(np.intp), 0, max(n - 2, 0))
    f = np.clip(c - i0, 0.0, 1.0)
    return i0, np.minimum(i0 + 1, n - 1), f, inside


def _lerp(lo, hi, f):
    return lo * (1 - f) + hi * f


def _sample_voxel_coords(values: np.ndarray, idx: np.ndarray, fill: float) -> np.ndarray:
    """Trilinear interpolation at continuous voxel coordinates (N, 3)."""
    (x0, x1, fx, in_x), (y0, y1, fy, in_y), (z0, z1, fz, in_z) = (
        _axis_taps(idx[:, k], n) for k, n in enumerate(values.shape))
    c00 = _lerp(values[x0, y0, z0], values[x1, y0, z0], fx)
    c10 = _lerp(values[x0, y1, z0], values[x1, y1, z0], fx)
    c01 = _lerp(values[x0, y0, z1], values[x1, y0, z1], fx)
    c11 = _lerp(values[x0, y1, z1], values[x1, y1, z1], fx)
    out = _lerp(_lerp(c00, c10, fy), _lerp(c01, c11, fy), fz)
    return np.where(in_x & in_y & in_z, out, fill)


MAX_GRID_VOXELS = 2 ** 28  # largest grid resample_volume builds (1 GiB of float32)
_RESAMPLE_CHUNK = 2 ** 18  # input elements per slab of output planes


def check_size(dims, what: str) -> None:
    """Before a grid of shape ``dims`` (floats, maybe infinite, may bound sizes not
    yet known) is made: GeometryError naming ``what`` unless it fits MAX_GRID_VOXELS."""
    if not math.prod(dims) <= MAX_GRID_VOXELS:
        raise GeometryError(f"{what} would need a ({', '.join(f'{n:.6g}' for n in dims)}) "
                            f"grid, more than {MAX_GRID_VOXELS} elements")


def resample_volume(vol: Volume3D, new_spacing, fill: float = DEFAULT_FILL) -> Volume3D:
    """Trilinear resample onto a grid with the given spacing.

    The origin is preserved and the new grid covers at least the original
    world extent; samples that land beyond the voxel hull take ``fill``.  A
    grid of more than ``MAX_GRID_VOXELS`` voxels raises GeometryError before
    any array is made (``check_size``).

    Trilinear interpolation is separable: the corner planes each axis needs
    are selected in the input's memory order, slowest axis first (pure
    copies), and the axes are interpolated in the order x, y, z, each as soon
    as its planes are selected and the axes before it are done.  Every output
    value goes through the arithmetic of the 8-corner formula of
    ``trilinear_sample`` in the same order, so the result is bitwise equal to
    it.  The work runs in slabs of output planes
    along the slowest axis, which bounds the temporaries, and the result
    keeps the input's memory order.
    """
    new_spacing = tuple(float(s) for s in new_spacing)
    if any(s <= 0 for s in new_spacing):
        raise ValueError(f"new spacing must be positive, got {new_spacing}")
    steps = [float(np.ceil(round((n - 1) * s / s_new, 9)))
             for n, s, s_new in zip(vol.shape, vol.spacing, new_spacing)]
    check_size([k + 1 for k in steps],
               f"spacing {new_spacing} mm over the {vol.shape} volume at {vol.spacing} mm")
    new_shape = tuple(int(k) + 1 for k in steps)
    # The coordinates world_to_voxel gives the grid points, one axis at a time.
    taps = [_axis_taps((o + s_new * np.arange(n_new) - o) / s, n)
            for o, s, s_new, n, n_new in zip(vol.origin, vol.spacing, new_spacing,
                                              vol.shape, new_shape)]

    order = sorted(range(3), key=lambda ax: -abs(vol.values.strides[ax]))
    values = vol.values.transpose(order)  # slowest axis first
    taps = [taps[ax] for ax in order]
    lerp_axes = [order.index(ax) for ax in range(3)]
    out = np.empty([new_shape[ax] for ax in order], dtype=np.float32)
    slab = max(1, _RESAMPLE_CHUNK // (values.shape[1] * values.shape[2]))
    i0, i1, f, _ = taps[0]
    for k0 in range(0, out.shape[0], slab):
        k1 = k0 + slab
        out[k0:k1] = _interpolate_separable(
            values, [(i0[k0:k1], i1[k0:k1], f[k0:k1])] + [t[:3] for t in taps[1:]], lerp_axes)
    for axis, (_, _, _, inside) in enumerate(taps):
        out[(slice(None),) * axis + (~inside,)] = fill
    out = out.transpose(np.argsort(order))
    out.flags.writeable = False
    return Volume3D(out, new_spacing, vol.origin)


def _interpolate_separable(values: np.ndarray, taps, lerp_axes) -> np.ndarray:
    """Trilinear interpolation on the grid of per-axis taps (i0, i1, f).

    Axes are selected in array order; ``lerp_axes`` is the array axis of x, y
    and z, the order in which they are interpolated.  ``parts`` maps the
    corner bits of the selected, not yet interpolated axes to their arrays.
    """
    parts = {(): values}
    pending: list[int] = []
    lerp_axes = list(lerp_axes)
    for axis, (i0, i1, _) in enumerate(taps):
        parts = {key + (bit,): np.take(part, idx, axis=axis)
                 for key, part in parts.items() for bit, idx in enumerate((i0, i1))}
        pending.append(axis)
        while lerp_axes and lerp_axes[0] in pending:
            ax = lerp_axes.pop(0)
            j = pending.index(ax)
            pending.pop(j)
            f = taps[ax][2].reshape([-1 if a == ax else 1 for a in range(3)])
            parts = {key[:j] + key[j + 1:]: _lerp(part, parts[key[:j] + (1,) + key[j + 1:]], f)
                     for key, part in parts.items() if key[j] == 0}
    return parts[()]
