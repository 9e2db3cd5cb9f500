"""Shared geometry primitives: volume raster, box IoU, trilinear interpolation.

Coordinate conventions used throughout the package:

* world coordinates are millimetres; voxel indices address voxel centers,
  so ``world = origin + index * spacing``.
* x is the patient left-right axis, y is anterior-posterior and z is the
  cranio-caudal (axial stack) axis.
* intensities are stored as 32-bit floats regardless of the source width.
"""
from __future__ import annotations

import itertools
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
    (a VG1 file reads as an x-fastest, Fortran-ordered array); ``owned_array``
    decides whether it is adopted or copied, so the read-only broadcast zero of
    a geometry-only grid (``pipeline.working_grid``) stays one element.
    """

    values: np.ndarray
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        values = owned_array(self.values, np.float32)
        if values.ndim != 3:
            raise ValueError(f"expected a 3D array, got shape {values.shape}")
        check_number_fields(self)
        check_grid(values.shape, self.spacing, self.origin)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def voxel_to_world(self, idx) -> np.ndarray:
        """Map (continuous) voxel indices, shape (..., 3), to world mm."""
        idx = finite_array(idx, "idx", np.shape(idx)[:-1] + (3,))
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def world_to_voxel(self, pts) -> np.ndarray:
        """Map world-mm points, shape (..., 3), to continuous voxel indices."""
        pts = finite_array(pts, "pts", np.shape(pts)[:-1] + (3,))
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
    Ranges are the caller's to check.  ``finite_array`` is its twin for array
    arguments, with the same shape notation and message.

    The value is checked one nesting level at a time, not one element at a
    time: each level is one flat list whose element types and lengths are
    tested with ``map``, and the next level chains their items.  The leaves
    then take one pass each to be typed, tested with ``math.isfinite`` and
    converted, and ``zip`` regroups them into the nested tuples, so no
    Python frame is made per number.  The type test looks at each distinct
    leaf type once, and JSON's exact ``float`` and ``int`` pass by identity
    before any other type pays for the ``numbers`` ABC check: one ABC
    ``isinstance`` per leaf would triple the cost of reading a transform of
    some 300 rows.  ``type(True)`` is ``bool``, not ``int``, so a bool
    misses the identity test and the ABC branch refuses it.
    """
    if type(value) is float and not (shape or integer) and math.isfinite(value):
        return value  # one finite float, the common argument, at once
    number = numbers.Integral if integer else numbers.Real
    exact = (int,) if integer else (float, int)
    try:
        level, counts = [value], []
        for n in shape:
            if not all(issubclass(t, (list, tuple, np.ndarray)) for t in set(map(type, level))):
                raise ValueError
            lengths = list(map(len, level))
            if n is not None and lengths.count(n) != len(lengths):
                raise ValueError
            counts.append((n, lengths))
            level = list(itertools.chain.from_iterable(level))
        for t in set(map(type, level)):
            if t not in exact and (issubclass(t, bool) or not issubclass(t, number)):
                raise ValueError
        if not all(map(math.isfinite, level)):
            raise ValueError
        level = list(map(int if integer else float, level))
    except (ValueError, TypeError, OverflowError):
        raise _refusal(value, name, shape, integer) from None
    for n, lengths in reversed(counts):
        items = iter(level)
        level = (list(zip(*[items] * n)) if n else
                 list(map(tuple, map(itertools.islice, itertools.repeat(items), lengths))))
    return level[0]


def finite_array(value, name: str, shape: tuple = (), dtype=float, order=None) -> np.ndarray:
    """The array twin of ``finite_numbers``, with its shape notation and message:
    ``np.asarray(value, dtype, order)`` for ``dtype`` float, an integer or bool.
    Every element must be finite as a float, tested before any cast, and equal to
    its cast for an integer ``dtype``, else ValueError naming ``name``.  Ranges are the caller's."""
    integer = False  # the refusal speaks of integers once only the cast fails
    try:
        arr = np.asarray(value, dtype=float, order=order)
        if (arr.ndim == len(shape) and all(n is None or n == m for n, m in zip(shape, arr.shape))
                and np.isfinite(arr).all()):
            cast = arr if dtype is float else np.asarray(value, dtype=dtype, order=order)
            integer = cast is not value and np.issubdtype(dtype, np.integer)
            if not integer or np.array_equal(cast, arr):
                return cast
    except (ValueError, TypeError, OverflowError):
        pass
    raise _refusal(value, name, shape, integer)


def _refusal(value, name: str, shape: tuple, integer: bool) -> ValueError:
    kind = "finite integer" if integer else "finite number"
    what = f"{kind}s of shape {shape}".replace("None", "n") if shape else f"a {kind}"
    return ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")


def check_unit_interval(name: str, value: float, closed: bool) -> None:
    """The range rule of thresholds: ValueError naming ``name`` unless ``value``
    is in [0, 1] (``closed``) or in (0, 1]; NaN is in neither."""
    if not (0 <= value <= 1 if closed else 0 < value <= 1):
        raise ValueError(f"{name} must be in {'[' if closed else '('}0, 1], got {value}")


# finite_numbers arguments for each numeric annotation of a checked dataclass field.
_ANNOTATION_RULES = {
    "int": ((), True), "float": ((), False), "tuple[int, int, int]": ((3,), True),
    "tuple[int, int]": ((2,), True), "tuple[float, float]": ((2,), False),
    "tuple[float, float, float]": ((3,), False),
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


def owned_array(values, dtype) -> np.ndarray:
    """The one rule by which a frozen record takes an array it is handed.

    An array of ``dtype`` that is read-only down to the buffer that owns its
    memory is adopted as it is; any other input is copied, an array in its own
    memory order, and the copy is frozen.  So no later write by the caller
    reaches the record, and the caller's array stays writeable.
    """
    arr = np.asarray(values, dtype=dtype)
    if _read_only(arr):
        return arr
    if arr is values or not arr.flags.owndata:
        arr = arr.copy(order="K")
    arr.flags.writeable = False
    return arr


def _read_only(values: np.ndarray) -> bool:
    """Whether no array in the view chain, nor the buffer owning the memory, is writeable."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    try:
        return values is None or memoryview(values).readonly
    except TypeError:
        return False


IOU_BLOCK = 4096  # columns of b per block of iou_matrix, so its side arrays stay in cache
# Largest box area iou_matrix takes: the sum of two such areas, its union, stays finite.
MAX_AREA = float(np.finfo(float).max) / 2


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between box arrays of shape (..., N, 4) and (..., M, 4).

    Boxes are rows (cx, cy, w, h); returns an (..., N, M) array.  The leading
    axes, if any, are a batch shared by both sides: (N, 4) and (M, 4) give
    one (N, M) matrix, and (S, K, 4) and (S, G, 4) give S blocks of (K, G),
    the IoUs within each of S box sets.

    The columns of ``b`` are taken in blocks of ``IOU_BLOCK``; within a
    block the x and y overlaps of every pair are formed together in one
    (2, ..., N, block) side array and the ratios are written into the
    preallocated result, so the temporaries stay small and a short call
    costs a few numpy operations.  A pair that does not overlap gets exactly
    0, and identical boxes, whose rounded corners can give a ratio just
    above 1, get exactly 1.
    """
    # (4, ..., M) blocks of b are made contiguous, so the (2, ..., N, block)
    # broadcasts run along contiguous memory (an (N, M, 2) layout is about
    # twice as slow at large M); a is only broadcast, so its (4, ..., N) view
    # is not copied.
    a = np.array(a, dtype=float, ndmin=2, copy=None)
    b = np.array(b, dtype=float, ndmin=2, copy=None)
    out = np.empty(a.shape[:-1] + b.shape[-2:-1])
    a = a.transpose(-1, *range(a.ndim - 1))
    a_half = a[2:] / 2
    a_lo, a_hi = (a[:2] - a_half)[..., None], (a[:2] + a_half)[..., None]
    a_area = (a[2] * a[3])[..., None]
    for j0 in range(0, out.shape[-1], IOU_BLOCK):
        bb = b[..., j0:j0 + IOU_BLOCK, :]
        bb = np.ascontiguousarray(bb.transpose(-1, *range(bb.ndim - 1)))
        b_half = bb[2:] / 2
        side = np.minimum(a_hi, (bb[:2] + b_half)[..., None, :])
        side -= np.maximum(a_lo, (bb[:2] - b_half)[..., None, :])
        np.maximum(side, 0.0, out=side)
        inter = np.multiply(side[0], side[1], out[..., j0:j0 + IOU_BLOCK])
        iou_ratio(inter, a_area + (bb[2] * bb[3])[..., None, :])
    return out


def iou_ratio(inter: np.ndarray, areas) -> np.ndarray:
    """The one IoU ratio, in place: intersections ``inter`` over the sums of both
    box areas ``areas`` (broadcast) less ``inter``, capped at 1."""
    inter /= areas - inter
    return np.minimum(inter, 1.0, out=inter)


def _corners(kps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, 2) lower and upper corners of (K, N, 2) point sets, N >= 1.

    Elementwise over the N (K, 2) slices: the same values as ``kps.min(axis=1)``
    and ``kps.max(axis=1)``, whose reductions over the short middle axis take
    about 3.5x as long.
    """
    lo, hi = kps[:, 0].copy(), kps[:, 0].copy()
    for j in range(1, kps.shape[1]):
        np.minimum(lo, kps[:, j], out=lo)
        np.maximum(hi, kps[:, j], out=hi)
    return lo, hi


def boxes_from_keypoints(kps: np.ndarray) -> np.ndarray:
    """Tight axis-aligned boxes of K point sets, (K, N, 2) -> (K, 4) rows (cx, cy, w, h).

    Raises ValueError unless every point is finite, and GeometryError when
    any set is empty or collinear along an axis, which signals a corrupt annotation,
    or when a box's center, sides or area leave the float range (``MAX_AREA``).
    """
    kps = finite_array(kps, "keypoints", (None, None, 2))
    lo, hi = _corners(kps) if kps.shape[1] else (0.0, 0.0)  # an empty set has no extent
    if np.any(hi <= lo):
        raise GeometryError("keypoints have zero extent along an axis")
    with np.errstate(over="ignore"):  # refused right below
        boxes = np.concatenate([(lo + hi) / 2, hi - lo], axis=1)
        area = boxes[:, 2] * boxes[:, 3]
    if not (np.all(np.isfinite(boxes)) and np.all(area <= MAX_AREA)):
        raise GeometryError("keypoints lie too far apart: their box leaves the float range")
    return boxes


_HULL_TOL = 1e-6  # voxel units; absorbs float noise at the exact hull boundary


def _axis_taps(c: np.ndarray, n: int):
    """Interpolation taps of continuous coordinates along one axis of n voxels.

    Returns the base index i0, the fraction f and the hull mask.  The base is
    clipped so that i0 + 1 stays addressable; the fraction is taken against the
    clipped base, which is exact on the far face.
    """
    inside = (c >= -_HULL_TOL) & (c <= n - 1 + _HULL_TOL)
    i0 = np.clip(np.floor(c).astype(np.intp), 0, max(n - 2, 0))
    return i0, np.clip(c - i0, 0.0, 1.0), inside


def _lerp(lo, hi, f):
    return lo * (1 - f) + hi * f


def _sample_voxel_coords(values: np.ndarray, idx: np.ndarray, fill: float) -> np.ndarray:
    """Trilinear interpolation at continuous voxel coordinates (N, 3).  Each corner is one
    ``take`` from a flat view of the raster at the base offset plus the corner's element
    strides (none on an axis of one voxel, whose stride may be anything); a raster
    neither C- nor F-contiguous has no such view and is copied once."""
    if not values.flags.forc:
        values = np.ascontiguousarray(values)
    flat = values.ravel(order="K")
    (x0, fx, in_x), (y0, fy, in_y), (z0, fz, in_z) = (
        _axis_taps(idx[:, k], n) for k, n in enumerate(values.shape))
    sx, sy, sz = (s // values.itemsize * (n > 1) for s, n in zip(values.strides, values.shape))
    base = x0 * sx + y0 * sy + z0 * sz
    c0, c1 = ([_lerp(flat.take(base + o), flat.take(base + o + sx), fx) for o in (dz, dz + sy)]
              for dz in (0, sz))
    out = _lerp(_lerp(*c0, fy), _lerp(*c1, fy), fz)
    return np.where(in_x & in_y & in_z, out, fill)


# Largest array an input or a configuration sizes (1 GiB of float32): a phantom,
# the working grid the heatmaps live on, the straightened plane, the anchor offsets.
MAX_GRID_VOXELS = 2 ** 28


def check_size(dims, what: str) -> None:
    """Before a grid of shape ``dims`` (floats, maybe infinite, may bound sizes not
    yet known) is made: GeometryError naming ``what`` unless it fits MAX_GRID_VOXELS."""
    if not math.prod(dims) <= MAX_GRID_VOXELS:
        raise GeometryError(f"{what} would need a ({', '.join(f'{n:.6g}' for n in dims)}) "
                            f"grid, more than {MAX_GRID_VOXELS} elements")
