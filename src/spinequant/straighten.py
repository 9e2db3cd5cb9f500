"""Spine straightening: curve framing, curved-planar resampling, inversion.

The centerline polyline is smoothed and resampled by arc length, each sample
gets an orthonormal frame {t, u, v} (tangent, left-right, anterior-posterior)
transported with the double-reflection rotation-minimizing scheme, and the
volume is resampled so the curve becomes the straight vertical line of the
output grid.  The sampling map is kept so 2D points found on the straightened
mid-sagittal image can be mapped back to 3D world coordinates.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, make_smoothing_spline

from .core import (DEFAULT_FILL, GeometryError, Volume3D, _sample_voxel_coords,
                   check_number_fields, finite_numbers, require)
from .localization import CenterlinePolyline

_FRAME_TOL = 1e-9


def _set_checked_rows(obj, names: tuple[str, ...]) -> None:
    """Store ``obj.s`` and the named per-sample fields as read-only float arrays.

    ``s`` must be strictly increasing with at least two samples and each
    named array finite with shape (len(s), 3).  Checks are written so that
    NaN fails them.
    """
    s = np.asarray(obj.s, dtype=float)
    if s.ndim != 1 or len(s) < 2:
        raise GeometryError("curve needs at least two samples")
    if not np.all(np.diff(s) > 0):
        raise GeometryError("arc length must be strictly increasing")
    s.flags.writeable = False
    object.__setattr__(obj, "s", s)
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        if arr.shape != (len(s), 3):
            raise ValueError(f"{name} must have shape ({len(s)}, 3)")
        if not np.all(np.isfinite(arr)):
            raise GeometryError(f"{name} must be finite")
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _check_frames(obj, names: tuple[str, ...]) -> None:
    """Raise GeometryError unless the named axis rows are unit length and
    pairwise orthogonal, both within ``_FRAME_TOL`` (NaN fails)."""
    for name in names:
        if not np.max(np.abs(np.linalg.norm(getattr(obj, name), axis=1) - 1)) <= _FRAME_TOL:
            raise GeometryError(f"{name} axes are not unit length")
    for a, b in itertools.combinations(names, 2):
        dots = np.einsum("ij,ij->i", getattr(obj, a), getattr(obj, b))
        if not np.max(np.abs(dots)) <= _FRAME_TOL:
            raise GeometryError(f"{a} and {b} axes are not orthogonal")


@dataclass(frozen=True)
class SpineCurve:
    """Arc-length sampled centerline with per-sample orthonormal frames.

    ``s`` is strictly increasing arc length in mm; ``centers`` are curve
    points c(s); ``t``, ``u``, ``v`` are unit tangent, left-right and
    anterior-posterior axes with v = t x u (right-handed).
    """

    s: np.ndarray        # (n,)
    centers: np.ndarray  # (n, 3)
    t: np.ndarray        # (n, 3)
    u: np.ndarray        # (n, 3)
    v: np.ndarray        # (n, 3)

    def __post_init__(self):
        _set_checked_rows(self, ("centers", "t", "u", "v"))
        _check_frames(self, ("t", "u", "v"))
        handed = np.einsum("ij,ij->i", np.cross(self.t, self.u), self.v)
        if not np.min(handed) >= 1 - 1e-6:
            raise GeometryError("frames are not right-handed")
        # Chord length between consecutive samples can not exceed the arc step
        # (up to the discretization error of the arc-length table).
        chords = np.linalg.norm(np.diff(self.centers, axis=0), axis=1)
        if not np.all(chords <= np.diff(self.s) + 1e-3):
            raise GeometryError("sample chords exceed their arc-length step")

    def __len__(self) -> int:
        return len(self.s)

    @property
    def step(self) -> float:
        return float(self.s[1] - self.s[0])


def build_spine_curve(polyline: CenterlinePolyline, step: float = 1.0,
                      smoothing: float = 10.0, pad_mm: float = 0.0) -> SpineCurve:
    """Smooth, arc-length resample and frame a world-frame centerline.

    x(z) and y(z) are fit with a cubic smoothing spline (penalty ``smoothing``
    on curvature, so straight lines pass through unchanged; polylines with
    fewer than five points are interpolated without smoothing).  The curve is
    resampled at uniform arc-length ``step``, tangents come from central
    differences, and frames are propagated with the double-reflection
    rotation-minimizing method seeded with the patient left-right axis.
    ``pad_mm`` extends the curve straight beyond both ends.
    """
    if polyline.frame != "world":
        raise ValueError("centerline must be in world mm before framing")
    if len(polyline) < 4:
        raise GeometryError("need at least four centerline points")
    z = polyline.z
    span = float(z[-1] - z[0])
    if span <= 0 or step <= 0:
        raise GeometryError("degenerate centerline or step")
    if len(polyline) >= 5 and smoothing > 0:
        fx = make_smoothing_spline(z, polyline.xy[:, 0], lam=smoothing)
        fy = make_smoothing_spline(z, polyline.xy[:, 1], lam=smoothing)
    else:
        # Interpolation (not-a-knot ends): exact pass-through, no boundary bias.
        fx = CubicSpline(z, polyline.xy[:, 0])
        fy = CubicSpline(z, polyline.xy[:, 1])

    # Arc-length table on a dense chord approximation of the smoothed curve.
    n_dense = max(64, int(np.ceil(span / (step / 4))) + 1)
    z_dense = np.linspace(z[0], z[-1], n_dense)
    dense = np.column_stack([fx(z_dense), fy(z_dense), z_dense])
    seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    s_dense = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(s_dense[-1])
    if total <= 0:
        raise GeometryError("zero-length centerline")

    n_samples = int(np.floor(total / step + 1e-9)) + 1
    if n_samples < 2:
        raise GeometryError(f"centerline shorter than one step ({total:.3f} mm)")
    s = step * np.arange(n_samples)
    z_s = np.interp(s, s_dense, z_dense)
    centers = np.column_stack([fx(z_s), fy(z_s), z_s])

    # Central differences inside, second-order one-sided at the ends.
    t = np.empty_like(centers)
    t[1:-1] = centers[2:] - centers[:-2]
    if n_samples >= 3:
        t[0] = -3 * centers[0] + 4 * centers[1] - centers[2]
        t[-1] = 3 * centers[-1] - 4 * centers[-2] + centers[-3]
    else:
        t[0] = centers[1] - centers[0]
        t[-1] = centers[-1] - centers[-2]
    t /= np.linalg.norm(t, axis=1, keepdims=True)

    u, v = _double_reflection_frames(centers, t, seed=np.array([1.0, 0.0, 0.0]))

    if pad_mm > 0:
        n_pad = int(np.ceil(pad_mm / step - 1e-9))
        lo = centers[0] - np.outer(step * np.arange(n_pad, 0, -1), t[0])
        hi = centers[-1] + np.outer(step * np.arange(1, n_pad + 1), t[-1])
        centers = np.concatenate([lo, centers, hi])
        s = step * np.arange(-n_pad, n_samples + n_pad)
        t = np.concatenate([np.tile(t[0], (n_pad, 1)), t, np.tile(t[-1], (n_pad, 1))])
        u = np.concatenate([np.tile(u[0], (n_pad, 1)), u, np.tile(u[-1], (n_pad, 1))])
        v = np.concatenate([np.tile(v[0], (n_pad, 1)), v, np.tile(v[-1], (n_pad, 1))])

    return SpineCurve(s, centers, t, u, v)


def _double_reflection_frames(centers: np.ndarray, t: np.ndarray,
                              seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-minimizing frames along sampled points (double reflection).

    Each step reflects the previous frame across the chord bisector plane and
    across the new tangent's bisector, which transports the in-plane axis with
    no twist about the tangent.
    """
    n = len(centers)
    u = np.empty_like(t)
    u0 = seed - (seed @ t[0]) * t[0]
    norm = np.linalg.norm(u0)
    if norm < 1e-9:
        raise GeometryError("curve tangent is parallel to the left-right axis")
    u[0] = u0 / norm
    for k in range(n - 1):
        chord = centers[k + 1] - centers[k]
        c1 = chord @ chord
        if c1 <= 0:
            raise GeometryError("repeated curve samples")
        u_ref = u[k] - (2 / c1) * (chord @ u[k]) * chord
        t_ref = t[k] - (2 / c1) * (chord @ t[k]) * chord
        bisect = t[k + 1] - t_ref
        c2 = bisect @ bisect
        if c2 <= 1e-300:
            u_next = u_ref
        else:
            u_next = u_ref - (2 / c2) * (bisect @ u_ref) * bisect
        u_next -= (u_next @ t[k + 1]) * t[k + 1]
        u[k + 1] = u_next / np.linalg.norm(u_next)
    v = np.cross(t, u)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # Re-orthogonalize u so the frame closes to well below the tolerance.
    u = np.cross(v, t)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, v


@dataclass(frozen=True)
class StraightenTransform:
    """Sampling map of a straightened volume, kept for inversion.

    Row b of the straightened grid lies on the plane through ``centers[b]``
    spanned by u (left-right) and v (anterior-posterior); in-plane pixels are
    ``delta`` mm apart with (i_half, j_half) pixels on each side of the curve.
    Construction raises ValueError unless the rows are finite with strictly
    increasing ``s``, u and v are unit length and orthogonal, ``delta`` is
    a positive normal float and the halves are integers >= 0.
    """

    s: np.ndarray
    centers: np.ndarray
    u: np.ndarray
    v: np.ndarray
    delta: float
    i_half: int
    j_half: int

    def __post_init__(self):
        _set_checked_rows(self, ("centers", "u", "v"))
        _check_frames(self, ("u", "v"))
        check_number_fields(self)
        # A subnormal delta has an infinite reciprocal or too few digits to scale by.
        require(self, self.delta >= sys.float_info.min, "delta", "a positive normal float")
        if min(self.i_half, self.j_half) < 0:
            raise ValueError(f"i_half and j_half must be >= 0, got {self.i_half}, {self.j_half}")

    @property
    def n_rows(self) -> int:
        return len(self.s)

    @property
    def n_ap(self) -> int:
        return 2 * self.j_half + 1

    def pixel_to_world(self, xy) -> np.ndarray:
        """Map image pixels (x = anterior-posterior, y = arc row) to world mm.

        Fractional coordinates are allowed; rows are interpolated linearly.
        Points outside the image bounds raise GeometryError.
        """
        xy = np.asarray(xy, dtype=float)
        single = xy.ndim == 1
        xy = np.atleast_2d(xy)
        a, b = xy[:, 0], xy[:, 1]
        if np.any((a < -1e-9) | (a > self.n_ap - 1 + 1e-9) |
                  (b < -1e-9) | (b > self.n_rows - 1 + 1e-9)):
            raise GeometryError("pixel outside the straightened image")
        k = np.clip(np.floor(b).astype(int), 0, self.n_rows - 2)
        frac = (b - k)[:, None]
        c = (1 - frac) * self.centers[k] + frac * self.centers[k + 1]
        v = (1 - frac) * self.v[k] + frac * self.v[k + 1]
        world = c + ((a - self.j_half) * self.delta)[:, None] * v
        return world[0] if single else world

    def world_to_pixel(self, pts) -> np.ndarray:
        """Project world points onto the mid-sagittal image (inverse map).

        The left-right offset is dropped: the result is the (x, y) image
        position whose plane contains the point's projection.  A point whose
        pixel position overflows a float raises GeometryError.
        """
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        d = np.diff(self.centers, axis=0)               # (n-1, 3)
        dd = np.einsum("ij,ij->i", d, d)
        out = np.empty((len(pts), 2))
        for idx, p in enumerate(pts):
            rel = p - self.centers[:-1]
            tau = np.clip(np.einsum("ij,ij->i", rel, d) / dd, 0.0, 1.0)
            proj = self.centers[:-1] + tau[:, None] * d
            k = int(np.argmin(np.einsum("ij,ij->i", p - proj, p - proj)))
            tk = tau[k]
            # One refinement: remove the in-plane offset before re-projecting
            # onto the chord, since v is not exactly orthogonal to it.
            for _ in range(2):
                c = self.centers[k] + tk * d[k]
                vv = (1 - tk) * self.v[k] + tk * self.v[k + 1]
                off = ((p - c) @ vv) / (vv @ vv)
                tk = float(np.clip(((p - off * vv - self.centers[k]) @ d[k]) / dd[k], 0.0, 1.0))
            c = self.centers[k] + tk * d[k]
            vv = (1 - tk) * self.v[k] + tk * self.v[k + 1]
            off = ((p - c) @ vv) / (vv @ vv)
            out[idx] = (self.j_half + off / self.delta, k + tk)
        if not np.all(np.isfinite(out)):
            raise GeometryError(f"points lie too far off the curve for pixels of {self.delta} mm")
        return out[0] if single else out

    def to_dict(self) -> dict:
        """JSON-ready description: per-row s, c, u, v plus pixel geometry."""
        return {
            "delta": self.delta,
            "i_half": self.i_half,
            "j_half": self.j_half,
            "rows": [
                {
                    "s": float(self.s[k]),
                    "c": [float(x) for x in self.centers[k]],
                    "u": [float(x) for x in self.u[k]],
                    "v": [float(x) for x in self.v[k]],
                }
                for k in range(self.n_rows)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StraightenTransform":
        rows = doc["rows"]

        def column(key, shape):
            return np.array(finite_numbers([r[key] for r in rows], f"{key!r} of each row", shape))

        return cls(
            s=column("s", (None,)),
            centers=column("c", (None, 3)),
            u=column("u", (None, 3)),
            v=column("v", (None, 3)),
            delta=doc["delta"],
            i_half=doc["i_half"],
            j_half=doc["j_half"],
        )


@dataclass(frozen=True)
class StraightenedImage:
    """The mid-sagittal plane of a straightened volume plus its inverse map."""

    values: np.ndarray           # (n_ap, n_rows)
    transform: StraightenTransform

    @property
    def delta(self) -> float:
        return self.transform.delta


def straighten_volume(vol: Volume3D, curve: SpineCurve, delta: float = 1.0,
                      half_extent: tuple[float, float] = (60.0, 60.0),
                      fill: float = DEFAULT_FILL) -> tuple[Volume3D, StraightenTransform]:
    """Resample the volume so the curve becomes the straight vertical line.

    Output voxel (i, j, k) samples the input at
    ``c(s_k) + (i - i_half) * delta * u(s_k) + (j - j_half) * delta * v(s_k)``,
    so the curve itself maps to the centered column i = j = 0 (offset indices)
    and row spacing equals the curve's arc-length step.  A left-right
    half-extent of 0 samples only the mid-sagittal plane (i_half = 0).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    i_half = int(np.floor(half_extent[0] / delta + 1e-9))
    j_half = int(np.floor(half_extent[1] / delta + 1e-9))
    ni, nj, nk = 2 * i_half + 1, 2 * j_half + 1, len(curve)
    oi = delta * (np.arange(ni) - i_half)
    oj = delta * (np.arange(nj) - j_half)
    out = np.empty((ni, nj, nk), dtype=np.float32)
    spacing = np.asarray(vol.spacing)
    origin = np.asarray(vol.origin)

    # Chunks of at most 32 rows bound the temporary point arrays, and so
    # the peak memory of plane sampling.
    for k0 in range(0, nk, 32):
        k1 = min(k0 + 32, nk)
        pts = (curve.centers[None, None, k0:k1, :]
               + oi[:, None, None, None] * curve.u[None, None, k0:k1, :]
               + oj[None, :, None, None] * curve.v[None, None, k0:k1, :])
        idx = (pts.reshape(-1, 3) - origin) / spacing
        out[:, :, k0:k1] = _sample_voxel_coords(vol.values, idx, float(fill)).reshape(
            ni, nj, k1 - k0)
    transform = StraightenTransform(curve.s, curve.centers, curve.u, curve.v,
                                    float(delta), i_half, j_half)
    straight = Volume3D(out, (delta, delta, curve.step),
                        (-i_half * delta, -j_half * delta, float(curve.s[0])))
    return straight, transform


def mid_sagittal_slice(straight: Volume3D, transform: StraightenTransform) -> StraightenedImage:
    """Extract the zero left-right-offset plane of a straightened volume."""
    ni = straight.shape[0]
    if ni != 2 * transform.i_half + 1 or straight.shape[1] != transform.n_ap \
            or straight.shape[2] != transform.n_rows:
        raise GeometryError("straightened volume does not match the transform")
    return StraightenedImage(np.asarray(straight.values[transform.i_half]), transform)
