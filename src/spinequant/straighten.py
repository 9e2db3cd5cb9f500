"""Spine straightening: curve framing, curved-planar resampling, inversion.

The centerline polyline is smoothed and resampled by arc length, each sample
gets an orthonormal frame {t, u, v} (tangent, left-right, anterior-posterior)
by double-reflection rotation-minimizing transport, in closed form, and the
volume is sampled on the mid-sagittal plane of the straightened spine: the
curve becomes the plane's central column.  Every later stage reads this plane
alone, so no other left-right offset is sampled.  The sampling map is kept so
2D points found on the plane can be mapped back to 3D world coordinates.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_FILL, GeometryError, Volume3D, _sample_voxel_coords,
                   check_number_fields, check_size, finite_array, finite_numbers, owned_array,
                   require)
from .localization import CenterlinePolyline
from .splines import not_a_knot_spline, smoothing_spline

_FRAME_TOL = 1e-9


def _set_checked_rows(obj, names: tuple[str, ...]) -> None:
    """Store ``obj.s`` and the named per-sample fields as read-only float arrays.

    ``s`` must be finite and strictly increasing with at least two samples, and
    each named array finite of shape (len(s), 3): a GeometryError, as rows are computed.
    """
    try:
        s = finite_array(obj.s, "s", (None,))
        rows = [finite_array(getattr(obj, name), name, (len(s), 3)) for name in names]
    except ValueError as exc:
        raise GeometryError(str(exc)) from None
    if len(s) < 2:
        raise GeometryError("curve needs at least two samples")
    if not np.all(np.diff(s) > 0):
        raise GeometryError("arc length must be strictly increasing")
    for name, arr in zip(("s", *names), (s, *rows)):
        object.__setattr__(obj, name, owned_array(arr, float))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of (..., 3) arrays, elementwise so no result depends on the batch."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _check_frames(obj, names: tuple[str, ...]) -> None:
    """Raise GeometryError unless the named axis rows are unit length and
    pairwise orthogonal, both within ``_FRAME_TOL`` (NaN fails)."""
    for name in names:
        if not np.max(np.abs(np.linalg.norm(getattr(obj, name), axis=1) - 1)) <= _FRAME_TOL:
            raise GeometryError(f"{name} axes are not unit length")
    for a, b in itertools.combinations(names, 2):
        if not np.max(np.abs(_dot(getattr(obj, a), getattr(obj, b)))) <= _FRAME_TOL:
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
        if not np.min(_dot(np.cross(self.t, self.u), self.v)) >= 1 - 1e-6:
            raise GeometryError("frames are not right-handed")
        # Chord length between consecutive samples can not exceed the arc step
        # (up to the discretization error of the arc-length table).
        chords = np.linalg.norm(np.diff(self.centers, axis=0), axis=1)
        if not np.all(chords <= np.diff(self.s) + 1e-3):
            raise GeometryError("sample chords exceed their arc-length step")

    def __len__(self) -> int:
        return len(self.s)


def build_spine_curve(polyline: CenterlinePolyline, step: float = 1.0,
                      smoothing: float = 10.0, pad_mm: float = 0.0) -> SpineCurve:
    """Smooth, arc-length resample and frame a centerline.

    x(z) and y(z) are fit with the natural cubic smoothing spline in Reinsch
    form (``splines.smoothing_spline``: penalty ``smoothing`` on the
    integrated squared curvature, so straight lines pass through unchanged
    and a huge penalty gives the least-squares line).  Polylines with fewer
    than five points, or ``smoothing`` 0, are interpolated by the not-a-knot
    cubic spline (``splines.not_a_knot_spline``).  The curve is
    resampled at uniform arc-length ``step``, tangents come from central
    differences, and the rotation-minimizing frames start from the patient
    left-right axis (``_rotation_minimizing_frames``).
    ``pad_mm`` extends the curve straight beyond both ends.  ``step`` must be
    > 0, and ``smoothing`` and ``pad_mm`` >= 0, else ValueError.
    """
    step = finite_numbers(step, "step", domain="> 0")
    smoothing = finite_numbers(smoothing, "smoothing", domain=">= 0")
    pad_mm = finite_numbers(pad_mm, "pad_mm", domain=">= 0")
    if len(polyline) < 4:
        raise GeometryError("need at least four centerline points")
    z = polyline.z
    span = float(z[-1] - z[0])
    if span <= 0:
        raise GeometryError("degenerate centerline")
    if len(polyline) >= 5 and smoothing > 0:
        fit = smoothing_spline(z, polyline.xy, smoothing)
    else:
        # Interpolation (not-a-knot ends): exact pass-through, no boundary bias.
        fit = not_a_knot_spline(z, polyline.xy)

    # Arc-length table on a dense chord approximation of the smoothed curve,
    # uniform in z.  A curve that runs steeply sideways needs more points than
    # span / (step / 4) before no chord spans more than a quarter step of arc.
    def chords(n):
        z_dense = np.linspace(z[0], z[-1], n)
        dense = np.column_stack([fit(z_dense), z_dense])
        return z_dense, np.linalg.norm(np.diff(dense, axis=0), axis=1)

    what = f"step {step} mm: the arc-length table of {span:g} mm"
    check_size((span / (step / 4), 3), what)
    n_dense = max(64, int(np.ceil(span / (step / 4))) + 1)
    z_dense, seg = chords(n_dense)
    n_fine = np.ceil(n_dense * max(1.0, seg.max() / (step / 4)))
    if n_fine > n_dense:
        check_size((n_fine, 3), what)
        z_dense, seg = chords(int(n_fine))
    s_dense = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(s_dense[-1])
    if total <= 0:
        raise GeometryError("zero-length centerline")

    n_samples = int(np.floor(total / step + 1e-9)) + 1
    if n_samples < 2:
        raise GeometryError(f"centerline shorter than one step ({total:.3f} mm)")
    s = step * np.arange(n_samples)
    z_s = np.interp(s, s_dense, z_dense)
    centers = np.column_stack([fit(z_s), z_s])

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

    u, v = _rotation_minimizing_frames(centers, t)

    if pad_mm > 0:
        check_size((n_samples + 2 * pad_mm / step, 3),
                   f"pad_mm {pad_mm} at step {step} mm: the padded curve")
        n_pad = int(np.ceil(pad_mm / step - 1e-9))
        lo = centers[0] - np.outer(step * np.arange(n_pad, 0, -1), t[0])
        hi = centers[-1] + np.outer(step * np.arange(1, n_pad + 1), t[-1])
        centers = np.concatenate([lo, centers, hi])
        s = step * np.arange(-n_pad, n_samples + n_pad)
        t = np.concatenate([np.tile(t[0], (n_pad, 1)), t, np.tile(t[-1], (n_pad, 1))])
        u = np.concatenate([np.tile(u[0], (n_pad, 1)), u, np.tile(u[-1], (n_pad, 1))])
        v = np.concatenate([np.tile(v[0], (n_pad, 1)), v, np.tile(v[-1], (n_pad, 1))])

    return SpineCurve(s, centers, t, u, v)


def _rotation_minimizing_frames(centers: np.ndarray,
                                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-minimizing (u, v) axes along sampled points, in closed form.

    Double reflection (Wang et al., ACM TOG 2008) is parallel transport, so with
    r_k the left-right axis projected off t_k and w_k = t_k x r_k, u_k is
    cos(phi_k) r_k + sin(phi_k) w_k and phi is the cumulative sum of the angles
    of each step's reflected r_k in the next (r, w) basis; v = t x u.
    """
    r = np.array([1.0, 0.0, 0.0]) - t[:, :1] * t
    norm = np.linalg.norm(r, axis=1, keepdims=True)
    if not np.min(norm) >= 1e-9:
        raise GeometryError("curve tangent is parallel to the left-right axis")
    r /= norm
    w = np.cross(t, r)
    chord = np.diff(centers, axis=0)
    c1 = _dot(chord, chord)
    if not np.all(c1 > 0):
        raise GeometryError("repeated curve samples")
    r_ref = r[:-1] - ((2 / c1) * _dot(chord, r[:-1]))[:, None] * chord
    t_ref = t[:-1] - ((2 / c1) * _dot(chord, t[:-1]))[:, None] * chord
    bisect = t[1:] - t_ref
    c2 = _dot(bisect, bisect)
    # A tangent the first reflection already carried over needs no second one.
    c2 = np.where(c2 > 1e-300, c2, np.inf)
    r_ref -= ((2 / c2) * _dot(bisect, r_ref))[:, None] * bisect
    phi = np.concatenate([[0.0], np.cumsum(np.arctan2(_dot(r_ref, w[1:]),
                                                      _dot(r_ref, r[1:])))])
    cos, sin = np.cos(phi)[:, None], np.sin(phi)[:, None]
    return cos * r + sin * w, cos * w - sin * r


@dataclass(frozen=True)
class StraightenTransform:
    """Sampling map of the straightened plane, kept for inversion.

    Row b of the plane lies on the line through ``centers[b]`` along v
    (anterior-posterior), in the plane spanned by u (left-right) and v; its
    pixels are ``delta`` mm apart with ``j_half`` pixels on each side of the
    curve.  Construction raises ValueError unless the rows are finite with
    strictly increasing ``s``, u and v are unit length and orthogonal,
    ``delta`` is a positive normal float and ``j_half`` an integer >= 0.
    """

    s: np.ndarray
    centers: np.ndarray
    u: np.ndarray
    v: np.ndarray
    delta: float
    j_half: int

    def __post_init__(self):
        _set_checked_rows(self, ("centers", "u", "v"))
        _check_frames(self, ("u", "v"))
        check_number_fields(self, delta="> 0", j_half=">= 0")
        # A subnormal delta has an infinite reciprocal or too few digits to scale by.
        require(self, self.delta >= sys.float_info.min, "delta", "a normal float")

    @property
    def n_rows(self) -> int:
        return len(self.s)

    @property
    def n_ap(self) -> int:
        return 2 * self.j_half + 1

    def inside(self, xy) -> np.ndarray:
        """Whether each pixel (x, y), shape (..., 2), lies on the image, within 1e-9 px."""
        a, b = np.moveaxis(np.asarray(xy, dtype=float), -1, 0)
        return ((a >= -1e-9) & (a <= self.n_ap - 1 + 1e-9) &
                (b >= -1e-9) & (b <= self.n_rows - 1 + 1e-9))

    def pixel_to_world(self, xy) -> np.ndarray:
        """Map image pixels (x = anterior-posterior, y = arc row) to world mm.

        Fractional coordinates are allowed; rows are interpolated linearly.
        Points not ``inside`` the image raise GeometryError, non-finite ones ValueError.
        """
        xy = np.asarray(xy, dtype=float)
        pix = finite_array(xy.reshape(-1, 2), "xy", (None, 2))
        if not np.all(self.inside(pix)):
            raise GeometryError("pixel outside the straightened image")
        a, b = pix.T
        k = np.clip(np.floor(b).astype(int), 0, self.n_rows - 2)
        frac = (b - k)[:, None]
        c = (1 - frac) * self.centers[k] + frac * self.centers[k + 1]
        v = (1 - frac) * self.v[k] + frac * self.v[k + 1]
        world = c + ((a - self.j_half) * self.delta)[:, None] * v
        return world.reshape(xy.shape[:-1] + (3,))

    def world_to_pixel(self, pts) -> np.ndarray:
        """Project world points, shape (3,) or (P, 3), onto the image: the inverse map.

        Row b = k + f is where p lies in the row's plane, (p - c(b)) . (u(b) x v(b)) = 0,
        c, u, v interpolated as ``pixel_to_world`` does.  Sign changes over the rows and
        the end rows p lies past are candidates; the one nearest the curve wins, and on
        its segment Newton steps solve the condition, a cubic in f.  x is p's v coordinate
        in the row's (u, v) basis, so the left-right offset is dropped.  Exact where the
        image is one-to-one, i.e. within the curve's radius of curvature.  A non-finite
        point raises ValueError, and a pixel that overflows GeometryError.
        """
        pts = np.asarray(pts, dtype=float)
        p = finite_array(pts.reshape(-1, 3), "pts", (None, 3))
        c, u, v = self.centers, self.u, self.v
        d, du, dv = np.diff(c, axis=0), np.diff(u, axis=0), np.diff(v, axis=0)
        normal = np.cross(u, v)
        # Every point is ahead of a plane before row 0 and behind one after the last.
        ends = (np.sign(_dot(d[0], normal[0])), -np.sign(_dot(d[-1], normal[-1])))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel = p[:, None] - c
            side = np.pad(np.sign(_dot(rel, normal)), ((0, 0), (1, 1)), constant_values=ends)
            dist = np.pad(_dot(rel, rel), ((0, 0), (1, 1)), mode="edge")
            bracket = side[:, :-1] * side[:, 1:] <= 0
            # Row j - 1 to row j; j = 0 and j = n_rows are the end rows themselves.
            j = np.where(bracket, np.minimum(dist[:, :-1], dist[:, 1:]), np.inf).argmin(axis=1)
            k = np.clip(j - 1, 0, self.n_rows - 2)
            # (p - c(k + f)) . (u x v)(k + f) = a0 + a1 f + a2 f^2 + a3 f^3.
            n1 = np.cross(u[k], dv[k]) + np.cross(du[k], v[k])
            n2 = np.cross(du[k], dv[k])
            r = p - c[k]
            a0, a1 = _dot(r, normal[k]), _dot(r, n1) - _dot(d[k], normal[k])
            a2, a3 = _dot(r, n2) - _dot(d[k], n1), -_dot(d[k], n2)
            # Newton steps from the secant root, kept on the segment.
            f = np.nan_to_num(np.clip(-a0 / (a1 + a2 + a3), 0.0, 1.0), nan=0.5)
            for _ in range(4):
                g = ((a3 * f + a2) * f + a1) * f + a0
                f = np.clip(f - g / ((3 * a3 * f + 2 * a2) * f + a1), 0.0, 1.0)
            f = np.where(j == 0, 0.0, np.where(j == self.n_rows, 1.0, f))
            cb, ub, vb = ((1 - f[:, None]) * a[k] + f[:, None] * a[k + 1] for a in (c, u, v))
            r = p - cb
            uu, uv, vv = _dot(ub, ub), _dot(ub, vb), _dot(vb, vb)
            off = (uu * _dot(r, vb) - uv * _dot(r, ub)) / (uu * vv - uv * uv)
            out = np.column_stack([self.j_half + off / self.delta, k + f])
        if not np.all(np.isfinite(out)):
            raise GeometryError(f"points lie too far off the curve for pixels of {self.delta} mm")
        return out.reshape(pts.shape[:-1] + (2,))

    def to_dict(self) -> dict:
        """JSON-ready description: per-row s, c, u, v plus pixel geometry."""
        return {
            "delta": self.delta,
            "j_half": self.j_half,
            "rows": [{"s": s, "c": c, "u": u, "v": v} for s, c, u, v in zip(
                self.s.tolist(), self.centers.tolist(), self.u.tolist(), self.v.tolist())],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StraightenTransform":
        """Inverse of ``to_dict``.  Other keys, such as the left-right half-width
        (always 0) that older files held, are ignored."""
        rows = doc["rows"]

        def column(key, shape):
            return np.array(finite_numbers([r[key] for r in rows], f"{key!r} of each row", shape))

        return cls(column("s", (None,)), *(column(key, (None, 3)) for key in "cuv"),
                   doc["delta"], doc["j_half"])


@dataclass(frozen=True)
class StraightenedImage:
    """The straightened mid-sagittal plane plus its inverse map.

    ``values`` are taken through ``owned_array`` as float32 and must have the
    transform's shape (n_ap, n_rows): a GeometryError otherwise.
    """

    values: np.ndarray           # (n_ap, n_rows)
    transform: StraightenTransform

    def __post_init__(self):
        values = owned_array(self.values, np.float32)
        want = (self.transform.n_ap, self.transform.n_rows)
        if values.shape != want:
            raise GeometryError(f"values {values.shape} does not match the transform {want}")
        object.__setattr__(self, "values", values)

    @property
    def delta(self) -> float:
        return self.transform.delta


def straighten_plane(vol: Volume3D, curve: SpineCurve, delta: float = 1.0,
                     half_extent: float = 60.0,
                     fill: float = DEFAULT_FILL) -> StraightenedImage:
    """Sample the volume on the mid-sagittal plane of the straightened spine.

    Pixel (j, k) samples the input at ``c(s_k) + (j - j_half) * delta * v(s_k)``
    with ``j_half = floor(half_extent / delta)``, so the curve itself maps to
    the central column j = j_half and row spacing equals the curve's
    arc-length step.  Points outside the volume take ``fill``.  ``delta`` must
    be > 0, ``half_extent`` >= 0 and ``fill`` inside the float32 range, else ValueError.
    """
    delta = finite_numbers(delta, "delta", domain="> 0")
    half_extent = finite_numbers(half_extent, "half_extent", domain=">= 0")
    fill = finite_numbers(fill, "fill")
    if abs(fill) > float(np.finfo(np.float32).max):  # the range the plane is stored in
        raise ValueError(f"fill must be in [-3.4e38, 3.4e38], got {fill!r}")
    j_half = np.floor(half_extent / delta + 1e-9)
    check_size((2 * j_half + 1, len(curve)),
               f"delta {delta} and half_extent {half_extent}: the straightened plane")
    transform = StraightenTransform(curve.s, curve.centers, curve.u, curve.v, delta, int(j_half))
    nj, nk = transform.n_ap, transform.n_rows
    oj = delta * (np.arange(nj) - transform.j_half)
    out = np.empty((nj, nk), dtype=np.float32)
    spacing = np.asarray(vol.spacing)
    origin = np.asarray(vol.origin)
    values = vol.values if vol.values.flags.forc else np.ascontiguousarray(vol.values)

    # Chunks of at most 32 rows bound the temporary point arrays, and so the peak
    # memory of plane sampling; a raster neither C- nor F-ordered was copied once above.
    for k0 in range(0, nk, 32):
        k1 = min(k0 + 32, nk)
        pts = curve.centers[None, k0:k1, :] + oj[:, None, None] * curve.v[None, k0:k1, :]
        idx = (pts.reshape(-1, 3) - origin) / spacing
        out[:, k0:k1] = _sample_voxel_coords(values, idx, fill).reshape(nj, k1 - k0)
    out.flags.writeable = False  # so StraightenedImage adopts the plane rather than copying it
    return StraightenedImage(out, transform)
