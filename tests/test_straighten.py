import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinequant import core, straighten
from spinequant.core import GeometryError, Volume3D
from spinequant.localization import CenterlinePolyline
from spinequant.splines import _solve_banded, not_a_knot_spline, smoothing_spline
from spinequant.straighten import (_FRAME_TOL, SpineCurve, StraightenedImage,
                                   StraightenTransform, _rotation_minimizing_frames,
                                   build_spine_curve, straighten_plane)

from conftest import traced_peak
from oracles import solve_banded_reference, trilinear_sample
from test_localization import assert_fit_matches, spline_data, spline_examples


def line_polyline(z0=0.0, z1=50.0, n=51, dx=0.0, dy=0.0, x0=10.0, y0=20.0):
    z = np.linspace(z0, z1, n)
    xy = np.column_stack([x0 + dx * (z - z0), y0 + dy * (z - z0)])
    return CenterlinePolyline(xy, z)


def assert_frames_orthonormal(curve, tol=1e-9):
    for name in ("t", "u", "v"):
        np.testing.assert_allclose(np.linalg.norm(getattr(curve, name), axis=1),
                                   1.0, atol=tol)
    assert np.max(np.abs(np.einsum("ij,ij->i", curve.t, curve.u))) < tol
    assert np.max(np.abs(np.einsum("ij,ij->i", curve.t, curve.v))) < tol
    assert np.max(np.abs(np.einsum("ij,ij->i", curve.u, curve.v))) < tol
    handed = np.einsum("ij,ij->i", np.cross(curve.t, curve.u), curve.v)
    np.testing.assert_allclose(handed, 1.0, atol=1e-9)


def test_vertical_line_frames():
    curve = build_spine_curve(line_polyline(), step=1.0)
    np.testing.assert_allclose(curve.t, np.tile([0, 0, 1.0], (len(curve), 1)), atol=1e-12)
    np.testing.assert_allclose(curve.u, np.tile([1.0, 0, 0], (len(curve), 1)), atol=1e-12)
    np.testing.assert_allclose(curve.v, np.tile([0, 1.0, 0], (len(curve), 1)), atol=1e-12)
    assert curve.s[-1] == pytest.approx(50.0, abs=1e-6)


def test_oblique_line_constant_frames_and_arc_length():
    dx, dy = 0.3, -0.2
    curve = build_spine_curve(line_polyline(dx=dx, dy=dy), step=1.0)
    direction = np.array([dx, dy, 1.0])
    direction /= np.linalg.norm(direction)
    # analytic frame: u is the left-right axis projected off the tangent
    u0 = np.array([1.0, 0, 0]) - direction[0] * direction
    u0 /= np.linalg.norm(u0)
    v0 = np.cross(direction, u0)
    np.testing.assert_allclose(curve.t, np.tile(direction, (len(curve), 1)), atol=1e-9)
    np.testing.assert_allclose(curve.u, np.tile(u0, (len(curve), 1)), atol=1e-9)
    np.testing.assert_allclose(curve.v, np.tile(v0, (len(curve), 1)), atol=1e-9)
    # sample grid stops at the last full step inside the Euclidean length
    euclid = 50.0 * np.linalg.norm([dx, dy, 1.0])
    assert curve.s[-1] <= euclid * (1 + 1e-9)
    assert euclid - curve.s[-1] < 1.0 + 1e-6
    assert_frames_orthonormal(curve)


def circle_polyline(radius=100.0, z0=10.0, z1=90.0, n=81):
    # planar arc in the x-z plane: x(z) = sqrt(R^2 - (z - zm)^2) offsets
    z = np.linspace(z0, z1, n)
    zm = (z0 + z1) / 2
    x = radius - np.sqrt(radius ** 2 - (z - zm) ** 2)
    return CenterlinePolyline(np.column_stack([x, np.full_like(z, 5.0)]), z), zm


def test_circular_arc_tangents_match_closed_form():
    radius = 100.0
    polyline, zm = circle_polyline(radius)
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    dz = curve.centers[:, 2] - zm
    dxdz = dz / np.sqrt(radius ** 2 - dz ** 2)
    want = np.column_stack([dxdz, np.zeros_like(dxdz), np.ones_like(dxdz)])
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.max(np.linalg.norm(curve.t - want, axis=1)) < 1e-3
    assert_frames_orthonormal(curve)


def test_planar_curve_frames_are_torsion_free():
    # x-z planar curve: the plane normal is y and v must stay glued to it.
    polyline, _ = circle_polyline()
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    drift = np.linalg.norm(curve.v - [0.0, 1.0, 0.0], axis=1)
    assert np.max(np.diff(drift)) < 1e-6
    assert np.max(drift) < 1e-6 * len(curve)
    # y-z planar curve: the normal is x, carried by u.
    z = np.linspace(0, 80, 81)
    wiggle = CenterlinePolyline(
        np.column_stack([np.full_like(z, 3.0), 10 * np.sin(z / 15)]), z)
    curve2 = build_spine_curve(wiggle, step=1.0, smoothing=0.0)
    assert np.max(np.linalg.norm(curve2.u - [1.0, 0.0, 0.0], axis=1)) < 1e-6 * len(curve2)


def test_build_spine_curve_validation():
    with pytest.raises(GeometryError):
        build_spine_curve(line_polyline(n=3))
    squished = CenterlinePolyline(np.zeros((5, 2)), np.linspace(0, 1e-12, 5))
    with pytest.raises(GeometryError):
        build_spine_curve(squished, step=1.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spline_data(min_n=4))
@spline_examples(4, 5, 6)
def test_not_a_knot_spline_matches_scipy_property(data):
    from scipy.interpolate import CubicSpline
    x, y = data
    assert_fit_matches(not_a_knot_spline(x, y), CubicSpline(x, y), x, y, 1e-12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spline_data(min_n=5), st.floats(-2, 3))
@example((np.cumsum(np.linspace(0.3, 4.0, 5) ** 1.5),
          np.array([3.0, -1.0, 4.0, 1.0, -5.0])), 1.0)
@example((np.cumsum(np.linspace(0.3, 4.0, 9) ** 1.5), np.sin(np.arange(9.0))), -320.0)
def test_smoothing_spline_matches_scipy_property(data, log_lam):
    from scipy.interpolate import make_smoothing_spline
    x, y = data
    lam = 10.0 ** log_lam
    assert_fit_matches(smoothing_spline(x, y, lam), make_smoothing_spline(x, y, lam=lam),
                       x, y, 1e-9)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(w=st.integers(1, 2), n=st.integers(1, 300), columns=st.sampled_from([None, 1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_banded_equals_the_numpy_sweep(w, n, columns, seed):
    # Diagonally dominant band matrices, zero outside the matrix, as both splines build.
    rng = np.random.default_rng(seed)
    band = rng.normal(0.0, 1.0, (n, 2 * w + 1))
    band[:, w] = np.abs(band[:, w]) + 2 * w + rng.uniform(0.0, 5.0, n)
    rows, cols = np.indices(band.shape)
    band[(rows + cols - w < 0) | (rows + cols - w >= n)] = 0.0
    rhs = rng.normal(0.0, 10.0, (n,) if columns is None else (n, columns))
    got = _solve_banded(band, rhs)
    assert got.shape == rhs.shape and np.array_equal(got, solve_banded_reference(band, rhs))


@pytest.mark.parametrize("lam", [1e20, 1.7e308])
def test_huge_smoothing_gives_the_least_squares_line(lam):
    z = np.linspace(0.0, 100.0, 101)
    xy = np.column_stack([10 * np.sin(z / 15), 5 + 3 * np.cos(z / 9)])
    curve = build_spine_curve(CenterlinePolyline(xy, z), step=1.0, smoothing=lam)
    line = np.polynomial.polynomial.polyfit(z, xy, 1)
    expected = line[0] + np.outer(curve.centers[:, 2], line[1])
    assert np.max(np.abs(curve.centers[:, :2] - expected)) <= 1e-6


@pytest.mark.parametrize("field", ["centers", "t", "u", "v"])
def test_spine_curve_rejects_nan_row(field):
    curve = build_spine_curve(line_polyline(dx=0.2), step=1.0)
    arrays = {name: getattr(curve, name).copy() for name in ("s", "centers", "t", "u", "v")}
    arrays[field][7] = np.nan
    with pytest.raises(GeometryError):
        SpineCurve(**arrays)


def test_curve_padding_extends_linearly():
    curve = build_spine_curve(line_polyline(dx=0.5), step=1.0, pad_mm=5.0)
    assert curve.s[0] == pytest.approx(-5.0)
    seg = np.diff(curve.centers, axis=0)
    np.testing.assert_allclose(np.linalg.norm(seg, axis=1), 1.0, atol=1e-9)
    assert_frames_orthonormal(curve)


def _random_volume(shape=(24, 22, 40), spacing=(1.0, 1.0, 1.0), seed=0):
    rng = np.random.default_rng(seed)
    return Volume3D(rng.uniform(-500, 500, shape).astype(np.float32), spacing)


def test_identity_straightening_reproduces_window():
    # The plane of a straight centered curve is the original sagittal plane through it.
    vol = _random_volume()
    cx, cy = 12.0, 11.0
    polyline = CenterlinePolyline(np.tile([cx, cy], (40, 1)), np.arange(40.0))
    curve = build_spine_curve(polyline, step=1.0)
    image = straighten_plane(vol, curve, delta=1.0, half_extent=5.0)
    assert image.values.shape == (11, 40)
    np.testing.assert_allclose(image.values, vol.values[12, 6:17, :], atol=1e-5)


def test_straightened_plane_is_adopted_not_copied(monkeypatch):
    # StraightenedImage takes its values through core.owned_array; a copy would hold
    # the plane twice.
    polyline = CenterlinePolyline(np.tile([12.0, 11.0], (40, 1)), np.arange(40.0))
    vol, curve = _random_volume(), build_spine_curve(polyline, step=1.0)
    handed, owned_array = [], core.owned_array
    monkeypatch.setattr(straighten, "owned_array",
                        lambda values, dtype: handed.append(values) or owned_array(values, dtype))
    image = straighten_plane(vol, curve, delta=1.0, half_extent=5.0)
    assert image.values is handed[-1]
    assert not image.values.flags.writeable


def test_straightened_image_refuses_values_of_another_shape():
    curve = build_spine_curve(line_polyline(), step=1.0)
    image = straighten_plane(_random_volume(), curve, delta=1.0, half_extent=3.0)
    n_ap, n_rows = image.values.shape
    for shape in ((n_ap, n_rows - 1), (n_ap + 2, n_rows), (n_rows, n_ap), (1, n_ap, n_rows)):
        with pytest.raises(GeometryError, match="does not match the transform"):
            StraightenedImage(np.zeros(shape), image.transform)


@pytest.mark.parametrize("delta", [5e-324, 1e-9])
def test_straighten_plane_refuses_a_plane_past_the_size_budget(delta):
    # 3 mm over 5e-324 mm pixels is infinitely many, and over 1e-9 mm a 6e9-pixel row:
    # an OverflowError and a 45 GiB allocation before the plane was sized first.
    curve = build_spine_curve(line_polyline(), step=1.0)
    with pytest.raises(GeometryError, match=f"^delta {delta} and half_extent 3.0"):
        straighten_plane(_random_volume(), curve, delta=delta, half_extent=3.0)


def test_straighten_constant_volume():
    vol = Volume3D(np.full((16, 16, 30), 2.5), (1.0, 1.0, 1.0))
    z = np.arange(30.0)
    polyline = CenterlinePolyline(
        np.column_stack([8 + 2 * np.sin(z / 7), np.full_like(z, 8.0)]), z)
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    image = straighten_plane(vol, curve, delta=1.0, half_extent=4.0)
    ok = np.isclose(image.values, 2.5, atol=1e-6) | (image.values == -1024.0)
    assert ok.all()
    inner = image.values[2:-2, 2:-2]
    np.testing.assert_allclose(inner, 2.5, atol=1e-6)


# A 40 x 36 x 56 volume of anisotropic voxels, off the world origin.
ORACLE_VOLUME = Volume3D(np.random.default_rng(11).uniform(-500, 500, (40, 36, 56)),
                         (1.0, 1.25, 0.9), (-2.0, -1.0, 0.5))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(0, 5), st.floats(40, 150), st.floats(0, 2 * np.pi), st.floats(0, 5),
       st.floats(0.5, 2.0), st.floats(0, 30))
def test_plane_pixels_are_trilinear_samples_of_their_world_points_property(
        lr_amplitude, wavelength, phase, ap_amplitude, delta, half_extent):
    # Gentle curves through the volume.  The 6 mm pad puts the first rows below
    # it, and a wide half-extent reaches past its sides: those pixels take fill.
    z = np.linspace(2.0, 48.0, 24)
    xy = np.column_stack([20 + lr_amplitude * np.sin(2 * np.pi * z / wavelength + phase),
                          21 + ap_amplitude * np.sin(2 * np.pi * z / wavelength)])
    curve = build_spine_curve(CenterlinePolyline(xy, z), step=delta, pad_mm=6.0)
    image = straighten_plane(ORACLE_VOLUME, curve, delta=delta, half_extent=half_extent,
                             fill=-7.5)
    transform = image.transform
    assert image.values.shape == (2 * int(half_extent / delta + 1e-9) + 1, len(curve))
    j, k = np.meshgrid(np.arange(transform.n_ap), np.arange(transform.n_rows), indexing="ij")
    world = transform.pixel_to_world(np.stack([j, k], axis=-1).astype(float))
    want = trilinear_sample(ORACLE_VOLUME, world, fill=-7.5)
    np.testing.assert_allclose(image.values, want, rtol=0, atol=1e-4)
    assert np.any(image.values == -7.5)


def test_to_world_hits_curve_samples_exactly():
    polyline, _ = circle_polyline()
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(40, 30, 100))
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=8.0).transform
    for k in (0, 5, len(curve) - 1):
        got = transform.pixel_to_world((transform.j_half, float(k)))
        np.testing.assert_allclose(got, curve.centers[k], atol=1e-12)


def test_central_column_traces_centerline_intensities():
    z = np.linspace(0, 60, 61)
    polyline = CenterlinePolyline(
        np.column_stack([14 + 4 * np.sin(z / 11), np.full_like(z, 9.0)]), z)
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(30, 20, 70), seed=5)
    image = straighten_plane(vol, curve, delta=1.0, half_extent=5.0)
    column = image.values[image.transform.j_half, :]
    want = trilinear_sample(vol, curve.centers)
    np.testing.assert_allclose(column, want, atol=1e-4)


def test_to_world_out_of_bounds():
    curve = build_spine_curve(line_polyline(), step=1.0)
    vol = _random_volume()
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=5.0).transform
    with pytest.raises(GeometryError):
        transform.pixel_to_world((-1.0, 0.0))
    with pytest.raises(GeometryError):
        transform.pixel_to_world((0.0, transform.n_rows + 4.0))


@pytest.mark.parametrize("axis, edge", [(0, "first"), (0, "last"), (1, "first"), (1, "last")],
                         ids=["anterior", "posterior", "top row", "bottom row"])
def test_inside_holds_each_edge_within_its_tolerance(axis, edge):
    curve = build_spine_curve(line_polyline(), step=1.0)
    transform = straighten_plane(_random_volume(), curve, delta=1.0, half_extent=5.0).transform
    last = (transform.n_ap - 1, transform.n_rows - 1)[axis]
    on, step = (0.0, -1.0) if edge == "first" else (last, 1.0)
    xy = np.full((3, 2), 2.0)
    xy[:, axis] = on + step * np.array([0.0, 1e-10, 1e-8])
    assert transform.inside(xy).tolist() == [True, True, False]
    assert transform.inside(xy.reshape(3, 1, 2)).shape == (3, 1)
    transform.pixel_to_world(xy[:2])
    with pytest.raises(GeometryError, match="outside"):
        transform.pixel_to_world(xy[2])


def test_world_pixel_round_trip_within_pixel():
    z = np.linspace(0, 80, 81)
    polyline = CenterlinePolyline(
        np.column_stack([20 + 12 * np.sin(z / 25), 15 + 0.05 * z]), z)
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(48, 36, 90))
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=10.0).transform
    rng = np.random.default_rng(8)
    # points close to the curve plane (the mid-sagittal neighborhood)
    ks = rng.integers(2, len(curve) - 3, 40)
    offs = rng.uniform(-8, 8, 40)
    pts = curve.centers[ks] + offs[:, None] * curve.v[ks]
    px = transform.world_to_pixel(pts)
    # exact inversion for on-plane points
    back = transform.pixel_to_world(px)
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-6
    # nearest-pixel rounding stays within one pixel spacing after mapping back
    rounded = np.round(px)
    back2 = transform.pixel_to_world(rounded)
    assert np.max(np.linalg.norm(back2 - pts, axis=1)) <= np.sqrt(2) * transform.delta + 1e-9


def test_arc_distance_bounds_straightened_distance():
    z = np.linspace(0, 60, 61)
    polyline = CenterlinePolyline(
        np.column_stack([10 + 6 * np.sin(z / 10), np.full_like(z, 9.0)]), z)
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(32, 20, 70))
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=6.0).transform
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = sorted(rng.integers(0, transform.n_rows, 2).tolist())
        pa = transform.pixel_to_world((transform.j_half, float(a)))
        pb = transform.pixel_to_world((transform.j_half, float(b)))
        # the numeric arc-length table is polygonal, hence the small slack
        assert np.linalg.norm(pa - pb) <= abs(curve.s[b] - curve.s[a]) * (1 + 1e-3) + 1e-9
    # equality for a straight curve
    line = build_spine_curve(line_polyline(), step=1.0)
    t2 = straighten_plane(vol, line, delta=1.0, half_extent=4.0).transform
    pa = t2.pixel_to_world((t2.j_half, 3.0))
    pb = t2.pixel_to_world((t2.j_half, 33.0))
    assert np.linalg.norm(pa - pb) == pytest.approx(30.0, abs=1e-9)


def test_transform_round_trips_through_dict():
    curve = build_spine_curve(line_polyline(dx=0.2), step=1.0)
    vol = _random_volume()
    transform = straighten_plane(vol, curve, delta=1.0, half_extent=5.0).transform
    doc = transform.to_dict()
    assert list(doc) == ["delta", "j_half", "rows"]
    back = StraightenTransform.from_dict(json.loads(json.dumps(doc)))
    for name in ("s", "centers", "u", "v"):
        assert np.array_equal(getattr(back, name), getattr(transform, name)), name
    assert (back.delta, back.j_half) == (transform.delta, transform.j_half)
    # Older files also hold an i_half, always 0; it is ignored.
    older = StraightenTransform.from_dict({"delta": 1.0, "i_half": 0, **doc})
    assert older.to_dict() == doc
    # The rows hold the very Python floats a float() per element would give.
    rows = [{"s": float(transform.s[k]), "c": [float(x) for x in transform.centers[k]],
             "u": [float(x) for x in transform.u[k]], "v": [float(x) for x in transform.v[k]]}
            for k in range(transform.n_rows)]
    assert doc["rows"] == rows
    assert all(type(r["s"]) is float and all(type(x) is float for key in "cuv" for x in r[key])
               for r in doc["rows"])


def sinusoid_curve(lr_amplitude, lr_wavelength, phase, ap_amplitude, ap_slope):
    """Default-config curve through a spine that bends left-right (scoliosis) with
    period lr_wavelength and anterior-posterior with period 300 mm."""
    z = np.linspace(0.0, 280.0, 94)
    xy = np.column_stack([80 + lr_amplitude * np.sin(2 * np.pi * z / lr_wavelength + phase),
                          80 + ap_amplitude * np.sin(2 * np.pi * z / 300) + ap_slope * z])
    return build_spine_curve(CenterlinePolyline(xy, z), step=1.0,
                             smoothing=10.0, pad_mm=15.0)


scoliosis = (st.floats(0, 60), st.floats(150, 400), st.floats(0, 2 * np.pi))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*scoliosis, st.floats(0, 20), st.floats(-0.2, 0.2))
def test_spine_curve_frames_orthonormal_right_handed_property(amplitude, wavelength, phase,
                                                              ap_amplitude, ap_slope):
    curve = sinusoid_curve(amplitude, wavelength, phase, ap_amplitude, ap_slope)
    assert_frames_orthonormal(curve, tol=_FRAME_TOL)


def double_reflection_oracle(centers, t):
    """The per-sample double-reflection loop (Wang et al. 2008), seeded with the
    left-right axis, then re-orthogonalized: the oracle for the closed form."""
    u = np.empty_like(t)
    u0 = np.array([1.0, 0.0, 0.0]) - t[0, 0] * t[0]
    u[0] = u0 / np.linalg.norm(u0)
    for k in range(len(centers) - 1):
        chord = centers[k + 1] - centers[k]
        c1 = chord @ chord
        u_ref = u[k] - (2 / c1) * (chord @ u[k]) * chord
        t_ref = t[k] - (2 / c1) * (chord @ t[k]) * chord
        bisect = t[k + 1] - t_ref
        c2 = bisect @ bisect
        u_next = u_ref if c2 <= 1e-300 else u_ref - (2 / c2) * (bisect @ u_ref) * bisect
        u_next -= (u_next @ t[k + 1]) * t[k + 1]
        u[k + 1] = u_next / np.linalg.norm(u_next)
    v = np.cross(t, u)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    u = np.cross(v, t)
    return u / np.linalg.norm(u, axis=1, keepdims=True), v


@settings(derandomize=True, deadline=None, max_examples=200)
@given(*scoliosis, st.floats(0, 60), st.floats(150, 400), st.floats(0.25, 2.0),
       st.sampled_from([0.0, 0.1, 10.0]))
def test_frames_equal_the_double_reflection_loop_property(amplitude, wavelength, phase,
                                                          ap_amplitude, ap_wavelength, step,
                                                          lam):
    z = np.linspace(0.0, 280.0, 94)
    xy = np.column_stack([80 + amplitude * np.sin(2 * np.pi * z / wavelength + phase),
                          80 + ap_amplitude * np.sin(2 * np.pi * z / ap_wavelength)])
    curve = build_spine_curve(CenterlinePolyline(xy, z), step=step, smoothing=lam)
    u, v = double_reflection_oracle(curve.centers, curve.t)
    assert np.max(np.abs(curve.u - u)) <= 1e-13
    assert np.max(np.abs(curve.v - v)) <= 1e-13


def test_frames_refuse_a_left_right_tangent_and_repeated_samples():
    t = np.tile([0.0, 0.0, 1.0], (4, 1))
    centers = np.outer(np.arange(4.0), [0.0, 0.0, 1.0])
    _rotation_minimizing_frames(centers, t)
    sideways = t.copy()
    sideways[2] = [1.0, 0.0, 0.0]
    with pytest.raises(GeometryError, match="parallel to the left-right axis"):
        _rotation_minimizing_frames(centers, sideways)
    centers[2] = centers[1]
    with pytest.raises(GeometryError, match="repeated curve samples"):
        _rotation_minimizing_frames(centers, t)


def test_build_spine_curve_memory_is_bounded_by_its_output():
    # About 25,000 rows: a 180 mm centerline at a step of 180 / 21,500 mm, 15 mm pad.
    z = np.linspace(0.0, 180.0, 60)
    xy = np.column_stack([80 + 15 * np.sin(2 * np.pi * z / 200), 80 + 0.1 * z])
    polyline = CenterlinePolyline(xy, z)
    curve, peak = traced_peak(build_spine_curve, polyline, step=180 / 21500, pad_mm=15.0)
    assert len(curve) > 24000
    returned = sum(getattr(curve, name).nbytes for name in ("s", "centers", "t", "u", "v"))
    assert peak < 5 * returned, (peak, returned)


@pytest.mark.parametrize("pad_mm", [1e15, 1e30])
def test_build_spine_curve_sizes_its_padding_by_name(pad_mm):
    # The padding was once unsized: 1e15 mm raised a MemoryError for 7.11 PiB, and
    # 1e30 mm numpy's unnamed "Maximum allowed size exceeded".
    with pytest.raises(GeometryError, match=re.escape(f"pad_mm {pad_mm} at step 1.0 mm")):
        build_spine_curve(line_polyline(), step=1.0, pad_mm=pad_mm)


def transform_and_reach(curve, delta):
    """Transform of the curve's 60 mm mid-sagittal plane at pixels of ``delta`` mm,
    and the largest AP offset (mm) at which the image is sure to be one-to-one:
    half the smallest radius of curvature, step / max |t_{k+1} - t_k| with t = u x v."""
    transform = StraightenTransform(curve.s, curve.centers, curve.u, curve.v, delta,
                                    int(60 / delta))
    kink = np.max(np.linalg.norm(np.diff(np.cross(transform.u, transform.v), axis=0), axis=1))
    step = curve.s[1] - curve.s[0]
    return transform, min(transform.j_half * delta, step / max(2 * kink, 1e-9))


def row_axes(transform, b):
    """c, u and v at the fractional rows b, interpolated as pixel_to_world does."""
    k = np.clip(np.floor(b).astype(int), 0, transform.n_rows - 2)
    f = (b - k)[:, None]
    return [(1 - f) * rows[k] + f * rows[k + 1]
            for rows in (transform.centers, transform.u, transform.v)]


curves = (*scoliosis, st.floats(0, 20), st.floats(-0.2, 0.2), st.sampled_from([0.5, 1.0, 1.5]))
fractions = st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 1), st.floats(-1, 1)),
                     min_size=1, max_size=40)


def near_pixels(transform, reach, fractions):
    """Pixels at AP offsets within ``reach`` mm, and LR offsets (mm) within it."""
    x, y, lr = np.array(fractions).T
    px = np.column_stack([transform.j_half + x * reach / transform.delta,
                          y * (transform.n_rows - 1)])
    return px, lr * reach


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*curves, fractions)
def test_pixel_world_pixel_round_trip_property(amplitude, wavelength, phase, ap_amplitude,
                                               ap_slope, delta, fractions):
    curve = sinusoid_curve(amplitude, wavelength, phase, ap_amplitude, ap_slope)
    transform, reach = transform_and_reach(curve, delta)
    px, _ = near_pixels(transform, reach, fractions)
    back = transform.world_to_pixel(transform.pixel_to_world(px))
    np.testing.assert_allclose(back, px, rtol=0, atol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*curves, fractions)
def test_left_right_offset_does_not_move_the_pixel_property(amplitude, wavelength, phase,
                                                            ap_amplitude, ap_slope, delta,
                                                            fractions):
    curve = sinusoid_curve(amplitude, wavelength, phase, ap_amplitude, ap_slope)
    transform, reach = transform_and_reach(curve, delta)
    px, lr = near_pixels(transform, reach, fractions)
    _, u, _ = row_axes(transform, px[:, 1])
    back = transform.world_to_pixel(transform.pixel_to_world(px) + lr[:, None] * u)
    np.testing.assert_allclose(back, px, rtol=0, atol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*curves, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
def test_returned_row_plane_contains_the_point_property(amplitude, wavelength, phase,
                                                        ap_amplitude, ap_slope, delta,
                                                        fractions):
    # Anywhere in the image, also where the row planes fold beyond the radius
    # of curvature and the image is not one-to-one.
    curve = sinusoid_curve(amplitude, wavelength, phase, ap_amplitude, ap_slope)
    transform, _ = transform_and_reach(curve, delta)
    pts = transform.pixel_to_world(
        np.array(fractions) * [transform.n_ap - 1, transform.n_rows - 1])
    px = transform.world_to_pixel(pts)
    _, u, v = row_axes(transform, px[:, 1])
    normal = np.cross(u, v)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    residual = transform.pixel_to_world(px) - pts
    assert np.max(np.abs(np.einsum("ij,ij->i", residual, normal))) < 1e-9


def test_world_to_pixel_batch_equals_single_points():
    curve = sinusoid_curve(40.0, 200.0, 0.3, 10.0, 0.1)
    transform, _ = transform_and_reach(curve, 1.0)
    rng = np.random.default_rng(3)
    pts = np.concatenate([
        transform.pixel_to_world(rng.uniform(0, 1, (50, 2)) * [transform.n_ap - 1,
                                                             transform.n_rows - 1]),
        rng.uniform(-50, 350, (50, 3))])  # off the image, and past the curve's ends
    batch = transform.world_to_pixel(pts)
    assert batch.shape == (100, 2)
    assert np.array_equal(batch, [transform.world_to_pixel(p) for p in pts])
    assert transform.world_to_pixel(np.empty((0, 3))).shape == (0, 2)
