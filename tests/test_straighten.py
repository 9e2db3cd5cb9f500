import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinequant.core import GeometryError, Volume3D
from spinequant.localization import CenterlinePolyline
from spinequant.straighten import (_FRAME_TOL, SpineCurve, StraightenTransform,
                                   build_spine_curve, mid_sagittal_slice, straighten_volume)


def line_polyline(z0=0.0, z1=50.0, n=51, dx=0.0, dy=0.0, x0=10.0, y0=20.0):
    z = np.linspace(z0, z1, n)
    xy = np.column_stack([x0 + dx * (z - z0), y0 + dy * (z - z0)])
    return CenterlinePolyline(xy, z, frame="world")


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
    return CenterlinePolyline(np.column_stack([x, np.full_like(z, 5.0)]), z,
                              frame="world"), zm


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
        np.column_stack([np.full_like(z, 3.0), 10 * np.sin(z / 15)]), z, frame="world")
    curve2 = build_spine_curve(wiggle, step=1.0, smoothing=0.0)
    assert np.max(np.linalg.norm(curve2.u - [1.0, 0.0, 0.0], axis=1)) < 1e-6 * len(curve2)


def test_build_spine_curve_validation():
    with pytest.raises(GeometryError):
        build_spine_curve(line_polyline(n=3))
    squished = CenterlinePolyline(np.zeros((5, 2)), np.linspace(0, 1e-12, 5), "world")
    with pytest.raises(GeometryError):
        build_spine_curve(squished, step=1.0)
    with pytest.raises(ValueError):
        build_spine_curve(
            CenterlinePolyline(np.zeros((5, 2)), np.arange(5.0), "voxel"))


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
    vol = _random_volume()
    cx, cy = 12.0, 11.0
    polyline = CenterlinePolyline(np.tile([cx, cy], (40, 1)), np.arange(40.0), "world")
    curve = build_spine_curve(polyline, step=1.0)
    straight, transform = straighten_volume(vol, curve, delta=1.0,
                                            half_extent=(6.0, 5.0))
    assert straight.shape == (13, 11, 40)
    window = vol.values[6:19, 6:17, :]
    np.testing.assert_allclose(straight.values, window, atol=1e-5)
    # mid-sagittal slice is the original sagittal plane through the curve
    image = mid_sagittal_slice(straight, transform)
    np.testing.assert_allclose(image.values, vol.values[12, 6:17, :], atol=1e-5)


def test_straighten_constant_volume():
    vol = Volume3D(np.full((16, 16, 30), 2.5), (1.0, 1.0, 1.0))
    z = np.arange(30.0)
    polyline = CenterlinePolyline(
        np.column_stack([8 + 2 * np.sin(z / 7), np.full_like(z, 8.0)]), z, "world")
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    straight, _ = straighten_volume(vol, curve, delta=1.0, half_extent=(4.0, 4.0))
    ok = np.isclose(straight.values, 2.5, atol=1e-6) | (straight.values == -1024.0)
    assert ok.all()
    inner = straight.values[2:-2, 2:-2, 2:-2]
    np.testing.assert_allclose(inner, 2.5, atol=1e-6)


def test_to_world_hits_curve_samples_exactly():
    polyline, _ = circle_polyline()
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(40, 30, 100))
    _, transform = straighten_volume(vol, curve, delta=1.0, half_extent=(8.0, 8.0))
    for k in (0, 5, len(curve) - 1):
        got = transform.pixel_to_world((transform.j_half, float(k)))
        np.testing.assert_allclose(got, curve.centers[k], atol=1e-12)


def test_central_column_traces_centerline_intensities():
    from spinequant.core import trilinear_sample

    z = np.linspace(0, 60, 61)
    polyline = CenterlinePolyline(
        np.column_stack([14 + 4 * np.sin(z / 11), np.full_like(z, 9.0)]), z, "world")
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(30, 20, 70), seed=5)
    straight, transform = straighten_volume(vol, curve, delta=1.0,
                                            half_extent=(5.0, 5.0))
    column = straight.values[transform.i_half, transform.j_half, :]
    want = trilinear_sample(vol, curve.centers)
    np.testing.assert_allclose(column, want, atol=1e-4)


def test_to_world_out_of_bounds():
    curve = build_spine_curve(line_polyline(), step=1.0)
    vol = _random_volume()
    _, transform = straighten_volume(vol, curve, delta=1.0, half_extent=(5.0, 5.0))
    with pytest.raises(GeometryError):
        transform.pixel_to_world((-1.0, 0.0))
    with pytest.raises(GeometryError):
        transform.pixel_to_world((0.0, transform.n_rows + 4.0))


def test_world_pixel_round_trip_within_pixel():
    z = np.linspace(0, 80, 81)
    polyline = CenterlinePolyline(
        np.column_stack([20 + 12 * np.sin(z / 25), 15 + 0.05 * z]), z, "world")
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(48, 36, 90))
    _, transform = straighten_volume(vol, curve, delta=1.0, half_extent=(10.0, 10.0))
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
        np.column_stack([10 + 6 * np.sin(z / 10), np.full_like(z, 9.0)]), z, "world")
    curve = build_spine_curve(polyline, step=1.0, smoothing=0.0)
    vol = _random_volume(shape=(32, 20, 70))
    _, transform = straighten_volume(vol, curve, delta=1.0, half_extent=(6.0, 6.0))
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = sorted(rng.integers(0, transform.n_rows, 2).tolist())
        pa = transform.pixel_to_world((transform.j_half, float(a)))
        pb = transform.pixel_to_world((transform.j_half, float(b)))
        # the numeric arc-length table is polygonal, hence the small slack
        assert np.linalg.norm(pa - pb) <= abs(curve.s[b] - curve.s[a]) * (1 + 1e-3) + 1e-9
    # equality for a straight curve
    line = build_spine_curve(line_polyline(), step=1.0)
    _, t2 = straighten_volume(vol, line, delta=1.0, half_extent=(4.0, 4.0))
    pa = t2.pixel_to_world((t2.j_half, 3.0))
    pb = t2.pixel_to_world((t2.j_half, 33.0))
    assert np.linalg.norm(pa - pb) == pytest.approx(30.0, abs=1e-9)


def test_transform_round_trips_through_dict():
    curve = build_spine_curve(line_polyline(dx=0.2), step=1.0)
    vol = _random_volume()
    _, transform = straighten_volume(vol, curve, delta=1.0, half_extent=(5.0, 5.0))
    back = StraightenTransform.from_dict(transform.to_dict())
    np.testing.assert_allclose(back.centers, transform.centers)
    np.testing.assert_allclose(back.v, transform.v)
    assert back.delta == transform.delta
    assert back.j_half == transform.j_half


def sinusoid_curve(lr_amplitude, lr_wavelength, phase, ap_amplitude, ap_slope):
    """Default-config curve through a spine that bends left-right (scoliosis) with
    period lr_wavelength and anterior-posterior with period 300 mm."""
    z = np.linspace(0.0, 280.0, 94)
    xy = np.column_stack([80 + lr_amplitude * np.sin(2 * np.pi * z / lr_wavelength + phase),
                          80 + ap_amplitude * np.sin(2 * np.pi * z / 300) + ap_slope * z])
    return build_spine_curve(CenterlinePolyline(xy, z, "world"), step=1.0,
                             smoothing=10.0, pad_mm=15.0)


scoliosis = (st.floats(0, 60), st.floats(150, 400), st.floats(0, 2 * np.pi))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*scoliosis, st.floats(0, 20), st.floats(-0.2, 0.2))
def test_spine_curve_frames_orthonormal_right_handed_property(amplitude, wavelength, phase,
                                                              ap_amplitude, ap_slope):
    curve = sinusoid_curve(amplitude, wavelength, phase, ap_amplitude, ap_slope)
    assert_frames_orthonormal(curve, tol=_FRAME_TOL)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(*scoliosis, st.floats(-0.2, 0.2), st.sampled_from([0.5, 1.0, 1.5]),
       st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
def test_pixel_world_pixel_round_trip_property(amplitude, wavelength, phase, ap_slope, delta,
                                               fractions):
    # The curve bends left-right only: with anterior-posterior bending,
    # world_to_pixel keeps the segment its first projection picked and misses
    # off-center pixels (ROADMAP.md, open item on world_to_pixel).
    curve = sinusoid_curve(amplitude, wavelength, phase, 0.0, ap_slope)
    transform = StraightenTransform(curve.s, curve.centers, curve.u, curve.v, delta, 0,
                                    int(60 / delta))
    px = np.array(fractions) * [transform.n_ap - 1, transform.n_rows - 1]
    back = transform.world_to_pixel(transform.pixel_to_world(px))
    np.testing.assert_allclose(back, px, rtol=0, atol=1e-9)
