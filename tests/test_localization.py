import numpy as np
import pytest

from spinequant.core import GeometryError, Volume3D
from spinequant.localization import (CenterlinePolyline, centerline_mae,
                                     centerline_target, slicewise_centerline,
                                     soft_argmax_2d, upsample_curve)

from test_genant import make_keypoints


def test_soft_argmax_one_hot():
    m = np.zeros((20, 15))
    m[12, 7] = 1.0
    assert soft_argmax_2d(m) == (12.0, 7.0)


def test_soft_argmax_uniform_is_centroid():
    m = np.ones((9, 6))
    x, y = soft_argmax_2d(m)
    assert x == pytest.approx(4.0, abs=1e-12)
    assert y == pytest.approx(2.5, abs=1e-12)


def test_soft_argmax_two_equal_spikes():
    m = np.zeros((11, 5))
    m[0, 0] = 3.0
    m[10, 4] = 3.0
    x, y = soft_argmax_2d(m)
    assert (x, y) == (5.0, 2.0)


def test_soft_argmax_zero_mass_error():
    with pytest.raises(GeometryError):
        soft_argmax_2d(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        soft_argmax_2d(-np.ones((4, 4)))


def test_soft_argmax_positive_scaling_invariance():
    rng = np.random.default_rng(1)
    m = rng.uniform(0, 1, (13, 17))
    base = soft_argmax_2d(m)
    for lam in (1e-6, 0.5, 3.0, 1e5):
        got = soft_argmax_2d(lam * m)
        assert got[0] == pytest.approx(base[0], abs=1e-9)
        assert got[1] == pytest.approx(base[1], abs=1e-9)


def test_soft_argmax_translation_equivariance():
    rng = np.random.default_rng(2)
    patch = rng.uniform(0, 1, (7, 7))
    grid = np.zeros((40, 40))
    grid[5:12, 8:15] = patch
    x0, y0 = soft_argmax_2d(grid)
    for dx, dy in ((3, 0), (0, 4), (11, 9)):
        shifted = np.zeros((40, 40))
        shifted[5 + dx:12 + dx, 8 + dy:15 + dy] = patch
        x1, y1 = soft_argmax_2d(shifted)
        assert x1 - x0 == pytest.approx(dx, abs=1e-9)
        assert y1 - y0 == pytest.approx(dy, abs=1e-9)


def test_soft_argmax_logits_mode():
    m = np.zeros((5, 5))  # all-equal logits: softmax is uniform
    x, y = soft_argmax_2d(m, mode="logits")
    assert (x, y) == (2.0, 2.0)
    # Sharp temperature concentrates on the max entry.
    m[3, 1] = 5.0
    x, y = soft_argmax_2d(m, mode="logits", temperature=50.0)
    assert x == pytest.approx(3.0, abs=1e-6)
    assert y == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mode", ["probabilities", "logits"])
def test_soft_argmax_does_not_depend_on_memory_layout(mode):
    rng = np.random.default_rng(3)
    for shape in ((40, 40), (37, 53)):
        m = rng.random(shape).astype(np.float32)
        want = soft_argmax_2d(m, mode=mode)
        for other in (np.asfortranarray(m), m.astype(np.float64),
                      np.asfortranarray(m, dtype=np.float64)):
            assert soft_argmax_2d(other, mode=mode) == want


def test_slicewise_centerline_does_not_depend_on_memory_layout():
    maps = np.random.default_rng(4).random((40, 40, 12)).astype(np.float32)
    want = slicewise_centerline(Volume3D(maps, (3, 3, 3))).xy.tobytes()
    for other in (np.asfortranarray(maps), maps.astype(np.float64)):
        assert slicewise_centerline(Volume3D(other, (3, 3, 3))).xy.tobytes() == want


def test_slicewise_centerline_diagonal():
    stack = np.zeros((16, 16, 10))
    for k in range(10):
        stack[k + 2, k, k] = 1.0
    poly = slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(poly.xy[:, 0], np.arange(10) + 2)
    np.testing.assert_allclose(poly.xy[:, 1], np.arange(10))
    np.testing.assert_allclose(poly.z, np.arange(10))
    assert poly.frame == "world"


def test_slicewise_centerline_uniform_maps():
    stack = np.ones((9, 9, 4))
    poly = slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(poly.xy, np.full((4, 2), 4.0))


def test_slicewise_centerline_reports_slice_index():
    stack = np.ones((5, 5, 3))
    stack[:, :, 1] = 0.0
    with pytest.raises(GeometryError, match="slice 1"):
        slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))


def test_slicewise_centerline_rejects_nan_map():
    stack = np.ones((5, 5, 3))
    stack[2, 3, 2] = np.nan
    with pytest.raises(GeometryError, match="slice 2"):
        slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))


def test_centerline_target_reproduces_linear_data():
    # middle keypoints on the line x = 0.5 z + 3, y = -2
    anns = []
    for zc in (20.0, 44.0, 68.0, 92.0):
        kps = make_keypoints(18, 18, 18, center=(0.5 * zc + 3, -2.0, zc)).as_array().copy()
        kps[2, 0] = 0.5 * kps[2, 2] + 3  # middle superior exactly on the line
        kps[3, 0] = 0.5 * kps[3, 2] + 3
        anns.append(make_keypoints().from_array(kps))
    z = np.arange(8.0, 104.0, 1.0)
    poly = centerline_target(anns, z)
    assert poly.frame == "world"
    np.testing.assert_allclose(poly.xy[:, 0], 0.5 * poly.z + 3, atol=1e-9)
    np.testing.assert_allclose(poly.xy[:, 1], -2.0, atol=1e-9)
    assert poly.z[0] >= 20.0 - 9.0 - 1e-9 and poly.z[-1] <= 92.0 + 9.0 + 1e-9


def test_centerline_target_two_points_is_linear():
    anns = [make_keypoints(10, 10, 10, center=(5.0, 7.0, 30.0))]
    # Single vertebra gives two middle keypoints at z = 25 and z = 35.
    z = np.linspace(25, 35, 11)
    poly = centerline_target(anns, z)
    np.testing.assert_allclose(poly.xy[:, 0], 5.0, atol=1e-12)
    np.testing.assert_allclose(poly.xy[:, 1], 7.0, atol=1e-12)


def test_centerline_target_passes_through_keypoints():
    rng = np.random.default_rng(3)
    anns = []
    for zc in np.arange(30.0, 200.0, 26.0):
        x = 40 + 10 * np.sin(zc / 50)
        anns.append(make_keypoints(16, 16, 16, center=(x + rng.uniform(-1, 1), 20.0, zc)))
    kp_z = np.sort(np.concatenate([[a.middle_superior[2], a.middle_inferior[2]]
                                   for a in anns], axis=None))
    poly = centerline_target(anns, kp_z)
    for ann in anns:
        for pt in (ann.middle_superior, ann.middle_inferior):
            k = np.argmin(np.abs(poly.z - pt[2]))
            assert abs(poly.z[k] - pt[2]) < 1e-9
            assert np.max(np.abs(poly.xy[k] - pt[:2])) < 1e-6


def test_centerline_target_needs_two_distinct_z():
    ann = make_keypoints(10, 10, 10)
    pts = ann.as_array().copy()
    pts[3] = pts[2]  # middle inferior collapses onto superior
    broken = ann.from_array(pts)
    with pytest.raises(GeometryError):
        centerline_target([broken], np.arange(-10.0, 10.0))


def test_centerline_mae_examples():
    z = np.arange(12, dtype=float)
    xy = np.column_stack([np.linspace(0, 5, 12), np.linspace(-2, 2, 12)])
    a = CenterlinePolyline(xy, z, frame="world")
    assert centerline_mae(a, a) == 0.0
    b = CenterlinePolyline(xy + [1.0, 0.0], z, frame="world")
    assert centerline_mae(a, b) == pytest.approx(0.5, abs=1e-12)


def test_centerline_mae_matches_bruteforce():
    rng = np.random.default_rng(4)
    z = np.arange(30, dtype=float)
    a = CenterlinePolyline(rng.normal(size=(30, 2)), z, frame="world")
    b = CenterlinePolyline(rng.normal(size=(30, 2)), z, frame="world")
    total = 0.0
    for k in range(30):
        total += abs(a.xy[k, 0] - b.xy[k, 0]) + abs(a.xy[k, 1] - b.xy[k, 1])
    assert centerline_mae(a, b) == pytest.approx(total / 60, abs=1e-12)


def test_centerline_mae_metric_properties():
    rng = np.random.default_rng(5)
    z = np.arange(15, dtype=float)
    polys = [CenterlinePolyline(rng.normal(size=(15, 2)), z, frame="world")
             for _ in range(3)]
    a, b, c = polys
    assert centerline_mae(a, b) == centerline_mae(b, a)
    assert centerline_mae(a, c) <= centerline_mae(a, b) + centerline_mae(b, c) + 1e-12


def test_centerline_mae_range_mismatch():
    a = CenterlinePolyline(np.zeros((5, 2)), np.arange(5.0), frame="world")
    b = CenterlinePolyline(np.zeros((4, 2)), np.arange(4.0), frame="world")
    with pytest.raises(ValueError):
        centerline_mae(a, b)


def test_upsample_linear_curve_stays_linear():
    z = np.array([0.0, 10.0, 20.0, 30.0])
    xy = np.column_stack([2 * z + 1, -0.5 * z])
    coarse = CenterlinePolyline(xy, z, frame="world")
    fine_z = np.linspace(-2.0, 33.0, 71)  # extends past both ends
    fine = upsample_curve(coarse, fine_z)
    np.testing.assert_allclose(fine.xy[:, 0], 2 * fine_z + 1, atol=1e-9)
    np.testing.assert_allclose(fine.xy[:, 1], -0.5 * fine_z, atol=1e-9)


def test_upsample_single_interval_keeps_endpoints():
    coarse = CenterlinePolyline(np.array([[1.0, 2.0], [3.0, -1.0]]),
                                np.array([5.0, 9.0]), frame="world")
    fine = upsample_curve(coarse, np.array([5.0, 7.0, 9.0]))
    np.testing.assert_allclose(fine.xy[0], [1.0, 2.0])
    np.testing.assert_allclose(fine.xy[-1], [3.0, -1.0])
    np.testing.assert_allclose(fine.xy[1], [2.0, 0.5])


def test_upsample_zigzag_recovers_vertices():
    z = np.array([0.0, 4.0, 8.0, 12.0])
    xy = np.array([[0.0, 0.0], [2.0, -1.0], [0.0, 3.0], [4.0, 1.0]])
    coarse = CenterlinePolyline(xy, z, frame="world")
    fine = upsample_curve(coarse, np.arange(0.0, 12.5, 0.5))
    for zc, want in zip(z, xy):
        k = int(np.argwhere(fine.z == zc)[0, 0])
        np.testing.assert_allclose(fine.xy[k], want, atol=1e-12)


def test_slicewise_centerline_returns_world_coordinates():
    stack = np.zeros((8, 8, 2))
    stack[1, 2, 0] = stack[3, 1, 1] = 1.0
    poly = slicewise_centerline(Volume3D(stack, (2.0, 3.0, 4.0), (10.0, 20.0, 30.0)))
    assert poly.frame == "world"
    np.testing.assert_allclose(poly.xy, [[12.0, 26.0], [16.0, 23.0]])
    np.testing.assert_allclose(poly.z, [30.0, 34.0])


def test_polyline_rejects_voxel_frame():
    with pytest.raises(ValueError, match="frame"):
        CenterlinePolyline(np.zeros((2, 2)), np.array([0.0, 1.0]), frame="voxel")
