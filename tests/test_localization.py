import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinequant.core import GeometryError, Volume3D
from spinequant.genant import VertebraKeypoints
from spinequant.localization import (CENTERLINE_SLAB, CenterlinePolyline, centerline_mae,
                                     centerline_target, slicewise_centerline,
                                     soft_argmax_2d, upsample_curve)
from spinequant.phantom import PhantomConfig
from spinequant.pipeline import PipelineConfig, oracle_phantom
from spinequant.splines import pchip

from conftest import traced_peak
from oracles import slicewise_centerline_reference, soft_argmax_reference
from test_core import raster_views
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


def test_slicewise_centerline_uniform_maps():
    stack = np.ones((9, 9, 4))
    poly = slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(poly.xy, np.full((4, 2), 4.0))


def test_slicewise_centerline_reports_slice_index():
    stack = np.ones((5, 5, 3))
    stack[3, 1, 1] = -0.5
    with pytest.raises(GeometryError, match="slice 1: .*negative"):
        slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))


def test_slicewise_centerline_skips_empty_slices():
    # All-zero maps at both ends and in the middle carry no position: the
    # polyline holds the other slices, at their own world z.
    stack = np.zeros((8, 8, 7))
    for k in (1, 2, 4, 5):
        stack[k, 3, k] = 1.0
    poly = slicewise_centerline(Volume3D(stack, (2.0, 2.0, 3.0), (1.0, 1.0, 10.0)))
    np.testing.assert_array_equal(poly.z, 10.0 + 3.0 * np.array([1, 2, 4, 5]))
    np.testing.assert_array_equal(poly.xy, [[3.0, 7.0], [5.0, 7.0], [9.0, 7.0], [11.0, 7.0]])


def test_slicewise_centerline_needs_two_slices_with_mass():
    stack = np.zeros((5, 5, 4))
    stack[2, 2, 3] = 1.0
    with pytest.raises(GeometryError, match="only 1 of 4 slices have probability mass"):
        slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))
    # Logits decode every slice, an all-zero one as a uniform map.
    poly = slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)), mode="logits")
    assert len(poly) == 4
    np.testing.assert_allclose(poly.xy[0], [2.0, 2.0])


def test_slicewise_centerline_rejects_nan_map():
    stack = np.ones((5, 5, 3))
    stack[2, 3, 2] = np.nan
    with pytest.raises(GeometryError, match="slice 2"):
        slicewise_centerline(Volume3D(stack, (1.0, 1.0, 1.0)))


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["xy", "z"])
def test_polyline_refuses_non_finite_values_naming_the_field(field, bad):
    arrays = {"xy": np.zeros((5, 2)), "z": np.arange(5.0)}
    arrays[field][-1] = bad  # a last z of +inf passes the strictly-increasing test
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        CenterlinePolyline(arrays["xy"], arrays["z"])


@pytest.mark.parametrize("mode", ["probabilities", "logits"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_soft_argmax_refuses_non_finite_temperature(bad, mode):
    with pytest.raises(ValueError, match="^temperature must be a finite number"):
        soft_argmax_2d(np.ones((4, 3)), mode=mode, temperature=bad)


@pytest.mark.parametrize("mode, temperature, match", [
    *(("logits", bad, "^temperature") for bad in NON_FINITE),
    ("argmax", 1.0, "^unknown soft-argmax mode"),
])
def test_slicewise_centerline_refuses_a_bad_argument_before_its_slices(mode, temperature, match):
    # A NaN temperature once read "GeometryError: slice 0: temperature must be finite".
    maps = Volume3D(np.ones((4, 4, 3)), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=match) as exc:
        slicewise_centerline(maps, mode=mode, temperature=temperature)
    assert exc.type is ValueError


@pytest.mark.parametrize("bad", NON_FINITE)
def test_centerline_target_refuses_non_finite_slices(bad):
    z = np.linspace(25, 35, 11)
    z[5] = bad
    with pytest.raises(ValueError, match="^z_slices must be finite"):
        centerline_target([make_keypoints(10, 10, 10, center=(5.0, 7.0, 30.0))], z)


def test_centerline_target_reproduces_linear_data():
    # middle keypoints on the line x = 0.5 z + 3, y = -2
    anns = []
    for zc in (20.0, 44.0, 68.0, 92.0):
        kps = make_keypoints(18, 18, 18, center=(0.5 * zc + 3, -2.0, zc)).as_array().copy()
        kps[2, 0] = 0.5 * kps[2, 2] + 3  # middle superior exactly on the line
        kps[3, 0] = 0.5 * kps[3, 2] + 3
        anns.append(VertebraKeypoints(kps))
    z = np.arange(8.0, 104.0, 1.0)
    poly = centerline_target(anns, z)
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
    kp_z = np.sort(np.concatenate([a.as_array()[2:4, 2] for a in anns]))
    poly = centerline_target(anns, kp_z)
    for ann in anns:
        for pt in ann.as_array()[2:4]:
            k = np.argmin(np.abs(poly.z - pt[2]))
            assert abs(poly.z[k] - pt[2]) < 1e-9
            assert np.max(np.abs(poly.xy[k] - pt[:2])) < 1e-6


@st.composite
def spline_data(draw, min_n=2, monotone=False):
    """Strictly increasing, unevenly spaced knots and one or two value columns."""
    n = draw(st.integers(min_n, 40))
    gaps = draw(st.lists(st.floats(0.2, 5.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-300, 300)) + np.concatenate([[0.0], np.cumsum(gaps)])
    # Values on a 1e-4 grid: secants may be 0, never subnormal.
    y = np.array(draw(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
                               min_size=1, max_size=2))).T / 1e4
    if monotone:
        y = np.cumsum(np.abs(y), axis=0) * draw(st.sampled_from([1, -1]))
    return x, y[:, 0] if draw(st.booleans()) else y


def spline_examples(*sizes):
    """Explicit uneven-knot cases of the given sizes, so each is always tried."""
    def wrap(test):
        for n in sizes:
            x = np.cumsum(np.linspace(0.3, 4.0, n) ** 1.5)
            test = example((x, np.column_stack([np.sin(x), x ** 2 / 7])))(test)
        return test
    return wrap


def assert_fit_matches(ours, theirs, x, y, rtol):
    """Equal at the knots and on a dense grid, within rtol of the data range."""
    xq = np.concatenate([x, np.linspace(x[0], x[-1], 301)])
    scale = max(float(np.ptp(y)), 1.0)
    assert np.max(np.abs(ours(xq) - theirs(xq))) <= rtol * scale


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spline_data())
@spline_examples(2, 3, 4, 5)
def test_pchip_matches_scipy_property(data):
    from scipy.interpolate import PchipInterpolator
    x, y = data
    assert_fit_matches(pchip(x, y), PchipInterpolator(x, y), x, y, 1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(spline_data(monotone=True))
def test_pchip_does_not_overshoot_monotone_data_property(data):
    x, y = data
    fit = pchip(x, y)(np.linspace(x[0], x[-1], 2001))
    tol = 1e-12 * max(float(np.ptp(y)), 1.0)
    steps = np.diff(fit, axis=0) * np.sign(y[-1] - y[0])
    assert np.all(steps >= -tol)
    assert np.all(fit >= y.min(axis=0) - tol) and np.all(fit <= y.max(axis=0) + tol)


def test_centerline_target_needs_two_distinct_z():
    ann = make_keypoints(10, 10, 10)
    pts = ann.as_array().copy()
    pts[3] = pts[2]  # middle inferior collapses onto superior
    broken = VertebraKeypoints(pts)
    with pytest.raises(GeometryError):
        centerline_target([broken], np.arange(-10.0, 10.0))


def test_centerline_mae_examples():
    z = np.arange(12, dtype=float)
    xy = np.column_stack([np.linspace(0, 5, 12), np.linspace(-2, 2, 12)])
    a = CenterlinePolyline(xy, z)
    assert centerline_mae(a, a) == 0.0
    b = CenterlinePolyline(xy + [1.0, 0.0], z)
    assert centerline_mae(a, b) == pytest.approx(0.5, abs=1e-12)


def test_centerline_mae_matches_bruteforce():
    rng = np.random.default_rng(4)
    z = np.arange(30, dtype=float)
    a = CenterlinePolyline(rng.normal(size=(30, 2)), z)
    b = CenterlinePolyline(rng.normal(size=(30, 2)), z)
    total = 0.0
    for k in range(30):
        total += abs(a.xy[k, 0] - b.xy[k, 0]) + abs(a.xy[k, 1] - b.xy[k, 1])
    assert centerline_mae(a, b) == pytest.approx(total / 60, abs=1e-12)


def test_centerline_mae_metric_properties():
    rng = np.random.default_rng(5)
    z = np.arange(15, dtype=float)
    polys = [CenterlinePolyline(rng.normal(size=(15, 2)), z)
             for _ in range(3)]
    a, b, c = polys
    assert centerline_mae(a, b) == centerline_mae(b, a)
    assert centerline_mae(a, c) <= centerline_mae(a, b) + centerline_mae(b, c) + 1e-12


def test_centerline_mae_range_mismatch():
    a = CenterlinePolyline(np.zeros((5, 2)), np.arange(5.0))
    b = CenterlinePolyline(np.zeros((4, 2)), np.arange(4.0))
    with pytest.raises(ValueError):
        centerline_mae(a, b)


def test_upsample_linear_curve_stays_linear():
    z = np.array([0.0, 10.0, 20.0, 30.0])
    xy = np.column_stack([2 * z + 1, -0.5 * z])
    coarse = CenterlinePolyline(xy, z)
    fine_z = np.linspace(-1e-9, 30.0 + 1e-9, 61)  # the ends within the slack
    fine = upsample_curve(coarse, fine_z)
    np.testing.assert_allclose(fine.xy[:, 0], 2 * fine_z + 1, atol=1e-9)
    np.testing.assert_allclose(fine.xy[:, 1], -0.5 * fine_z, atol=1e-9)
    for outside in (-2e-9, 30.0 + 2e-9, 33.0):
        with pytest.raises(GeometryError, match="span"):
            upsample_curve(coarse, [5.0, outside])


def test_upsample_single_interval_keeps_endpoints():
    coarse = CenterlinePolyline(np.array([[1.0, 2.0], [3.0, -1.0]]),
                                np.array([5.0, 9.0]))
    fine = upsample_curve(coarse, np.array([5.0, 7.0, 9.0]))
    np.testing.assert_allclose(fine.xy[0], [1.0, 2.0])
    np.testing.assert_allclose(fine.xy[-1], [3.0, -1.0])
    np.testing.assert_allclose(fine.xy[1], [2.0, 0.5])


def test_upsample_zigzag_recovers_vertices():
    z = np.array([0.0, 4.0, 8.0, 12.0])
    xy = np.array([[0.0, 0.0], [2.0, -1.0], [0.0, 3.0], [4.0, 1.0]])
    coarse = CenterlinePolyline(xy, z)
    fine = upsample_curve(coarse, np.arange(0.0, 12.5, 0.5))
    for zc, want in zip(z, xy):
        k = int(np.argwhere(fine.z == zc)[0, 0])
        np.testing.assert_allclose(fine.xy[k], want, atol=1e-12)


def test_slicewise_centerline_returns_world_coordinates():
    stack = np.zeros((8, 8, 2))
    stack[1, 2, 0] = stack[3, 1, 1] = 1.0
    poly = slicewise_centerline(Volume3D(stack, (2.0, 3.0, 4.0), (10.0, 20.0, 30.0)))
    np.testing.assert_allclose(poly.xy, [[12.0, 26.0], [16.0, 23.0]])
    np.testing.assert_allclose(poly.z, [30.0, 34.0])


# One slice, one slab, one slab and a slice, and two slabs with a short third.
SLICE_COUNTS = (1, CENTERLINE_SLAB, CENTERLINE_SLAB + 1, 2 * CENTERLINE_SLAB + 5)


def random_maps(rng, shape, mode, empty) -> np.ndarray:
    """Peaked non-negative maps (probabilities) or signed logits, with the ``empty``
    slices all zero."""
    if mode == "probabilities":
        stack = rng.random(shape) ** 8 * rng.uniform(1e-3, 1e3)
    else:
        stack = rng.normal(0.0, 3.0, shape)
    stack[:, :, sorted(empty)] = 0.0
    return stack


def outcome(fn, *args):
    """(xy, z) bytes of a decoded polyline, or the text of the error raised instead."""
    try:
        poly = fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return poly.xy.tobytes(), poly.z.tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.sampled_from(SLICE_COUNTS), mode=st.sampled_from(["probabilities", "logits"]),
       layout=st.sampled_from(["F", "C", "strided", "transposed"]), nx=st.integers(9, 40),
       ny=st.integers(9, 40), temperature=st.floats(0.05, 20.0),
       empty=st.sets(st.sampled_from(["first", "middle", "last"])),
       seed=st.integers(0, 2**32 - 1))
def test_slicewise_centerline_equals_the_per_slice_reference(n, mode, layout, nx, ny,
                                                            temperature, empty, seed):
    rng = np.random.default_rng(seed)
    where = {"first": 0, "middle": n // 2, "last": n - 1}
    stack = random_maps(rng, (nx, ny, n), mode, {where[e] for e in empty})
    maps = Volume3D(raster_views(stack)[layout], (1.5, 2.0, 2.5), (3.0, -4.0, 10.0))
    assert maps.values.flags.c_contiguous == (layout == "C")
    want = outcome(slicewise_centerline_reference, maps, mode, temperature)
    assert outcome(slicewise_centerline, maps, mode, temperature) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.sampled_from(SLICE_COUNTS), mode=st.sampled_from(["probabilities", "logits"]),
       layout=st.sampled_from(["F", "C", "strided", "transposed"]),
       faults=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
           [np.nan, np.inf, -np.inf, -0.5])), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_slicewise_centerline_reports_the_first_bad_slice_as_the_reference(n, mode, layout,
                                                                          faults, seed):
    rng = np.random.default_rng(seed)
    stack = random_maps(rng, (12, 10, n), mode, set())
    for at, bad in faults:
        stack[rng.integers(12), rng.integers(10), at % n] = bad
    maps = Volume3D(raster_views(stack)[layout], (1.0, 1.0, 1.0))
    want = outcome(slicewise_centerline_reference, maps, mode, 1.0)
    assert outcome(slicewise_centerline, maps, mode, 1.0) == want
    bad_slices = [at % n for at, bad in faults
                  if mode == "probabilities" or bad != -0.5]  # a logit may be negative
    if bad_slices:
        assert want[0] == "GeometryError" and want[1].startswith(f"slice {min(bad_slices)}: ")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mode=st.sampled_from(["probabilities", "logits"]), nx=st.integers(1, 40),
       ny=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_soft_argmax_equals_the_one_map_reference(mode, nx, ny, seed):
    m = random_maps(np.random.default_rng(seed), (nx, ny, 1), mode, set())[:, :, 0]
    for values in (m, m.astype(np.float32), np.asfortranarray(m)):
        before = values.copy()
        assert soft_argmax_2d(values, mode, 2.0) == soft_argmax_reference(values, mode, 2.0)
        assert np.array_equal(values, before)  # the caller's map is not overwritten


def test_slicewise_centerline_memory_is_bounded_by_its_slabs():
    # The default chain's 54 x 54 x 95 working-grid stack: 2.2 MB as float64.
    # Decoding it one slab at a time peaks near one slab (0.37 MB); converting
    # the whole stack at once would hold all of it.
    maps = oracle_phantom(PhantomConfig(scoliosis_amplitude_mm=15.0), PipelineConfig())[3]
    poly, peak = traced_peak(slicewise_centerline, maps)
    assert len(poly) == maps.shape[2]
    stack = maps.values.size * 8
    assert peak < stack / 2, (peak, stack)
