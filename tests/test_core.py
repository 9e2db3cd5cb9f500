import mmap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinequant.core import (DEFAULT_FILL, IOU_BLOCK, GeometryError,
                             Volume3D, _corners, _sample_voxel_coords, boxes_from_keypoints,
                             finite_numbers, iou_matrix, owned_array)
from spinequant.genant import VertebraKeypoints
from spinequant.localization import CenterlinePolyline
from spinequant.straighten import SpineCurve, StraightenedImage, StraightenTransform

from oracles import finite_numbers_walk, iou, sample_voxel_coords_reference, trilinear_sample


def bbox_from_keypoints(kps) -> np.ndarray:
    """Tight (cx, cy, w, h) box of one (N, 2) point set, through ``boxes_from_keypoints``."""
    return boxes_from_keypoints(np.asarray(kps, dtype=float)[None])[0]


def test_iou_identical_boxes():
    a = (3.0, -2.0, 7.0, 5.0)
    assert iou(a, a) == 1.0


def test_iou_disjoint_boxes():
    a = (0.0, 0.0, 10.0, 10.0)
    b = (100.0, 0.0, 10.0, 10.0)
    assert iou(a, b) == 0.0


def test_iou_of_identical_boxes_is_capped_at_one():
    # Rounded corners overlap by a few ulps more than the area: the ratio was
    # 1.0000000000000004 before the cap.
    a = (4.0, 0.0, 1.979651844293655, 1.0)
    assert iou(a, a) == 1.0
    row = np.array([a])
    assert iou_matrix(row, row)[0, 0] == 1.0


def test_iou_half_offset_unit_squares():
    # overlap 0.5, union 1.5
    a = (0.0, 0.0, 1.0, 1.0)
    b = (0.5, 0.0, 1.0, 1.0)
    assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_symmetry_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = (*rng.uniform(-10, 10, 2), *rng.uniform(0.5, 20, 2))
        b = (*rng.uniform(-10, 10, 2), *rng.uniform(0.5, 20, 2))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_monotone_in_center_offset():
    base = (0.0, 0.0, 8.0, 8.0)
    values = [iou(base, (dx, 0.0, 8.0, 8.0)) for dx in np.linspace(0, 10, 21)]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(3)
    boxes_a = [(*rng.uniform(-5, 5, 2), *rng.uniform(0.5, 9, 2)) for _ in range(11)]
    boxes_b = [(*rng.uniform(-5, 5, 2), *rng.uniform(0.5, 9, 2)) for _ in range(7)]
    mat = iou_matrix(np.array(boxes_a), np.array(boxes_b))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-12)


def iou_matrix_reference(a, b):
    """The per-coordinate IoU formula, one numpy call per corner (the oracle)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    ax0 = a[:, 0] - a[:, 2] / 2
    ax1 = a[:, 0] + a[:, 2] / 2
    ay0 = a[:, 1] - a[:, 3] / 2
    ay1 = a[:, 1] + a[:, 3] / 2
    bx0 = b[:, 0] - b[:, 2] / 2
    bx1 = b[:, 0] + b[:, 2] / 2
    by0 = b[:, 1] - b[:, 3] / 2
    by1 = b[:, 1] + b[:, 3] / 2
    iw = np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    ih = np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return np.minimum(inter / union, 1.0)


def test_iou_matrix_bitwise_equals_reference_formula():
    rng = np.random.default_rng(4)
    for n, m in ((1, 1), (1, 3), (1, 12), (7, 1), (9, 5), (300, 12)):
        # Integer-valued boxes make touching and identical pairs common.
        a = np.column_stack([rng.integers(-6, 6, (n, 2)), rng.integers(1, 6, (n, 2))])
        b = np.column_stack([rng.uniform(-6, 6, (m, 2)), rng.uniform(0.5, 6, (m, 2))])
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            got = iou_matrix(x, y)
            assert got.shape == (len(x), len(y))
            assert got.tobytes() == iou_matrix_reference(x, y).tobytes()
    row = np.array([1.0, 2.0, 3.0, 4.0])
    assert iou_matrix(row, b).tobytes() == iou_matrix_reference(row, b).tobytes()
    # Column counts on both sides of the block edges of b, and empty inputs.
    for n in (0, 1, 12):
        for m in (0, IOU_BLOCK - 1, IOU_BLOCK, IOU_BLOCK + 1, 3 * IOU_BLOCK + 5):
            a = np.column_stack([rng.integers(-20, 20, (n, 2)), rng.integers(1, 12, (n, 2))])
            b = np.column_stack([rng.uniform(-20, 20, (m, 2)), rng.uniform(0.5, 12, (m, 2))])
            for x, y in ((a, b), (b, a)):
                got = iou_matrix(x, y)
                assert got.shape == (len(x), len(y))
                assert got.tobytes() == iou_matrix_reference(x, y).tobytes()


def test_iou_matrix_batch_axis_equals_one_call_per_set():
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.integers(-4, 4, (5, 7, 2)), rng.integers(1, 4, (5, 7, 2))], axis=2)
    b = np.concatenate([rng.uniform(-4, 4, (5, 3, 2)), rng.uniform(0.5, 4, (5, 3, 2))], axis=2)
    got = iou_matrix(a, b)
    assert got.shape == (5, 7, 3)
    assert got.tobytes() == np.stack([iou_matrix(x, y) for x, y in zip(a, b)]).tobytes()
    assert iou_matrix(a[:, :0], b).shape == (5, 0, 3)
    assert iou_matrix(a[:0], b[:0]).shape == (0, 7, 3)


box_rows = st.lists(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40)),
    min_size=1, max_size=8)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(box_rows, box_rows)
def test_iou_matrix_properties(rows_a, rows_b):
    a, b = np.array(rows_a), np.array(rows_b)
    mat = iou_matrix(a, b)
    assert np.array_equal(mat, iou_matrix(b, a).T)
    assert np.all((mat >= 0.0) & (mat <= 1.0))
    for i, ra in enumerate(rows_a):
        for j, rb in enumerate(rows_b):
            assert mat[i, j] == iou(ra, rb)


def test_bbox_from_keypoints_extrema():
    pts = np.array([[10, 5], [30, 5], [10, 25], [30, 25], [20, 15], [12, 20]], float)
    box = bbox_from_keypoints(pts)
    assert tuple(box) == (20, 15, 20, 20)


def test_bbox_degenerate_points_error():
    with pytest.raises(GeometryError):
        bbox_from_keypoints(np.tile([[4.0, 4.0]], (6, 1)))


def test_boxes_from_keypoints_matches_single_box():
    rng = np.random.default_rng(6)
    kps = rng.uniform(-20, 20, (25, 6, 2))
    boxes = boxes_from_keypoints(kps)
    assert boxes.shape == (25, 4)
    for row, pts in zip(boxes, kps):
        (x0, x1), (y0, y1) = ((min(c), max(c)) for c in pts.T.tolist())
        assert tuple(row) == ((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)
        assert tuple(row) == tuple(bbox_from_keypoints(pts))
    assert boxes_from_keypoints(np.zeros((0, 6, 2))).shape == (0, 4)
    flat = kps.copy()
    flat[7, :, 1] = 3.0
    with pytest.raises(GeometryError):
        boxes_from_keypoints(flat)
    bad = kps.copy()
    bad[3, 2, 0] = np.nan
    with pytest.raises(ValueError):
        boxes_from_keypoints(bad)
    with pytest.raises(ValueError):
        bbox_from_keypoints(np.array([np.inf, 1.0, 2.0, 3.0]).reshape(2, 2))
    with pytest.raises(ValueError):
        bbox_from_keypoints(np.zeros(2))
    # Areas past MAX_AREA, whose sum in iou_matrix's union overflows, and a center
    # that overflows.
    for far in ([[0.0, 0.0], [1e155, 1e154]], [[1e308, 0.0], [1.7e308, 1.0]]):
        with pytest.raises(GeometryError, match="float range"):
            boxes_from_keypoints(np.array([far]))
    assert boxes_from_keypoints(np.array([[[0.0, 0.0], [9e153, 9e153]]]))[0, 2] == 9e153


@settings(derandomize=True, deadline=None, max_examples=200)
@given(k=st.integers(0, 40), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_corners_equal_the_reductions_bitwise(k, n, seed):
    # Small integers give ties; signed zeros and negative coordinates are included.
    rng = np.random.default_rng(seed)
    kps = rng.integers(-3, 4, (k, n, 2)).astype(float)
    kps[rng.random(kps.shape) < 0.2] = -0.0
    kps[rng.random(kps.shape) < 0.2] *= rng.uniform(-1e3, 1e3)
    lo, hi = _corners(kps)
    assert lo.tobytes() == kps.min(axis=1).tobytes()
    assert hi.tobytes() == kps.max(axis=1).tobytes()


def test_bbox_rotated_rectangle_corners():
    # Rectangle 4 x 2 rotated by 30 degrees around the origin, plus midpoints.
    theta = np.deg2rad(30)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    corners = np.array([[2, 1], [-2, 1], [-2, -1], [2, -1], [2, 0], [-2, 0]], float) @ rot.T
    box = bbox_from_keypoints(corners)
    x_ext = corners[:, 0].max() - corners[:, 0].min()
    y_ext = corners[:, 1].max() - corners[:, 1].min()
    assert box[2] == pytest.approx(x_ext, abs=1e-12)
    assert box[3] == pytest.approx(y_ext, abs=1e-12)
    assert box[0] == pytest.approx(0.0, abs=1e-12)


def _ramp_volume():
    nx, ny, nz = 7, 6, 5
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    values = 2.0 * i - 3.0 * j + 0.5 * k + 4.0
    return Volume3D(values, (1.0, 2.0, 3.0), (-5.0, 1.0, 2.0)), (2.0, -3.0, 0.5, 4.0)


def test_trilinear_voxel_center_identity():
    vol, _ = _ramp_volume()
    for idx in [(0, 0, 0), (3, 2, 1), (6, 5, 4)]:
        p = vol.voxel_to_world(np.array(idx, float))
        assert trilinear_sample(vol, p) == pytest.approx(vol.values[idx], abs=1e-9)


def test_trilinear_midpoint_of_two_centers():
    values = np.zeros((2, 1, 1))
    values[1] = 10.0
    vol = Volume3D(values, (2.0, 1.0, 1.0))
    assert trilinear_sample(vol, [1.0, 0.0, 0.0]) == pytest.approx(5.0)


def test_trilinear_outside_returns_fill():
    vol, _ = _ramp_volume()
    assert trilinear_sample(vol, [1e4, 1e4, 1e4]) == DEFAULT_FILL
    assert trilinear_sample(vol, [1e4, 0, 0], fill=7.5) == 7.5


def test_trilinear_reproduces_trilinear_functions():
    # f = a*x + b*y + c*z + d + cross terms is reproduced exactly inside the hull.
    rng = np.random.default_rng(11)
    a, b, c, d, e, f, g, h = rng.uniform(-2, 2, 8)

    def fn(x, y, z):
        return (a * x + b * y + c * z + d
                + e * x * y + f * y * z + g * x * z + h * x * y * z)

    nx, ny, nz = 6, 5, 7
    spacing, origin = (1.5, 2.0, 1.0), (3.0, -4.0, 0.5)
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    xs = origin[0] + spacing[0] * i
    ys = origin[1] + spacing[1] * j
    zs = origin[2] + spacing[2] * k
    vol = Volume3D(fn(xs, ys, zs), spacing, origin)
    pts = np.column_stack([
        rng.uniform(origin[0], origin[0] + spacing[0] * (nx - 1), 300),
        rng.uniform(origin[1], origin[1] + spacing[1] * (ny - 1), 300),
        rng.uniform(origin[2], origin[2] + spacing[2] * (nz - 1), 300),
    ])
    got = trilinear_sample(vol, pts)
    want = fn(pts[:, 0], pts[:, 1], pts[:, 2])
    np.testing.assert_allclose(got, want, atol=1e-4, rtol=1e-5)


def raster_views(values) -> dict:
    """The same float32 raster C-ordered, Fortran-ordered, and as read-only views that are
    neither, which Volume3D adopts as they are: every other x and z of a larger raster
    with y reversed, and the transpose of a transposed copy."""
    values = np.asarray(values, np.float32)
    big = np.zeros((2 * values.shape[0], values.shape[1], 2 * values.shape[2]), np.float32)
    big[::2, ::-1, ::2] = values
    swapped = np.ascontiguousarray(values.transpose(1, 0, 2))
    big.flags.writeable = swapped.flags.writeable = False
    return {"C": np.ascontiguousarray(values), "F": np.asfortranarray(values),
            "strided": big[::2, ::-1, ::2], "transposed": swapped.transpose(1, 0, 2)}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), n=st.integers(0, 200),
       fill=st.sampled_from([DEFAULT_FILL, 0.0, 7.5]), seed=st.integers(0, 2**32 - 1))
def test_sample_voxel_coords_equals_the_three_index_gather(shape, n, fill, seed):
    # Points run a voxel past every face, with some exactly on voxel centers and faces.
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 100.0, shape).astype(np.float32)
    idx = rng.uniform(-1.0, 1.0, (n, 3)) + rng.uniform(0.0, 1.0, (n, 3)) * shape
    idx[::3] = np.round(idx[::3])
    idx[1::5, 0] = shape[0] - 1
    for layout, raster in raster_views(values).items():
        assert np.array_equal(raster, values)
        got = _sample_voxel_coords(raster, idx, fill)
        assert np.array_equal(got, sample_voxel_coords_reference(values, idx, fill)), layout


def test_world_voxel_round_trip():
    vol, _ = _ramp_volume()
    rng = np.random.default_rng(2)
    idx = rng.uniform(0, 4, size=(100, 3))
    back = vol.world_to_voxel(vol.voxel_to_world(idx))
    assert np.max(np.abs(back - idx)) < 1e-9
    pts = rng.uniform(-20, 20, size=(100, 3))
    back_w = vol.voxel_to_world(vol.world_to_voxel(pts))
    assert np.max(np.abs(back_w - pts)) < 1e-9


def test_volume_validation():
    with pytest.raises(ValueError):
        Volume3D(np.zeros((3, 3)), (1, 1, 1))
    with pytest.raises(ValueError):
        Volume3D(np.zeros((3, 3, 3)), (1, 0, 1))


@pytest.mark.parametrize("spacing, origin, field", [
    ((np.nan, 1, 1), (0, 0, 0), "spacing"),
    ((np.inf, 1, 1), (0, 0, 0), "spacing"),
    ((1e308, 1, 1), (0, 0, 0), "spacing"),
    ((10 ** 400, 1, 1), (0, 0, 0), "spacing"),
    ((True, 1, 1), (0, 0, 0), "spacing"),
    (("1", 1, 1), (0, 0, 0), "spacing"),
    ((1, 1), (0, 0, 0), "spacing"),
    ((1, 1, 1), (0, 0), "origin"),
    ((1, 1, 1), (0, 0, 0, 0), "origin"),
    ((1, 1, 1), (0, np.nan, 0), "origin"),
    ((1, 1, 1), (0, 0, -np.inf), "origin"),
    ((1, 1, 1), (0, False, 0), "origin"),
    ((1, 1, 1), None, "origin"),
])
def test_volume_rejects_bad_geometry_naming_the_field(spacing, origin, field):
    with pytest.raises(ValueError, match=field):
        Volume3D(np.zeros((3, 3, 3)), spacing, origin)


@pytest.mark.parametrize("value, shape, integer", [
    (True, (), False), (np.True_, (), False), ("1.5", (), False), (None, (), False),
    (float("nan"), (), False), (float("-inf"), (), False), (10 ** 400, (), False),
    (10 ** 400, (), True), (2.0, (), True), (np.float64(3.0), (), True), ([1.0], (), False),
    (1.0, (1,), False), ([1.0, 2.0], (3,), False), ({"a": 1.0}, (None,), False),
    ([[1.0, 2.0, 3.0], [1.0, 2.0]], (None, 3), False), ("abc", (None,), False),
    ([1, True, 3], (3,), True), (np.array(1.0), (None,), False),
])
def test_finite_numbers_refuses_all_but_finite_reals_in_shape(value, shape, integer):
    with pytest.raises(ValueError, match="^field must be"):
        finite_numbers(value, "field", shape, integer)


def test_finite_numbers_returns_tuples_of_python_numbers():
    got = finite_numbers(np.array([[1, 2, 3], [4.5, 5, 6]]), "x", (None, 3))
    assert got == ((1.0, 2.0, 3.0), (4.5, 5.0, 6.0))
    assert all(type(v) is float for row in got for v in row)
    assert finite_numbers([np.int64(2), 3, 4], "x", (3,), integer=True) == (2, 3, 4)
    assert type(finite_numbers(np.int64(2), "x", integer=True)) is int
    assert finite_numbers([], "x", (None, 3)) == ()
    assert finite_numbers(7, "x") == 7.0 and type(finite_numbers(7, "x")) is float


SHAPES = [(), (3,), (None,), (None, 3), (6, 3)]
# Leaves finite_numbers takes, and leaves it refuses or that stand where a sequence belongs.
int_leaves = st.integers(-10 ** 6, 10 ** 6)
real_leaves = st.one_of(st.floats(-1e6, 1e6), int_leaves)
odd_leaves = st.one_of(
    st.floats(), st.integers(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 10 ** 400, -10 ** 400,
                     True, False, np.True_, np.False_, None, "1.5", "", {}, {"a": 1.0}]),
    st.floats(width=32).map(np.float32), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.array),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4)))


@st.composite
def nested_values(draw, dims, integer, odd):
    """A value of nesting ``dims``; where ``odd``, a leaf or a length may be wrong."""
    if not dims:
        if odd and draw(st.integers(0, 7)) == 0:
            return draw(odd_leaves)
        return draw(int_leaves if integer else real_leaves)
    n = dims[0] if dims[0] is not None else draw(st.integers(0, 5))
    if odd and draw(st.integers(0, 7)) == 0:
        n = max(n + draw(st.sampled_from([-1, 1])), 0)
    items = [draw(nested_values(dims[1:], integer, odd)) for _ in range(n)]
    if odd and len(dims) == 2 and len(items) >= 2 and items[0] and draw(st.booleans()):
        # Ragged rows that keep the total leaf count: row 0 gives a leaf to row 1.
        items[0], items[1] = items[0][:-1], [*items[1], items[0][-1]]
    return draw(st.sampled_from([list, tuple]))(items)


@st.composite
def number_rule_cases(draw):
    shape, integer = draw(st.sampled_from(SHAPES)), draw(st.booleans())
    kind = draw(st.sampled_from(["clean", "odd", "array", "any"]))
    if kind == "any":
        value = draw(st.recursive(odd_leaves, lambda kids: st.one_of(
            st.lists(kids, max_size=6), st.lists(kids, max_size=6).map(tuple),
            st.dictionaries(st.text(max_size=2), kids, max_size=2)), max_leaves=20))
    else:
        value = draw(nested_values(shape, integer, kind == "odd"))
        if kind == "array":
            value = np.array(value, dtype=draw(st.sampled_from([float, np.float32, np.int64])))
    return value, shape, integer


def rule_outcome(rule, value, shape, integer):
    """(repr and leaf types of the result, None) or (None, the ValueError message)."""
    try:
        got = rule(value, "field", shape, integer)
    except ValueError as exc:
        return None, str(exc)

    def types(v):
        return tuple(map(types, v)) if isinstance(v, tuple) else type(v)
    return (repr(got), types(got)), None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(number_rule_cases())
@example((True, (), False)).via("bool")
@example(([[1.0, 2.0], [3.0, 4.0, 5.0, 6.0]], (None, 3), False)).via("ragged rows")
@example(([[1, 2, 3], [4, np.True_, 6]], (None, 3), True)).via("numpy bool")
@example(([-0.0, float("nan"), 1.0], (3,), False)).via("nan")
@example((np.zeros((6, 3), np.float32), (6, 3), False)).via("float32 rows")
def test_finite_numbers_matches_the_recursive_walk_property(case):
    assert rule_outcome(finite_numbers, *case) == rule_outcome(finite_numbers_walk, *case)


def test_volume_accepts_numpy_numbers_as_geometry():
    vol = Volume3D(np.zeros((2, 2, 2)), np.array([0.5, 1.0, 2.0]), (np.int64(1), 2.5, -3))
    assert vol.spacing == (0.5, 1.0, 2.0) and vol.origin == (1.0, 2.5, -3.0)
    assert all(type(v) is float for v in vol.spacing + vol.origin)


@pytest.mark.parametrize("order", ["C", "F"])
def test_volume_copies_writeable_input_in_its_memory_order(order):
    src = np.asarray(np.arange(60, dtype=np.float32).reshape(3, 4, 5), order=order)
    vol = Volume3D(src, (1, 1, 1))
    src[0, 0, 0] = 99.0
    assert vol.values[0, 0, 0] == 0.0
    assert not np.shares_memory(vol.values, src)
    assert vol.values.flags.c_contiguous == (order == "C")
    assert vol.values.flags.f_contiguous == (order == "F")
    assert not vol.values.flags.writeable


def test_volume_adopts_read_only_input_only():
    owner = np.arange(60, dtype=np.float32)
    owner.flags.writeable = False
    fortran = owner.reshape((3, 4, 5), order="F")
    assert Volume3D(fortran, (1, 1, 1)).values is fortran
    # A read-only view of writeable memory is still copied.
    writeable = np.arange(60, dtype=np.float32)
    view = writeable.reshape(3, 4, 5)
    view.flags.writeable = False
    vol = Volume3D(view, (1, 1, 1))
    writeable[0] = 99.0
    assert vol.values[0, 0, 0] == 0.0


def _buffer_owners(tmp_path):
    """(name, owner of 24 bytes, whether its buffer is read-only) for the owners
    numpy arrays can view besides arrays."""
    maps = {}
    for access in ("READ", "WRITE", "COPY"):
        (tmp_path / access).write_bytes(bytes(24))
        with open(tmp_path / access, "r+b") as fh:
            maps[access] = mmap.mmap(fh.fileno(), 0, access=getattr(mmap, f"ACCESS_{access}"))
    return [("bytes", bytes(24), True), ("ACCESS_READ map", maps["READ"], True),
            ("bytearray", bytearray(24), False), ("ACCESS_WRITE map", maps["WRITE"], False),
            ("ACCESS_COPY map", maps["COPY"], False)]


def test_owned_array_adopts_a_read_only_buffer_and_copies_a_writeable_one(tmp_path):
    for name, owner, read_only in _buffer_owners(tmp_path):
        arr = np.frombuffer(owner, dtype=np.float32).reshape(2, 3)
        arr.flags.writeable = False
        got = owned_array(arr, np.float32)
        assert (got is arr) == read_only, name
        assert np.shares_memory(got, arr) == read_only, name
        assert not got.flags.writeable, name
        if not read_only:
            memoryview(owner).cast("B")[:4] = np.float32(7.0).tobytes()
            assert arr[0, 0] == 7.0 and got[0, 0] == 0.0, name
    # An owner that exports no buffer (a sliding window's) counts as writeable.
    frozen = np.arange(6.0, dtype=np.float32)
    frozen.flags.writeable = False
    windows = np.lib.stride_tricks.sliding_window_view(frozen, 3)
    assert not windows.flags.writeable and owned_array(windows, np.float32) is not windows


def _curve_rows(n=4):
    """s, centers, t, u, v of a straight curve along z, with u = x and v = y."""
    s = np.arange(float(n))
    t, u, v = (np.tile(axis, (n, 1)) for axis in np.eye(3)[[2, 0, 1]])
    return [s, np.outer(s, [0.0, 0.0, 1.0]), t, u, v]


# The frozen records besides Volume3D, whose own tests are above: (the arrays it is
# handed, the record built from them, the arrays it holds).  All take them by owned_array.
RECORDS = {
    "CenterlinePolyline": (lambda: [np.arange(8.0).reshape(4, 2), np.arange(4.0)],
                           lambda a: CenterlinePolyline(*a), lambda r: [r.xy, r.z]),
    "SpineCurve": (_curve_rows, lambda a: SpineCurve(*a),
                   lambda r: [r.s, r.centers, r.t, r.u, r.v]),
    "StraightenTransform": (lambda: [a for k, a in enumerate(_curve_rows()) if k != 2],
                            lambda a: StraightenTransform(*a, 1.0, 2),
                            lambda r: [r.s, r.centers, r.u, r.v]),
    "StraightenedImage": (lambda: [np.arange(10.0, dtype=np.float32).reshape(5, 2)],
                          lambda a: StraightenedImage(a[0], StraightenTransform(
                              *[r for k, r in enumerate(_curve_rows(2)) if k != 2], 1.0, 2)),
                          lambda r: [r.values]),
    "VertebraKeypoints": (lambda: [np.arange(18.0).reshape(6, 3)],
                          lambda a: VertebraKeypoints(a[0]), lambda r: [r.points]),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("record", sorted(RECORDS))
def test_record_copies_writeable_input(record, order):
    arrays, build, held = RECORDS[record]
    # Each array is handed as a view into a writeable owner of twice its size.
    owners = [np.zeros((2, *a.shape), order=order) for a in arrays()]
    views = [owner[0] for owner in owners]
    for view, a in zip(views, arrays()):
        view[...] = a
    rec = build(views)
    for owner in owners:
        owner[...] = 99.0
    for got, want in zip(held(rec), arrays(), strict=True):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
        assert not any(np.shares_memory(got, owner) for owner in owners)
    assert all(a.flags.writeable for a in views + owners)


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_record_adopts_read_only_input_only(record):
    arrays, build, held = RECORDS[record]
    frozen = [np.array(a) for a in arrays()]
    for a in frozen:
        a.flags.writeable = False
    assert all(got is a for got, a in zip(held(build(frozen)), frozen, strict=True))
    # A read-only view of writeable memory is still copied.
    owners = [np.array(a) for a in arrays()]
    views = [owner.view() for owner in owners]
    for view in views:
        view.flags.writeable = False
    rec = build(views)
    for owner in owners:
        owner[...] = 99.0
    for got, want in zip(held(rec), arrays(), strict=True):
        np.testing.assert_array_equal(got, want)
