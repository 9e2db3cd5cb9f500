import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinequant import detection
from spinequant.core import GeometryError, iou_matrix
from spinequant.detection import (AnchorGrid, DetectionTargets, assign_targets, decode_keypoints,
                                  detect, detect_candidates, detection_loss,
                                  detection_loss_grad, detection_loss_terms, encode_keypoints,
                                  generate_anchors, nms)
from conftest import traced_peak
from oracles import anchor_boxes_flat, corners, decode_one, encode_one, iou
from test_core import bbox_from_keypoints


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def anchor_box(grid, ix, iy, t) -> np.ndarray:
    """Anchor (ix, iy, t) as a (cx, cy, w, h) row: centered on pixel (ix, iy),
    sides of type t (the oracle)."""
    return np.array([ix, iy, *grid.sides_px[t]], dtype=float)


def test_anchor_unit_ratio_square():
    grid = generate_anchors((10, 10), pixel_spacing=2.0, scales_mm=(20.0,), ratios=(1.0,))
    assert grid.sides_px[0] == pytest.approx([10.0, 10.0])   # 20 mm at 2 mm/px


def test_anchor_ratio_four_splits_sides():
    # ratio = h/w and scale = sqrt(w*h): w = 20/sqrt(4) = 10 mm, h = 20*2 = 40 mm
    grid = generate_anchors((6, 6), pixel_spacing=1.0, scales_mm=(20.0,), ratios=(4.0,))
    assert grid.sides_px[0] == pytest.approx([10.0, 40.0])
    assert grid.sides_px[0].prod() == pytest.approx(400.0)


def test_anchor_count():
    grid = generate_anchors((10, 10), 1.0)
    assert grid.n_types == 16
    assert grid.n_anchors == 1600
    assert anchor_boxes_flat(grid).shape == (1600, 4)


def test_anchor_grid_rejects_zero_side():
    for shape in ((0, 5), (5, 0)):
        with pytest.raises(ValueError):
            generate_anchors(shape, 1.0)


@pytest.mark.parametrize("arg", ["scales_mm", "ratios"])
def test_anchor_grid_refuses_no_scales_or_no_ratios_by_name(arg):
    # An empty scales_mm once gave a grid of 0 anchor types, on which assign_targets
    # raised numpy's "zero-size array to reduction operation maximum".
    with pytest.raises(ValueError, match=f"^{arg} must be non-empty, got"):
        generate_anchors((20, 10), 1.0, **{arg: ()})
    with pytest.raises(ValueError, match=r"^sides_px must be at least one \(width, height\) row"):
        AnchorGrid((20, 10), np.empty((0, 2)))


def test_anchor_grid_keeps_its_sides_from_later_writes_to_the_source():
    # The record once held the caller's array: this write turned its side to -5.
    source = np.array([[2.0, 2.0]])
    grid = AnchorGrid((4, 4), source)
    source[0, 0] = -5.0
    assert grid.sides_px.tolist() == [[2.0, 2.0]]
    assert not grid.sides_px.flags.writeable and source.flags.writeable
    table = generate_anchors((4, 4), 1.0).sides_px  # a read-only table is adopted uncopied
    assert AnchorGrid((4, 4), table).sides_px is table


def test_anchor_grid_rejects_sides_that_overflow():
    # 80 mm over pixels of 3e-308 mm is beyond float range.
    with pytest.raises(GeometryError, match="overflow"):
        generate_anchors((5, 5), 3e-308)


def test_anchor_grid_rejects_areas_that_overflow_and_sides_that_underflow():
    # Finite sides of 1.7e301 px, but their product overflows.
    with pytest.raises(GeometryError, match="overflow"):
        generate_anchors((5, 5), 1e-300)
    # A height of 1e-300 mm x sqrt(1e-300) underflows to 0.
    with pytest.raises(GeometryError, match="anchor_ratios"):
        generate_anchors((5, 5), 1.0, scales_mm=(1e-300,), ratios=(1e-300,))


def test_anchor_sides_table_and_flat_order():
    scales, ratios = (10.0, 14.0), (1.0, 2.0)
    grid = generate_anchors((4, 3), 1.0, scales_mm=scales, ratios=ratios)
    a = grid.n_types
    assert grid.sides_px.shape == (a, 2) == (4, 2)
    assert not grid.sides_px.flags.writeable
    with pytest.raises(ValueError):
        grid.sides_px[0, 0] = 1.0
    # rows run scale-major: t = scale_index * len(ratios) + ratio_index
    for si, s in enumerate(scales):
        for ri, r in enumerate(ratios):
            assert grid.sides_px[si * len(ratios) + ri].tolist() == [s / math.sqrt(r),
                                                                     s * math.sqrt(r)]
    flat = anchor_boxes_flat(grid)
    assert flat.shape == (grid.n_anchors, 4)
    assert np.array_equal(np.column_stack(grid.locate(np.arange(grid.n_anchors))), flat)
    for ix in range(4):
        for iy in range(3):
            for t in range(a):
                k = (ix * 3 + iy) * a + t
                assert tuple(flat[k]) == (ix, iy, *grid.sides_px[t])
                assert tuple(flat[k]) == tuple(anchor_box(grid, ix, iy, t))
                # assign_targets and detect read anchor k in the same place
                kps = keypoints_for_box(*flat[k])
                _, offsets, _, matched = assign_targets(grid, [(kps, 1.0)],
                                                        iou_threshold=1.0).dense()
                assert matched.ravel().tolist() == [0 if j == k else -1
                                                    for j in range(grid.n_anchors)]
                obj = np.zeros((4, 3, a))
                obj.flat[k] = 1.0
                (kps,), _ = detect(obj, offsets, grid)
                np.testing.assert_allclose(bbox_from_keypoints(kps), flat[k],
                                           rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# keypoint encoding (the shift/scale invariant offsets)
# ---------------------------------------------------------------------------

def one_anchor(cx, cy, w, h):
    """(1, 2) center and (1, 2) sides of one anchor, as the array codec takes them."""
    return np.array([[cx, cy]]), np.array([[w, h]])


def test_encode_at_anchor_center_is_zero():
    kps = np.tile([10.0, 20.0], (1, 6, 1))
    assert np.all(encode_keypoints(kps, *one_anchor(10.0, 20.0, 4.0, 8.0)) == 0.0)


def test_encode_hand_example():
    kps = np.tile([12.0, 24.0], (1, 6, 1))
    np.testing.assert_allclose(encode_keypoints(kps, *one_anchor(10.0, 20.0, 4.0, 8.0)),
                               np.tile([0.5, 0.5], (1, 6, 1)))


def test_decode_hand_example_and_zero():
    anchor = one_anchor(10.0, 20.0, 4.0, 8.0)
    np.testing.assert_allclose(decode_keypoints(np.tile([0.5, 0.5], (1, 6, 1)), *anchor),
                               np.tile([12.0, 24.0], (1, 6, 1)))
    np.testing.assert_allclose(decode_keypoints(np.zeros((1, 6, 2)), *anchor),
                               np.tile([10.0, 20.0], (1, 6, 1)))


def test_encode_decode_round_trip_random():
    rng = np.random.default_rng(0)
    centers, sides, kps = np.empty((10_000, 2)), np.empty((10_000, 2)), np.empty((10_000, 6, 2))
    for p in range(10_000):
        centers[p], sides[p] = rng.uniform(-50, 50, 2), rng.uniform(0.5, 60, 2)
        kps[p] = rng.uniform(-100, 100, (6, 2))
    back = decode_keypoints(encode_keypoints(kps, centers, sides), centers, sides)
    assert np.max(np.abs(back - kps)) < 1e-9


coords = st.floats(-500, 500)
sides = st.floats(0.5, 100)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.tuples(coords, coords, sides, sides),
       st.lists(st.tuples(coords, coords), min_size=6, max_size=6),
       st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), min_size=6, max_size=6))
def test_encode_decode_round_trip_property(anchor, kps, offsets):
    anchor = one_anchor(*anchor)
    kps, offsets = np.array([kps]), np.array([offsets])
    np.testing.assert_allclose(decode_keypoints(encode_keypoints(kps, *anchor), *anchor), kps,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(encode_keypoints(decode_keypoints(offsets, *anchor), *anchor),
                               offsets, rtol=0, atol=1e-9)


def test_encode_shift_invariance_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        center = rng.integers(-40, 40, (1, 2)).astype(float)
        side = rng.integers(1, 30, (1, 2)).astype(float)
        kps = rng.integers(-64, 64, (1, 6, 2)).astype(float)
        base = encode_keypoints(kps, center, side)
        # integer-valued shifts keep the identity exact in floating point
        shift = rng.integers(-1000, 1000, 2).astype(float)
        assert np.array_equal(encode_keypoints(kps + shift, center + shift, side), base)


def test_encode_joint_scale_invariance_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        center, side = rng.uniform(-40, 40, (1, 2)), rng.uniform(0.5, 30, (1, 2))
        kps = rng.uniform(-64, 64, (1, 6, 2))
        base = encode_keypoints(kps, center, side)
        lam = float(2.0 ** rng.integers(-6, 7))  # powers of two scale exactly
        assert np.array_equal(encode_keypoints(lam * kps, lam * center, lam * side), base)


# ---------------------------------------------------------------------------
# target assignment
# ---------------------------------------------------------------------------

def keypoints_for_box(cx, cy, w, h):
    """Six points whose tight bbox is exactly the given box."""
    return np.array([
        [cx - w / 2, cy - h / 2],
        [cx + w / 2, cy - h / 2],
        [cx - w / 2, cy + h / 2],
        [cx + w / 2, cy + h / 2],
        [cx, cy],
        [cx + w / 4, cy],
    ])


def test_assign_anchor_identical_to_gt():
    grid = generate_anchors((11, 11), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    kps = keypoints_for_box(5.0, 5.0, 4.0, 4.0)
    objectness, offsets, weights, matched = assign_targets(grid, [(kps, 0.9)]).dense()
    assert objectness[5, 5, 0] == 1.0
    assert weights[5, 5, 0] == 0.9
    np.testing.assert_allclose(offsets[5, 5, 0],
                               encode_one(kps, anchor_box(grid, 5, 5, 0)))
    # anchors far away stay negative
    assert objectness[0, 0, 0] == 0.0
    assert matched[0, 0, 0] == -1


def test_assign_empty_ground_truth():
    grid = generate_anchors((8, 8), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    targets = assign_targets(grid, [])
    assert targets.n_positive == 0
    assert np.all(targets.dense()[3] == -1)
    # thresholds outside (0, 1] are refused, as PipelineConfig refuses assign_iou
    for bad in (-0.1, 0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="iou_threshold"):
            assign_targets(grid, [], iou_threshold=bad)


def test_assign_forced_best_anchor_below_threshold():
    grid = generate_anchors((15, 15), 1.0, scales_mm=(6.0,), ratios=(1.0,))
    # a 2 x 2 box: best possible IoU is 4/36 < 0.5, so only the forced match fires
    kps = keypoints_for_box(7.3, 7.6, 2.0, 2.0)
    targets = assign_targets(grid, [(kps, 0.8)])
    assert targets.n_positive == 1
    # brute-force max-IoU set over the whole grid; the forced anchor is the
    # first of the tied maxima in flat anchor order
    gt_box = bbox_from_keypoints(kps)
    ious = np.array([[iou(anchor_box(grid, ix, iy, 0), gt_box) for iy in range(15)]
                     for ix in range(15)])
    best_iou = ious.max()
    assert best_iou < 0.5
    ties = np.argwhere(ious == best_iou)
    objectness, _, _, matched = targets.dense()
    chosen = np.argwhere(objectness[:, :, 0] == 1.0)
    assert len(chosen) == 1
    assert tuple(chosen[0]) == tuple(ties[0])
    assert matched[chosen[0][0], chosen[0][1], 0] == 0


def test_assign_every_gt_gets_an_anchor_and_no_double_claims():
    rng = np.random.default_rng(5)
    grid = generate_anchors((40, 60), 1.0, scales_mm=(8.0, 12.0), ratios=(1.0, 1.5))
    gt = []
    for k in range(6):
        cx, cy = rng.uniform(6, 34), 8.0 + 9.0 * k
        gt.append((keypoints_for_box(cx, cy, rng.uniform(5, 12), rng.uniform(5, 9)),
                   float(rng.uniform(0.5, 1.0))))
    objectness, _, weights, matched = assign_targets(grid, gt).dense()
    for m in range(len(gt)):
        assert np.any(matched == m), f"vertebra {m} unmatched"
    pos = objectness == 1
    assert np.all(matched[pos] >= 0)
    assert np.all(matched[~pos] == -1)
    assert np.all(weights[pos] > 0)


def positive_targets(index=(1, 4), shape=(2, 2, 2), **changes):
    """A DetectionTargets of the given positives, vertebra 0, offsets 0.5, weight 0.8."""
    n = len(index)
    fields = {"index": np.array(index), "matched": np.zeros(n, dtype=int),
              "offsets": np.full((n, 6, 2), 0.5), "genant_weights": np.full(n, 0.8)}
    return DetectionTargets(shape, **(fields | changes))


def test_targets_record_is_read_only_and_owns_its_arrays():
    index, weights = np.array([1, 4]), np.full(2, 0.8)
    targets = positive_targets(index=index, genant_weights=weights)
    for name in ("index", "matched", "offsets", "genant_weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(targets, name)[...] = 0
    # the caller's arrays stay writeable, and writing them does not reach the record
    index[0], weights[0] = 0, 0.1
    assert targets.index.tolist() == [1, 4] and targets.genant_weights.tolist() == [0.8, 0.8]
    objectness, offsets, dense_weights, matched = targets.dense()
    assert objectness.ravel().tolist() == [0, 1, 0, 0, 1, 0, 0, 0]
    assert matched.ravel().tolist() == [-1, 0, -1, -1, 0, -1, -1, -1]
    assert dense_weights.ravel().tolist() == [0, 0.8, 0, 0, 0.8, 0, 0, 0]
    assert np.all(offsets.reshape(8, 12)[[1, 4]] == 0.5) and offsets.sum() == 12.0
    # offsets past the float range are kept: pack_targets refuses them
    assert np.isinf(positive_targets(offsets=np.full((2, 6, 2), np.inf)).offsets).all()


@pytest.mark.parametrize("changes, match", [
    ({"index": [4, 1]}, "ascending"),
    ({"index": [1, 1]}, "distinct"),
    ({"index": [1, 8]}, r"\[0, 8\)"),
    ({"index": [-1, 4]}, r"\[0, 8\)"),
    ({"index": [[1, 4]]}, "^index must be finite numbers of shape"),
    ({"shape": (2, 0, 2)}, "^shape must be"),
    ({"matched": [0]}, "^matched must be finite numbers of shape"),
    ({"offsets": np.zeros((2, 6, 1))}, "offsets has shape"),
    ({"genant_weights": np.ones(3)}, "genant_weights must be finite numbers of shape"),
    ({"matched": [0, -1]}, ">= 0"),
])
def test_targets_record_refuses_inconsistent_arrays(changes, match):
    with pytest.raises(ValueError, match=match):
        positive_targets(**changes)


def reference_matches(grid, gt, iou_threshold=0.5):
    """Anchor matches by the full stable-argsort claim loop (the oracle)."""
    boxes = np.array([bbox_from_keypoints(kps) for kps, _ in gt])
    overlaps = iou_matrix(anchor_boxes_flat(grid), boxes)
    best_gt = overlaps.argmax(axis=1)
    best_iou = overlaps[np.arange(len(overlaps)), best_gt]
    match = np.where(best_iou > iou_threshold, best_gt, -1)
    claimed = set()
    for m in np.argsort(-overlaps.max(axis=0), kind="stable"):
        for flat in np.argsort(-overlaps[:, m], kind="stable"):
            if flat not in claimed:
                claimed.add(int(flat))
                match[flat] = m
                break
    return match.reshape(grid.image_shape + (grid.n_types,))


def test_assign_forced_anchors_match_sorting_oracle():
    # Small sub-threshold boxes, some coincident, so later vertebrae find
    # their best anchor claimed and must take the next unclaimed one.
    rng = np.random.default_rng(12)
    contested = 0
    for _ in range(60):
        nx, ny = (int(n) for n in rng.integers(3, 9, size=2))
        grid = generate_anchors((nx, ny), 1.0, scales_mm=(5.0, 7.0), ratios=(1.0, 2.0))
        gt = []
        for _ in range(int(rng.integers(2, 7))):
            if gt and rng.random() < 0.4:
                kps = gt[int(rng.integers(len(gt)))][0] + rng.choice([0.0, 0.25])
            else:
                kps = keypoints_for_box(*rng.uniform(0, [nx - 1, ny - 1]),
                                        *rng.uniform(0.5, 2.5, size=2))
            gt.append((kps, float(rng.uniform(0.5, 1.0))))
        targets = assign_targets(grid, gt)
        want = reference_matches(grid, gt)
        np.testing.assert_array_equal(targets.dense()[3], want)
        boxes = np.array([bbox_from_keypoints(k) for k, _ in gt])
        argmax = iou_matrix(anchor_boxes_flat(grid), boxes).argmax(axis=0)
        contested += len(set(argmax.tolist())) < len(gt)
    assert contested >= 10

    # Grids larger than the anchors, so IoU is computed on partial windows;
    # boxes reach up to 15 px past the image edges or lie wholly outside it.
    rng = np.random.default_rng(13)
    off_image = 0
    for _ in range(40):
        nx, ny = (int(n) for n in rng.integers(10, 41, size=2))
        grid = generate_anchors((nx, ny), 1.0, scales_mm=(5.0, 7.0), ratios=(1.0, 2.0))
        gt = []
        for _ in range(int(rng.integers(1, 7))):
            if gt and rng.random() < 0.3:
                kps = gt[int(rng.integers(len(gt)))][0] + rng.choice([0.0, 0.25])
            else:
                kps = keypoints_for_box(*rng.uniform(-15, [nx + 14, ny + 14]),
                                        *rng.uniform(0.5, 12.0, size=2))
            gt.append((kps, float(rng.uniform(0.5, 1.0))))
        targets = assign_targets(grid, gt)
        np.testing.assert_array_equal(targets.dense()[3], reference_matches(grid, gt))
        assert_targets_encode_matches(grid, gt, targets)
        for kps, _ in gt:
            x0, y0, x1, y1 = corners(bbox_from_keypoints(kps))
            off_image += x1 < 0 or y1 < 0 or x0 > nx - 1 or y0 > ny - 1
    assert off_image >= 5


def assert_targets_encode_matches(grid, gt, targets):
    """Positive anchors carry exactly the offsets of their vertebra from the anchor."""
    objectness, offsets, weights, matched = targets.dense()
    pos = np.argwhere(objectness == 1)
    assert np.array_equal(pos, np.argwhere(matched >= 0))
    assert np.all(offsets[objectness == 0] == 0)
    for ix, iy, t in pos:
        kps, g = gt[matched[ix, iy, t]]
        want = encode_one(kps, anchor_box(grid, ix, iy, t))
        assert np.array_equal(offsets[ix, iy, t], want)
        assert weights[ix, iy, t] == g


@pytest.mark.parametrize("centers", [
    [(-30.0, -30.0)],                          # no anchor near any vertebra
    [(10.0, 10.0), (-30.0, 5.0), (0.0, -40.0)],  # two vertebrae far off the image
])
def test_assign_off_image_vertebra_takes_lowest_unclaimed_anchor(centers):
    grid = generate_anchors((20, 20), 1.0, scales_mm=(4.0,), ratios=(1.0, 2.0))
    gt = [(keypoints_for_box(cx, cy, 4.0, 3.0), 0.9) for cx, cy in centers]
    targets = assign_targets(grid, gt)
    want = reference_matches(grid, gt)
    np.testing.assert_array_equal(targets.dense()[3], want)
    assert_targets_encode_matches(grid, gt, targets)
    off = [m for m, (cx, cy) in enumerate(centers) if cx < 0 or cy < 0]
    # all-zero IoU columns: the lowest flat indices go to them, in claim order
    assert sorted(want.ravel()[:len(off)].tolist()) == off


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 30), st.integers(1, 30),
       st.lists(st.tuples(st.floats(-15, 45), st.floats(-15, 45),
                          st.floats(0.5, 40), st.floats(0.5, 40)), min_size=1, max_size=9),
       st.lists(st.integers(0, 8), max_size=3),
       st.sampled_from([0.05, 0.3, 0.5, 0.7, 1.0]),
       st.sampled_from([(1.0, (5.0, 7.0), (1.0, 2.0)),
                        (0.7, detection.DEFAULT_SCALES_MM, detection.DEFAULT_RATIOS)]))
def test_assign_targets_equals_reference_property(nx, ny, boxes, repeats, threshold, anchor_set):
    # Four small anchor types on 1 mm pixels, or the 16 default ones on
    # 0.7 mm pixels; up to 12 vertebrae.  At threshold 1 no anchor passes,
    # so every forced claim comes from a vertebra's full block.
    spacing, scales, ratios = anchor_set
    grid = generate_anchors((nx, ny), spacing, scales_mm=scales, ratios=ratios)
    # repeated boxes make vertebrae contest the same best anchor
    boxes = boxes + [boxes[i % len(boxes)] for i in repeats]
    gt = [(keypoints_for_box(*box), 0.8) for box in boxes]
    targets = assign_targets(grid, gt, iou_threshold=threshold)
    np.testing.assert_array_equal(targets.dense()[3],
                                  reference_matches(grid, gt, iou_threshold=threshold))
    assert_targets_encode_matches(grid, gt, targets)


def test_assign_iou_at_the_threshold_stays_negative():
    # A 4 x 2 box centered on a 4 x 4 anchor: intersection 8, union 16, IoU
    # exactly 0.5.  The anchors one pixel above and below tie with it.
    grid = generate_anchors((11, 11), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    kps = keypoints_for_box(5.0, 5.0, 4.0, 2.0)
    for iy in (4, 5, 6):
        assert iou(anchor_box(grid, 5, iy, 0), bbox_from_keypoints(kps)) == 0.5
    # Strictly above 0.5 only: the one positive is the forced first tie, (5, 4).
    targets = assign_targets(grid, [(kps, 0.9)], iou_threshold=0.5)
    assert targets.index.tolist() == [5 * 11 + 4]
    assert assign_targets(grid, [(kps, 0.9)], iou_threshold=0.4999).index.tolist() == [
        5 * 11 + 4, 5 * 11 + 5, 5 * 11 + 6]


def test_assign_forced_claims_below_the_threshold_search_the_full_block():
    # Two vertebrae on the 4 x 2 box above: no IoU passes 0.5, so neither has
    # a candidate anchor.  Vertebra 0 takes the first tie, (5, 4); vertebra 1
    # finds it claimed and takes the next tie, (5, 5), from its full block.
    grid = generate_anchors((11, 11), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    kps = keypoints_for_box(5.0, 5.0, 4.0, 2.0)
    targets = assign_targets(grid, [(kps, 0.9), (kps, 0.8)], iou_threshold=0.5)
    assert targets.index.tolist() == [5 * 11 + 4, 5 * 11 + 5]
    assert targets.matched.tolist() == [0, 1]
    # Just below 0.5 the three ties pass.  Four vertebrae claim them in
    # order, and the fourth, finding all three claimed, takes the first
    # anchor of its full block at IoU 6 / 18: (4, 4).
    targets = assign_targets(grid, [(kps, 0.9)] * 4, iou_threshold=0.4999)
    assert targets.index.tolist() == [4 * 11 + 4, 5 * 11 + 4, 5 * 11 + 5, 5 * 11 + 6]
    assert targets.matched.tolist() == [3, 0, 1, 2]
    np.testing.assert_array_equal(targets.dense()[3],
                                  reference_matches(grid, [(kps, 0.9)] * 4, iou_threshold=0.4999))


def test_assign_more_vertebrae_than_anchors():
    grid = generate_anchors((1, 2), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    gt = [(keypoints_for_box(0.2 * k, 0.5, 1.0, 1.0), 0.9) for k in range(4)]
    targets = assign_targets(grid, gt)
    matched = targets.dense()[3]
    np.testing.assert_array_equal(matched, reference_matches(grid, gt))
    # both anchors claimed once, by two different vertebrae; the rest get none
    assert targets.n_positive == 2
    assert len(set(matched.ravel().tolist())) == 2


# ---------------------------------------------------------------------------
# loss and gradient (independent summation + finite-difference oracles)
# ---------------------------------------------------------------------------

def loss_oracle(pred_o, pred_e, targets, eps=1e-7):
    """Plain-python re-summation of the loss definition."""
    objectness, offsets, weights, _ = targets.dense()
    nx, ny, a = targets.shape
    bce_sum, n = 0.0, 0
    reg_sum, n_pos = 0.0, 0
    for ix in range(nx):
        for iy in range(ny):
            for t in range(a):
                o = objectness[ix, iy, t]
                p = min(max(pred_o[ix, iy, t], eps), 1 - eps)
                bce_sum += -(o * math.log(p) + (1 - o) * math.log(1 - p))
                n += 1
                if o == 1:
                    n_pos += 1
                    mae = 0.0
                    for k in range(6):
                        for c in range(2):
                            mae += abs(pred_e[ix, iy, t, k, c] - offsets[ix, iy, t, k, c])
                    reg_sum += (mae / 12.0) / weights[ix, iy, t]
    reg = reg_sum / n_pos if n_pos else 0.0
    return bce_sum / n, reg


def random_fixture(rng, nx=6, ny=7, n_gt=2, scales=(5.0,), ratios=(1.0, 2.0)):
    grid = generate_anchors((nx, ny), 1.0, scales_mm=scales, ratios=ratios)
    gt = []
    for _ in range(n_gt):
        cx, cy = rng.uniform(1, nx - 2), rng.uniform(1, ny - 2)
        gt.append((keypoints_for_box(cx, cy, rng.uniform(2, 5), rng.uniform(2, 5)),
                   float(rng.uniform(0.3, 1.0))))
    targets = assign_targets(grid, gt)
    _, offsets, _, _ = targets.dense()
    pred_o = rng.uniform(0.02, 0.98, targets.shape)
    pred_e = offsets + rng.uniform(0.01, 0.6, offsets.shape) \
        * rng.choice([-1.0, 1.0], offsets.shape)
    return grid, targets, pred_o, pred_e


def test_loss_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        _, targets, pred_o, pred_e = random_fixture(rng)
        got = detection_loss(pred_o, pred_e, targets)
        want = sum(loss_oracle(pred_o, pred_e, targets))
        assert got == pytest.approx(want, abs=1e-10)


def test_perfect_predictions_hit_clipping_floor():
    rng = np.random.default_rng(8)
    _, targets, _, _ = random_fixture(rng)
    objectness, offsets, _, _ = targets.dense()
    loss = detection_loss(objectness, offsets, targets)
    assert loss == pytest.approx(0.0, abs=1e-5)
    bce, reg = detection_loss_terms(objectness, offsets, targets)
    assert reg == 0.0
    assert 0 < bce < 1e-5


def test_halving_weights_doubles_regression_exactly():
    rng = np.random.default_rng(9)
    _, targets, pred_o, pred_e = random_fixture(rng)
    halved = DetectionTargets(targets.shape, targets.index, targets.matched,
                              targets.offsets, targets.genant_weights / 2)
    bce1, reg1 = detection_loss_terms(pred_o, pred_e, targets)
    bce2, reg2 = detection_loss_terms(pred_o, pred_e, halved)
    assert bce2 == bce1
    assert reg2 == 2.0 * reg1


def test_no_positive_anchors_zero_regression():
    grid = generate_anchors((5, 5), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    targets = assign_targets(grid, [])
    rng = np.random.default_rng(10)
    objectness, offsets, _, _ = targets.dense()
    pred_o = rng.uniform(0.1, 0.9, objectness.shape)
    bce, reg = detection_loss_terms(pred_o, rng.normal(size=offsets.shape), targets)
    assert reg == 0.0
    assert bce > 0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    _, targets, pred_o, pred_e = random_fixture(rng, nx=5, ny=5)
    grad_o, grad_e = detection_loss_grad(pred_o, pred_e, targets)
    h = 1e-5

    def fd(arr, idx, other_first):
        hi = arr.copy()
        lo = arr.copy()
        hi[idx] += h
        lo[idx] -= h
        if other_first:
            return (detection_loss(hi, pred_e, targets)
                    - detection_loss(lo, pred_e, targets)) / (2 * h)
        return (detection_loss(pred_o, hi, targets)
                - detection_loss(pred_o, lo, targets)) / (2 * h)

    flat = [np.unravel_index(i, pred_o.shape)
            for i in rng.choice(pred_o.size, 25, replace=False)]
    for idx in flat:
        want = fd(pred_o, idx, True)
        assert grad_o[idx] == pytest.approx(want, rel=1e-5, abs=1e-12)
    # offsets: fixture keeps |error| >= 0.01 so the step never crosses a kink
    flat_e = [np.unravel_index(i, pred_e.shape)
              for i in rng.choice(pred_e.size, 25, replace=False)]
    for idx in flat_e:
        want = fd(pred_e, idx, False)
        assert grad_e[idx] == pytest.approx(want, rel=1e-5, abs=1e-12)


def test_gradient_structure():
    rng = np.random.default_rng(12)
    _, targets, pred_o, pred_e = random_fixture(rng)
    grad_o, grad_e = detection_loss_grad(pred_o, pred_e, targets)
    objectness, offsets, weights, _ = targets.dense()
    n = objectness.size
    n_pos = targets.n_positive
    pos = objectness == 1
    # regression gradient is the signed unit weight 1/(12 * N+ * G_i)
    scale = 1.0 / (12 * n_pos * weights[pos])
    signs = np.sign(pred_e[pos] - offsets[pos])
    np.testing.assert_allclose(grad_e[pos], signs * scale[:, None, None], atol=1e-15)
    assert np.all(grad_e[~pos] == 0.0)
    # objectness gradient of a negative anchor at 0.5 is 2/N: the derivative
    # of -log(1 - p)/N at p = 0.5 (direct differentiation w.r.t. the
    # predicted probability, confirmed by the finite-difference check above)
    neg_idx = tuple(np.argwhere(~pos)[0])
    pred_half = pred_o.copy()
    pred_half[neg_idx] = 0.5
    g, _ = detection_loss_grad(pred_half, pred_e, targets)
    assert g[neg_idx] == pytest.approx(2.0 / n, rel=1e-12)
    # exact-match offsets sit on the subgradient choice 0
    g_o, g_e = detection_loss_grad(pred_o, offsets, targets)
    assert np.all(g_e == 0.0)


def test_gradient_zero_in_clipped_region():
    rng = np.random.default_rng(13)
    _, targets, pred_o, pred_e = random_fixture(rng)
    pred_o[0, 0, 0] = 1e-9   # below the clipping floor
    grad_o, _ = detection_loss_grad(pred_o, pred_e, targets)
    assert grad_o[0, 0, 0] == 0.0


# ---------------------------------------------------------------------------
# NMS and decoding
# ---------------------------------------------------------------------------

def nms_arrays(*cands):
    """(K, 4) boxes and (K,) scores of (score, cx, cy[, w, h]) candidates, each box
    the tight box of keypoints_for_box (w and h default to 4)."""
    boxes = [bbox_from_keypoints(keypoints_for_box(cx, cy, *wh or (4.0, 4.0)))
             for _, cx, cy, *wh in cands]
    return np.array(boxes).reshape(-1, 4), np.array([c[0] for c in cands], dtype=float)


def nms_oracle(boxes, scores, thr):
    """Kept indices of greedy NMS, highest score first, by the scalar IoU (the oracle)."""
    kept = []
    for i in sorted(range(len(scores)), key=lambda i: -scores[i]):
        if all(iou(boxes[i], boxes[j]) <= thr for j in kept):
            kept.append(i)
    return kept


def test_nms_empty_input():
    assert len(nms(np.empty((0, 4)), np.empty(0), 0.45)) == 0


def test_nms_single_candidate():
    assert nms(*nms_arrays((0.7, 5, 5)), 0.45).tolist() == [0]


def test_nms_identical_boxes_keep_higher_score():
    assert nms(*nms_arrays((0.8, 5, 5), (0.9, 5, 5)), 0.45).tolist() == [1]


def test_nms_returns_kept_indices_by_descending_score():
    boxes = np.array([[0.0, 0.0, 2, 2], [10, 0, 2, 2], [20, 0, 2, 2], [0.5, 0, 2, 2]])
    scores = np.array([0.5, 0.9, 0.5, 0.7])
    # ties (0.5) keep input order; box 0 is suppressed by box 3
    assert nms(boxes, scores, 0.3).tolist() == [1, 3, 2]


def test_nms_threshold_one_never_suppresses():
    # identical boxes whose rounded corners made IoU 1.0000000000000004
    box = [4.0, 0.0, 1.979651844293655, 1.0]
    boxes = np.array([box, box])
    assert nms(boxes, np.array([0.9, 0.8]), 1.0).tolist() == [0, 1]
    assert nms(boxes, np.array([0.9, 0.8]), 0.99).tolist() == [0]


def test_nms_chain_matches_bruteforce():
    # overlapping chain a-b-c where only b overlaps both neighbours
    chain = nms_arrays((0.9, 5.0, 5.0), (0.85, 7.5, 5.0), (0.95, 10.0, 5.0))
    assert nms(*chain, 0.3).tolist() == nms_oracle(*chain, 0.3)
    rng = np.random.default_rng(14)
    for _ in range(50):
        cands = nms_arrays(*[(float(rng.uniform(0, 1)), float(rng.uniform(0, 20)),
                              float(rng.uniform(0, 20)), float(rng.uniform(2, 8)),
                              float(rng.uniform(2, 8))) for _ in range(12)])
        assert nms(*cands, 0.4).tolist() == nms_oracle(*cands, 0.4)


# Integer centers and sides on a small grid and three score levels, so equal
# scores, identical boxes and IoU exactly at a threshold are common.
grid_boxes = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                 st.integers(1, 5), st.integers(1, 5)), max_size=40)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grid_boxes, st.data(), st.sampled_from((0.1, 0.45, 0.5, 0.9, 1.0)))
def test_nms_equals_oracle_on_tie_heavy_boxes(rows, data, thr):
    boxes = np.array(rows, dtype=float).reshape(-1, 4)
    scores = np.array(data.draw(st.lists(st.sampled_from((0.2, 0.5, 0.9)),
                                         min_size=len(rows), max_size=len(rows))), dtype=float)
    assert nms(boxes, scores, thr).tolist() == nms_oracle(boxes, scores.tolist(), thr)


def test_nms_keeps_every_disjoint_box():
    boxes = np.array([[3.0 * i, 0.0, 2.0, 2.0] for i in range(500)])
    scores = np.random.default_rng(17).uniform(size=500)
    assert nms(boxes, scores, 0.45).tolist() == np.argsort(-scores, kind="stable").tolist()


def test_nms_identical_boxes():
    boxes = np.tile([5.0, 5.0, 4.0, 3.0], (200, 1))
    scores = np.full(200, 0.5)
    assert nms(boxes, scores, 0.45).tolist() == [0]
    assert nms(boxes, scores, 1.0).tolist() == list(range(200))


def test_nms_iou_equal_to_threshold_does_not_suppress():
    boxes = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 1.0]])  # IoU 2 / 4
    assert iou_matrix(boxes[:1], boxes[1:])[0, 0] == 0.5
    assert nms(boxes, np.array([0.9, 0.8]), 0.5).tolist() == [0, 1]
    assert nms(boxes, np.array([0.9, 0.8]), 0.45).tolist() == [0]


@pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 5), (3, 4, 1), ()])
def test_nms_refuses_boxes_not_k_by_4(shape):
    with pytest.raises(ValueError, match="boxes"):
        nms(np.ones(shape), np.ones(3), 0.45)


@pytest.mark.parametrize("shape", [(2,), (4,), (0,), (3, 1), ()])
def test_nms_refuses_scores_that_do_not_match_boxes(shape):
    # Two scores for three boxes once kept [0] and never tested box 2.
    boxes, _ = nms_arrays((0.9, 0, 0), (0.8, 10, 0), (0.7, 20, 0))
    with pytest.raises(ValueError, match="scores"):
        nms(boxes, np.ones(shape), 0.45)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
def test_nms_refuses_non_finite_scores(score):
    # A NaN score once ranked last: nms kept [1, 2] and dropped box 0 without a word.
    boxes = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 2.0], [10.0, 10.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match="scores"):
        nms(boxes, np.array([score, 0.5, 0.4]), 0.45)


# The ranges PipelineConfig enforces on objectness_threshold and nms_iou.
BAD_IOU_THRESHOLDS = (float("nan"), -0.5, 0.0, 1.5)
BAD_SCORE_THRESHOLDS = (float("nan"), -1.0, 1.5)


@pytest.mark.parametrize("value", BAD_IOU_THRESHOLDS)
def test_nms_refuses_iou_threshold_out_of_range(value):
    # NaN once kept every box and -0.5 suppressed disjoint ones.
    boxes, scores = nms_arrays((0.9, 0, 0), (0.8, 10, 0), (0.7, 20, 0))
    with pytest.raises(ValueError, match="iou_threshold"):
        nms(boxes, scores, value)


@pytest.mark.parametrize("name, value", [("iou_threshold", v) for v in BAD_IOU_THRESHOLDS]
                         + [("score_threshold", v) for v in BAD_SCORE_THRESHOLDS])
def test_detect_refuses_thresholds_out_of_range(name, value):
    # A NaN score_threshold once returned no detection and -1.0 decoded every
    # anchor, ending in "keypoints have zero extent".
    grid = generate_anchors((30, 10), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    gt = [(keypoints_for_box(cx, 5.0, 4.0, 4.0), 0.9) for cx in (5.0, 15.0, 25.0)]
    targets = assign_targets(grid, gt)
    obj, off, _, _ = targets.dense()
    thresholds = {"score_threshold": 0.5, "iou_threshold": 0.45, name: value}
    with pytest.raises(ValueError, match=name):
        detect(obj, off, grid, **thresholds)
    with pytest.raises(ValueError, match=name):
        detect_candidates(targets.index, np.ones(targets.n_positive), targets.offsets, grid,
                          **thresholds)


@pytest.mark.parametrize("shape", [(2, 6, 2), (4, 6, 2), (3, 5, 2), (3, 12)])
def test_detect_candidates_refuses_offsets_of_another_shape(shape):
    # (2, 6, 2) offsets for 3 scores once ended in numpy's boolean-index IndexError.
    grid = generate_anchors((4, 3), 1.0, scales_mm=(3.0,), ratios=(1.0,))
    with pytest.raises(ValueError, match=r"^offsets has shape .*expected \(3, 6, 2\)"):
        detect_candidates(np.arange(3), np.ones(3), np.zeros(shape), grid)


def test_detect_oracle_round_trip():
    grid = generate_anchors((30, 40), 1.0, scales_mm=(8.0, 10.0), ratios=(1.0,))
    gt = [(keypoints_for_box(14.0, 8.0, 8.0, 7.0), 0.9),
          (keypoints_for_box(15.0, 24.0, 9.0, 8.0), 0.7)]
    objectness, offsets, _, _ = assign_targets(grid, gt).dense()
    got, _ = detect(objectness, offsets, grid)
    assert len(got) == 2
    for d, (kps, _) in zip(sorted(got, key=lambda k: bbox_from_keypoints(k)[1]), gt):
        assert np.max(np.abs(d - kps)) < 1e-6


def detect_reference(obj, off, grid, iou_threshold):
    """Per-candidate decode -> bbox_from_keypoints -> greedy NMS (the oracle):
    the kept (K, 6, 2) keypoints and (K,) scores in keep order."""
    kps = np.array([decode_one(off[ix, iy, t], anchor_box(grid, ix, iy, t))
                    for ix, iy, t in np.argwhere(obj > 0.5).tolist()]).reshape(-1, 6, 2)
    scores = obj[obj > 0.5]
    boxes = np.array([bbox_from_keypoints(k) for k in kps]).reshape(-1, 4)
    keep = nms_oracle(boxes, scores.tolist(), iou_threshold)
    return kps[keep], scores[keep]


def test_detect_matches_per_candidate_oracle():
    rng = np.random.default_rng(15)
    for k in range(30):
        nx, ny = (int(n) for n in rng.integers(6, 30, size=2))
        grid = generate_anchors((nx, ny), 1.0, scales_mm=(5.0, 8.0), ratios=(1.0, 1.5))
        # few distinct scores, so tied candidates are common
        obj = rng.choice([0.1, 0.6, 0.7, 0.9], size=(nx, ny, grid.n_types),
                         p=[0.7, 0.1, 0.1, 0.1])
        off = rng.normal(0.0, 0.4, size=(nx, ny, grid.n_types, 6, 2))
        thr = (0.2, 0.45, 0.7)[k % 3]
        (got_kps, got_scores), (want_kps, want_scores) = (
            detect(obj, off, grid, iou_threshold=thr), detect_reference(obj, off, grid, thr))
        assert len(got_scores) == len(want_scores) > 0
        assert got_scores.tobytes() == want_scores.tobytes()
        assert got_kps.tobytes() == want_kps.tobytes()


def test_detect_on_float32_fortran_views_equals_float64_c_arrays():
    # Prediction maps read from a VG1 raster are float32 views of one
    # Fortran-ordered (nx, ny, 13A) array.
    rng = np.random.default_rng(21)
    nx, ny = 25, 19
    grid = generate_anchors((nx, ny), 1.0, scales_mm=(5.0, 8.0), ratios=(1.0, 1.5))
    a = grid.n_types
    obj = rng.choice([0.1, 0.3, 0.6, 0.9], size=(nx, ny, a)).astype(np.float32)
    off = rng.normal(0.0, 0.4, size=(nx, ny, a, 6, 2)).astype(np.float32)
    raster = np.asfortranarray(np.concatenate([obj, off.reshape(nx, ny, 12 * a)], axis=2))
    obj_view = raster[:, :, :a]
    off_view = raster[:, :, a:].reshape(nx, ny, a, 6, 2)
    assert np.shares_memory(off_view, raster)
    for thr in (0.3, 0.45):
        for score_threshold in (0.3, 0.5):
            got_kps, got_scores = detect(obj_view, off_view, grid, score_threshold, thr)
            want_kps, want_scores = detect(obj.astype(float), off.astype(float), grid,
                                           score_threshold, thr)
            assert len(got_scores) == len(want_scores) > 0
            assert got_scores.tobytes() == want_scores.tobytes()
            assert got_kps.tobytes() == want_kps.tobytes()


def test_detect_refuses_a_negative_score_threshold_before_gathering():
    # -1.0 selects every anchor: gathering their float32 offsets would take
    # 7.7 MB here and 29 MB on the default phantom before the refusal.
    grid = generate_anchors((100, 100), 1.0)
    obj = np.zeros((100, 100, grid.n_types), dtype=np.float32)
    off = np.zeros(obj.shape + (6, 2), dtype=np.float32)

    def refuse():
        with pytest.raises(ValueError, match="score_threshold"):
            detect(obj, off, grid, score_threshold=-1.0)

    _, peak = traced_peak(refuse)
    assert peak < 3e6  # the float64 objectness map is 1.3 MB


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data(), st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((0.3, 0.45, 1.0)),
       st.booleans())
def test_detect_candidates_equals_detect_on_maps(data, score_threshold, iou_threshold, vg1):
    # Sparse maps with tied scores: the anchors a record holds, given to
    # detect_candidates, and the same anchors written into zeroed maps for
    # detect.  With vg1, both are float32 and the maps are views of one
    # Fortran-ordered raster.
    grid = generate_anchors((9, 7), 1.0, scales_mm=(4.0, 6.0), ratios=(1.0, 1.5))
    shape, a = (9, 7, grid.n_types), grid.n_types
    index = np.array(sorted(data.draw(st.sets(st.integers(0, grid.n_anchors - 1),
                                              max_size=40))), dtype=np.int64)
    scores = np.array(data.draw(st.lists(st.sampled_from((0.2, 0.5, 0.9, 1.0)),
                                         min_size=len(index), max_size=len(index))))
    offsets = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(
        0.0, 0.4, (len(index), 6, 2))
    dtype = np.float32 if vg1 else np.float64
    scores, offsets = scores.astype(dtype), offsets.astype(dtype)
    obj = np.zeros(shape, dtype)
    obj.flat[index] = scores
    off = np.zeros(shape + (6, 2), dtype)
    off.reshape(-1, 6, 2)[index] = offsets
    if vg1:
        raster = np.asfortranarray(np.concatenate([obj, off.reshape(9, 7, 12 * a)], axis=2))
        obj, off = raster[:, :, :a], raster[:, :, a:].reshape(shape + (6, 2))
    got_kps, got_scores = detect_candidates(index, scores, offsets, grid,
                                            score_threshold, iou_threshold)
    want_kps, want_scores = detect(obj, off, grid, score_threshold, iou_threshold)
    assert got_scores.tobytes() == want_scores.tobytes()
    assert got_kps.tobytes() == want_kps.tobytes()
    assert got_kps.shape == (len(got_scores), 6, 2)


def test_only_anchor_grid_locate_indexes_sides_by_type():
    # One codec: every (ix, iy, type) -> (center, sides) lookup goes through locate.
    gather = re.compile(r"sides_px(\[|\.take\()")
    package = Path(detection.__file__).parent
    hits = sum(len(gather.findall(path.read_text())) for path in package.glob("*.py"))
    assert hits == len(gather.findall(inspect.getsource(AnchorGrid.locate))) == 1


@pytest.mark.parametrize("loss", [detection_loss, detection_loss_terms, detection_loss_grad])
def test_the_loss_clips_at_bce_eps_only(loss):
    # An eps argument once inverted the clip range at 0.7 without a word.
    targets = positive_targets()
    with pytest.raises(TypeError):
        loss(np.full(targets.shape, 0.7), np.zeros(targets.shape + (6, 2)), targets, eps=0.7)


def test_loss_does_not_depend_on_memory_layout():
    # At this size a sum in Fortran order rounds differently from one in C order.
    _, targets, pred_o, pred_e = random_fixture(np.random.default_rng(0), nx=121, ny=316,
                                                n_gt=3)
    for dtype in (np.float64, np.float32):
        o, e = pred_o.astype(dtype), pred_e.astype(dtype)
        want = detection_loss_terms(o, e, targets)
        assert detection_loss_terms(np.asfortranarray(o), np.asfortranarray(e),
                                    targets) == want


def test_detect_bad_keypoints_raise():
    grid = generate_anchors((6, 6), 1.0, scales_mm=(5.0,), ratios=(1.0,))
    obj = np.zeros((6, 6, 1))
    obj[2, 3, 0] = 0.9
    off = np.random.default_rng(16).normal(0.0, 0.4, size=(6, 6, 1, 6, 2))
    flat = off.copy()
    flat[2, 3, 0, :, 0] = 0.1  # zero extent along x
    with pytest.raises(GeometryError):
        detect(obj, flat, grid)
    # a non-finite offset on an anchor below the threshold is never decoded
    off[0, 0, 0, 0, 0] = np.inf
    assert len(detect(obj, off, grid)[1]) == 1
    off[2, 3, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        detect(obj, off, grid)


def test_detect_all_zero_objectness():
    grid = generate_anchors((10, 10), 1.0, scales_mm=(5.0,), ratios=(1.0,))
    kps, scores = detect(np.zeros((10, 10, 1)), np.zeros((10, 10, 1, 6, 2)), grid)
    assert kps.shape == (0, 6, 2) and scores.shape == (0,)


def test_detect_duplicate_anchors_collapse():
    grid = generate_anchors((20, 20), 1.0, scales_mm=(8.0,), ratios=(1.0,))
    kps = keypoints_for_box(10.0, 10.0, 8.0, 8.0)
    obj = np.zeros((20, 20, 1))
    off = np.zeros((20, 20, 1, 6, 2))
    for pos in ((10, 10), (10, 11), (11, 10)):
        obj[pos[0], pos[1], 0] = 0.9
        off[pos[0], pos[1], 0] = encode_one(kps, anchor_box(grid, pos[0], pos[1], 0))
    got, _ = detect(obj, off, grid)
    assert len(got) == 1
    assert np.max(np.abs(got[0] - kps)) < 1e-9


def test_detect_shape_mismatch():
    grid = generate_anchors((10, 10), 1.0, scales_mm=(5.0,), ratios=(1.0,))
    with pytest.raises(ValueError):
        detect(np.zeros((9, 10, 1)), np.zeros((10, 10, 1, 6, 2)), grid)
    with pytest.raises(ValueError):
        detect(np.zeros((10, 10, 1)), np.zeros((10, 10, 2, 6, 2)), grid)
    # the offsets come in one shape, (nx, ny, A, 6, 2), never as flat planes
    with pytest.raises(ValueError):
        detect(np.zeros((10, 10, 1)), np.zeros((10, 10, 1, 12)), grid)
    targets = assign_targets(grid, [])
    with pytest.raises(ValueError):
        detection_loss(np.zeros((10, 10, 1)), np.zeros((10, 10, 1, 12)), targets)
