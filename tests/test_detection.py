import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinequant.core import Box2D, GeometryError, bbox_from_keypoints, iou, iou_matrix
from spinequant.detection import (Detection, assign_targets, decode_keypoints,
                                  detect, detection_loss, detection_loss_grad,
                                  detection_loss_terms, encode_keypoints,
                                  generate_anchors, nms)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_anchor_unit_ratio_square():
    grid = generate_anchors((10, 10), pixel_spacing=2.0, scales_mm=(20.0,), ratios=(1.0,))
    assert grid.widths_px[0] == pytest.approx(10.0)   # 20 mm at 2 mm/px
    assert grid.heights_px[0] == pytest.approx(10.0)


def test_anchor_ratio_four_splits_sides():
    # ratio = h/w and scale = sqrt(w*h): w = 20/sqrt(4) = 10 mm, h = 20*2 = 40 mm
    grid = generate_anchors((6, 6), pixel_spacing=1.0, scales_mm=(20.0,), ratios=(4.0,))
    assert grid.widths_px[0] == pytest.approx(10.0)
    assert grid.heights_px[0] == pytest.approx(40.0)
    assert grid.widths_px[0] * grid.heights_px[0] == pytest.approx(400.0)


def test_anchor_count():
    grid = generate_anchors((10, 10), 1.0)
    assert grid.n_types == 16
    assert grid.n_anchors == 1600
    assert grid.boxes_flat().shape == (1600, 4)


def test_anchor_grid_rejects_zero_side():
    for shape in ((0, 5), (5, 0)):
        with pytest.raises(ValueError):
            generate_anchors(shape, 1.0)


def test_anchor_grid_rejects_sides_that_overflow():
    # 80 mm over pixels of 3e-308 mm is beyond float range.
    with pytest.raises(GeometryError, match="overflow"):
        generate_anchors((5, 5), 3e-308)


def test_anchor_boxes_flat_matches_indexing():
    grid = generate_anchors((4, 3), 1.0, scales_mm=(10.0, 14.0), ratios=(1.0, 2.0))
    flat = grid.boxes_flat()
    centers, sides = grid.centers_and_sides()
    a = grid.n_types
    assert centers.shape == sides.shape == (4, 3, a, 2)
    assert not centers.flags.writeable and not sides.flags.writeable
    for ix in range(4):
        for iy in range(3):
            for t in range(a):
                row = flat[(ix * 3 + iy) * a + t]
                box = grid.box(ix, iy, t)
                assert tuple(row) == (box.cx, box.cy, box.w, box.h)
                assert tuple(centers[ix, iy, t]) == (box.cx, box.cy)
                assert tuple(sides[ix, iy, t]) == (box.w, box.h)


# ---------------------------------------------------------------------------
# keypoint encoding (the shift/scale invariant offsets)
# ---------------------------------------------------------------------------

def test_encode_at_anchor_center_is_zero():
    anchor = Box2D(10.0, 20.0, 4.0, 8.0)
    kps = np.tile([10.0, 20.0], (6, 1))
    assert np.all(encode_keypoints(kps, anchor) == 0.0)


def test_encode_hand_example():
    anchor = Box2D(10.0, 20.0, 4.0, 8.0)
    kps = np.tile([12.0, 24.0], (6, 1))
    np.testing.assert_allclose(encode_keypoints(kps, anchor), np.tile([0.5, 0.5], (6, 1)))


def test_decode_hand_example_and_zero():
    anchor = Box2D(10.0, 20.0, 4.0, 8.0)
    np.testing.assert_allclose(decode_keypoints(np.tile([0.5, 0.5], (6, 1)), anchor),
                               np.tile([12.0, 24.0], (6, 1)))
    np.testing.assert_allclose(decode_keypoints(np.zeros((6, 2)), anchor),
                               np.tile([10.0, 20.0], (6, 1)))


def test_encode_decode_round_trip_random():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        anchor = Box2D(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 60, 2))
        kps = rng.uniform(-100, 100, (6, 2))
        back = decode_keypoints(encode_keypoints(kps, anchor), anchor)
        worst = max(worst, float(np.max(np.abs(back - kps))))
    assert worst < 1e-9


coords = st.floats(-500, 500)
sides = st.floats(0.5, 100)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.tuples(coords, coords, sides, sides),
       st.lists(st.tuples(coords, coords), min_size=6, max_size=6),
       st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), min_size=6, max_size=6))
def test_encode_decode_round_trip_property(anchor, kps, offsets):
    anchor = Box2D(*anchor)
    kps, offsets = np.array(kps), np.array(offsets)
    np.testing.assert_allclose(decode_keypoints(encode_keypoints(kps, anchor), anchor), kps,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(encode_keypoints(decode_keypoints(offsets, anchor), anchor),
                               offsets, rtol=0, atol=1e-9)


def test_encode_shift_invariance_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        anchor = Box2D(*rng.integers(-40, 40, 2).astype(float),
                       *rng.integers(1, 30, 2).astype(float))
        kps = rng.integers(-64, 64, (6, 2)).astype(float)
        base = encode_keypoints(kps, anchor)
        # integer-valued shifts keep the identity exact in floating point
        shift = rng.integers(-1000, 1000, 2).astype(float)
        moved = Box2D(anchor.cx + shift[0], anchor.cy + shift[1], anchor.w, anchor.h)
        assert np.array_equal(encode_keypoints(kps + shift, moved), base)


def test_encode_joint_scale_invariance_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        anchor = Box2D(*rng.uniform(-40, 40, 2), *rng.uniform(0.5, 30, 2))
        kps = rng.uniform(-64, 64, (6, 2))
        base = encode_keypoints(kps, anchor)
        lam = float(2.0 ** rng.integers(-6, 7))  # powers of two scale exactly
        scaled = Box2D(lam * anchor.cx, lam * anchor.cy, lam * anchor.w, lam * anchor.h)
        assert np.array_equal(encode_keypoints(lam * kps, scaled), base)


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
    targets = assign_targets(grid, [(kps, 0.9)])
    assert targets.objectness[5, 5, 0] == 1.0
    assert targets.genant_weights[5, 5, 0] == 0.9
    np.testing.assert_allclose(targets.offsets[5, 5, 0],
                               encode_keypoints(kps, grid.box(5, 5, 0)))
    # anchors far away stay negative
    assert targets.objectness[0, 0, 0] == 0.0
    assert targets.matched[0, 0, 0] == -1


def test_assign_empty_ground_truth():
    grid = generate_anchors((8, 8), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    targets = assign_targets(grid, [])
    assert targets.n_positive == 0
    assert np.all(targets.matched == -1)
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
    ious = np.array([[iou(grid.box(ix, iy, 0), gt_box) for iy in range(15)]
                     for ix in range(15)])
    best_iou = ious.max()
    assert best_iou < 0.5
    ties = np.argwhere(ious == best_iou)
    chosen = np.argwhere(targets.objectness[:, :, 0] == 1.0)
    assert len(chosen) == 1
    assert tuple(chosen[0]) == tuple(ties[0])
    assert targets.matched[chosen[0][0], chosen[0][1], 0] == 0


def test_assign_every_gt_gets_an_anchor_and_no_double_claims():
    rng = np.random.default_rng(5)
    grid = generate_anchors((40, 60), 1.0, scales_mm=(8.0, 12.0), ratios=(1.0, 1.5))
    gt = []
    for k in range(6):
        cx, cy = rng.uniform(6, 34), 8.0 + 9.0 * k
        gt.append((keypoints_for_box(cx, cy, rng.uniform(5, 12), rng.uniform(5, 9)),
                   float(rng.uniform(0.5, 1.0))))
    targets = assign_targets(grid, gt)
    for m in range(len(gt)):
        assert np.any(targets.matched == m), f"vertebra {m} unmatched"
    pos = targets.objectness == 1
    assert np.all(targets.matched[pos] >= 0)
    assert np.all(targets.matched[~pos] == -1)
    assert np.all(targets.genant_weights[pos] > 0)


def reference_matches(grid, gt, iou_threshold=0.5):
    """Anchor matches by the full stable-argsort claim loop (the oracle)."""
    boxes = np.array([bbox_from_keypoints(kps).as_array() for kps, _ in gt])
    overlaps = iou_matrix(grid.boxes_flat(), boxes)
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
        np.testing.assert_array_equal(targets.matched, want)
        boxes = np.array([bbox_from_keypoints(k).as_array() for k, _ in gt])
        argmax = iou_matrix(grid.boxes_flat(), boxes).argmax(axis=0)
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
        np.testing.assert_array_equal(targets.matched, reference_matches(grid, gt))
        assert_targets_encode_matches(grid, gt, targets)
        for kps, _ in gt:
            x0, y0, x1, y1 = bbox_from_keypoints(kps).corners
            off_image += x1 < 0 or y1 < 0 or x0 > nx - 1 or y0 > ny - 1
    assert off_image >= 5


def assert_targets_encode_matches(grid, gt, targets):
    """Positive anchors carry exactly encode_keypoints of their vertebra."""
    pos = np.argwhere(targets.objectness == 1)
    assert np.array_equal(pos, np.argwhere(targets.matched >= 0))
    assert np.all(targets.offsets[targets.objectness == 0] == 0)
    for ix, iy, t in pos:
        kps, g = gt[targets.matched[ix, iy, t]]
        want = encode_keypoints(kps, grid.box(int(ix), int(iy), int(t)))
        assert np.array_equal(targets.offsets[ix, iy, t], want)
        assert targets.genant_weights[ix, iy, t] == g


@pytest.mark.parametrize("centers", [
    [(-30.0, -30.0)],                          # no anchor near any vertebra
    [(10.0, 10.0), (-30.0, 5.0), (0.0, -40.0)],  # two vertebrae far off the image
])
def test_assign_off_image_vertebra_takes_lowest_unclaimed_anchor(centers):
    grid = generate_anchors((20, 20), 1.0, scales_mm=(4.0,), ratios=(1.0, 2.0))
    gt = [(keypoints_for_box(cx, cy, 4.0, 3.0), 0.9) for cx, cy in centers]
    targets = assign_targets(grid, gt)
    want = reference_matches(grid, gt)
    np.testing.assert_array_equal(targets.matched, want)
    assert_targets_encode_matches(grid, gt, targets)
    off = [m for m, (cx, cy) in enumerate(centers) if cx < 0 or cy < 0]
    # all-zero IoU columns: the lowest flat indices go to them, in claim order
    assert sorted(want.ravel()[:len(off)].tolist()) == off


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 30), st.integers(1, 30),
       st.lists(st.tuples(st.floats(-15, 45), st.floats(-15, 45),
                          st.floats(0.5, 12), st.floats(0.5, 12)), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), max_size=3),
       st.sampled_from([0.3, 0.5, 0.7]))
def test_assign_targets_equals_reference_property(nx, ny, boxes, repeats, threshold):
    grid = generate_anchors((nx, ny), 1.0, scales_mm=(5.0, 7.0), ratios=(1.0, 2.0))
    # repeated boxes make vertebrae contest the same best anchor
    boxes = boxes + [boxes[i % len(boxes)] for i in repeats]
    gt = [(keypoints_for_box(*box), 0.8) for box in boxes]
    targets = assign_targets(grid, gt, iou_threshold=threshold)
    np.testing.assert_array_equal(targets.matched,
                                  reference_matches(grid, gt, iou_threshold=threshold))
    assert_targets_encode_matches(grid, gt, targets)


def test_assign_more_vertebrae_than_anchors():
    grid = generate_anchors((1, 2), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    gt = [(keypoints_for_box(0.2 * k, 0.5, 1.0, 1.0), 0.9) for k in range(4)]
    targets = assign_targets(grid, gt)
    np.testing.assert_array_equal(targets.matched, reference_matches(grid, gt))
    # both anchors claimed once, by two different vertebrae; the rest get none
    assert targets.n_positive == 2
    assert len(set(targets.matched.ravel().tolist())) == 2


# ---------------------------------------------------------------------------
# loss and gradient (independent summation + finite-difference oracles)
# ---------------------------------------------------------------------------

def loss_oracle(pred_o, pred_e, targets, eps=1e-7):
    """Plain-python re-summation of the loss definition."""
    nx, ny, a = targets.objectness.shape
    bce_sum, n = 0.0, 0
    reg_sum, n_pos = 0.0, 0
    for ix in range(nx):
        for iy in range(ny):
            for t in range(a):
                o = targets.objectness[ix, iy, t]
                p = min(max(pred_o[ix, iy, t], eps), 1 - eps)
                bce_sum += -(o * math.log(p) + (1 - o) * math.log(1 - p))
                n += 1
                if o == 1:
                    n_pos += 1
                    mae = 0.0
                    for k in range(6):
                        for c in range(2):
                            mae += abs(pred_e[ix, iy, t, k, c]
                                       - targets.offsets[ix, iy, t, k, c])
                    reg_sum += (mae / 12.0) / targets.genant_weights[ix, iy, t]
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
    pred_o = rng.uniform(0.02, 0.98, targets.objectness.shape)
    pred_e = targets.offsets + rng.uniform(0.01, 0.6, targets.offsets.shape) \
        * rng.choice([-1.0, 1.0], targets.offsets.shape)
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
    loss = detection_loss(targets.objectness, targets.offsets, targets)
    assert loss == pytest.approx(0.0, abs=1e-5)
    bce, reg = detection_loss_terms(targets.objectness, targets.offsets, targets)
    assert reg == 0.0
    assert 0 < bce < 1e-5


def test_halving_weights_doubles_regression_exactly():
    rng = np.random.default_rng(9)
    _, targets, pred_o, pred_e = random_fixture(rng)
    from spinequant.detection import DetectionTargets

    halved = DetectionTargets(targets.objectness, targets.offsets,
                              targets.genant_weights / 2, targets.matched)
    bce1, reg1 = detection_loss_terms(pred_o, pred_e, targets)
    bce2, reg2 = detection_loss_terms(pred_o, pred_e, halved)
    assert bce2 == bce1
    assert reg2 == 2.0 * reg1


def test_no_positive_anchors_zero_regression():
    grid = generate_anchors((5, 5), 1.0, scales_mm=(4.0,), ratios=(1.0,))
    targets = assign_targets(grid, [])
    rng = np.random.default_rng(10)
    pred_o = rng.uniform(0.1, 0.9, targets.objectness.shape)
    bce, reg = detection_loss_terms(pred_o, rng.normal(size=targets.offsets.shape), targets)
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
    n = targets.objectness.size
    n_pos = targets.n_positive
    pos = targets.objectness == 1
    # regression gradient is the signed unit weight 1/(12 * N+ * G_i)
    scale = 1.0 / (12 * n_pos * targets.genant_weights[pos])
    signs = np.sign(pred_e[pos] - targets.offsets[pos])
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
    g_o, g_e = detection_loss_grad(pred_o, targets.offsets, targets)
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

def det(score, cx, cy, w=4.0, h=4.0):
    kps = keypoints_for_box(cx, cy, w, h)
    return Detection(score, bbox_from_keypoints(kps), kps)


def nms_oracle(cands, thr):
    order = sorted(range(len(cands)), key=lambda i: -cands[i].score)
    kept = []
    for i in order:
        if all(iou(cands[i].box, cands[j].box) <= thr for j in kept):
            kept.append(i)
    return [cands[i] for i in kept]


def nms_arrays(cands):
    return np.array([d.box.as_array() for d in cands]), np.array([d.score for d in cands])


def test_nms_empty_input():
    assert len(nms(np.empty((0, 4)), np.empty(0), 0.45)) == 0


def test_nms_single_candidate():
    assert nms(*nms_arrays([det(0.7, 5, 5)]), 0.45).tolist() == [0]


def test_nms_identical_boxes_keep_higher_score():
    assert nms(*nms_arrays([det(0.8, 5, 5), det(0.9, 5, 5)]), 0.45).tolist() == [1]


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
    chain = [det(0.9, 5.0, 5.0), det(0.85, 7.5, 5.0), det(0.95, 10.0, 5.0)]
    got = [chain[i] for i in nms(*nms_arrays(chain), 0.3)]
    want = nms_oracle(chain, 0.3)
    assert [d.score for d in got] == [d.score for d in want]
    rng = np.random.default_rng(14)
    for _ in range(50):
        cands = [det(float(rng.uniform(0, 1)), float(rng.uniform(0, 20)),
                     float(rng.uniform(0, 20)), float(rng.uniform(2, 8)),
                     float(rng.uniform(2, 8))) for _ in range(12)]
        got = [cands[i] for i in nms(*nms_arrays(cands), 0.4)]
        want = nms_oracle(cands, 0.4)
        assert [id(d) for d in got] == [id(d) for d in want]


def test_detect_oracle_round_trip():
    grid = generate_anchors((30, 40), 1.0, scales_mm=(8.0, 10.0), ratios=(1.0,))
    gt = [(keypoints_for_box(14.0, 8.0, 8.0, 7.0), 0.9),
          (keypoints_for_box(15.0, 24.0, 9.0, 8.0), 0.7)]
    targets = assign_targets(grid, gt)
    dets = detect(targets.objectness, targets.offsets, grid)
    assert len(dets) == 2
    dets = sorted(dets, key=lambda d: d.box.cy)
    for d, (kps, _) in zip(dets, gt):
        assert np.max(np.abs(d.keypoints - kps)) < 1e-6


def detect_reference(obj, off, grid, iou_threshold):
    """Per-candidate decode -> bbox_from_keypoints -> greedy NMS (the oracle)."""
    cands = []
    for ix, iy, t in zip(*np.nonzero(obj > 0.5)):
        kps = decode_keypoints(off[ix, iy, t], grid.box(int(ix), int(iy), int(t)))
        cands.append(Detection(float(obj[ix, iy, t]), bbox_from_keypoints(kps), kps))
    return nms_oracle(cands, iou_threshold)


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
        got = detect(obj, off, grid, iou_threshold=thr)
        want = detect_reference(obj, off, grid, thr)
        assert len(got) == len(want) > 0
        for d, w in zip(got, want):
            assert d.score == w.score
            assert d.box.as_array().tobytes() == w.box.as_array().tobytes()
            assert d.keypoints.tobytes() == w.keypoints.tobytes()


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
            got = detect(obj_view, off_view, grid, score_threshold, thr)
            want = detect(obj.astype(float), off.astype(float), grid, score_threshold, thr)
            assert len(got) == len(want) > 0
            for d, w in zip(got, want):
                assert d.score == w.score
                assert d.box == w.box
                assert d.keypoints.tobytes() == w.keypoints.tobytes()


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
    assert len(detect(obj, off, grid)) == 1
    off[2, 3, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        detect(obj, off, grid)


def test_detect_all_zero_objectness():
    grid = generate_anchors((10, 10), 1.0, scales_mm=(5.0,), ratios=(1.0,))
    dets = detect(np.zeros((10, 10, 1)), np.zeros((10, 10, 1, 6, 2)), grid)
    assert dets == []


def test_detect_duplicate_anchors_collapse():
    grid = generate_anchors((20, 20), 1.0, scales_mm=(8.0,), ratios=(1.0,))
    kps = keypoints_for_box(10.0, 10.0, 8.0, 8.0)
    obj = np.zeros((20, 20, 1))
    off = np.zeros((20, 20, 1, 6, 2))
    for pos in ((10, 10), (10, 11), (11, 10)):
        obj[pos[0], pos[1], 0] = 0.9
        off[pos[0], pos[1], 0] = encode_keypoints(kps, grid.box(pos[0], pos[1], 0))
    dets = detect(obj, off, grid)
    assert len(dets) == 1
    assert np.max(np.abs(dets[0].keypoints - kps)) < 1e-9


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
