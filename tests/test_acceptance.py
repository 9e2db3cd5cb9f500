"""Acceptance gate: one test per criterion, each printed PASS/FAIL at the end.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary lists
every criterion.  Tolerances are fixed here and nowhere else.
"""
import time

import numpy as np
import pytest

from spinequant.core import Volume3D
from spinequant.detection import (DetectionTargets, decode_keypoints,
                                  detection_loss, detection_loss_grad,
                                  detection_loss_terms, encode_keypoints)
from spinequant.evaluation import roc_auc
from spinequant.genant import genant_index, grade
from spinequant.localization import CenterlinePolyline, soft_argmax_2d
from spinequant.phantom import PhantomConfig
from spinequant.pipeline import (PipelineConfig, rescore_chain, run_phantom_chain)
from spinequant.straighten import build_spine_curve, straighten_plane

from test_detection import loss_oracle, random_fixture
from test_eval import auc_oracle


def criterion(label):
    def mark(fn):
        fn.acceptance_criterion = label
        return fn
    return mark


@criterion("1 keypoint encoding round trip + invariances")
def test_criterion_1_encoding():
    rng = np.random.default_rng(101)
    # The random anchors and keypoints, drawn one anchor at a time, go
    # through the array codec as one (10000, 6, 2) batch.
    centers, sides, kps = np.empty((10_000, 2)), np.empty((10_000, 2)), np.empty((10_000, 6, 2))
    for p in range(10_000):
        centers[p], sides[p] = rng.uniform(-200, 200, 2), rng.uniform(0.25, 80, 2)
        kps[p] = rng.uniform(-300, 300, (6, 2))
    back = decode_keypoints(encode_keypoints(kps, centers, sides), centers, sides)
    assert float(np.max(np.abs(back - kps))) < 1e-9
    # invariances are exact identities; exactly-representable shifts and
    # power-of-two scales keep them exact in floating point as well
    n = 2_000
    centers, sides, kps = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 6, 2))
    shifts, lams = np.empty((n, 2)), np.empty((n, 1, 1))
    for p in range(n):
        centers[p] = rng.integers(-50, 50), rng.integers(-50, 50)
        sides[p] = rng.integers(1, 40), rng.integers(1, 40)
        kps[p] = rng.integers(-100, 100, (6, 2))
        shifts[p] = rng.integers(-500, 500, 2)
        lams[p] = 2.0 ** rng.integers(-5, 6)
    base = encode_keypoints(kps, centers, sides)
    shifted = encode_keypoints(kps + shifts[:, None, :], centers + shifts, sides)
    assert np.array_equal(shifted, base)
    scaled = encode_keypoints(lams * kps, lams[:, 0] * centers, lams[:, 0] * sides)
    assert np.array_equal(scaled, base)


@criterion("2 detection loss oracle + gradient finite differences")
def test_criterion_2_loss():
    rng = np.random.default_rng(202)
    for _ in range(100):
        _, targets, pred_o, pred_e = random_fixture(rng)
        got = detection_loss(pred_o, pred_e, targets)
        want = sum(loss_oracle(pred_o, pred_e, targets))
        assert abs(got - want) < 1e-10
    # gradient vs central differences (h = 1e-5), away from the MAE kinks
    _, targets, pred_o, pred_e = random_fixture(rng, nx=5, ny=6)
    grad_o, grad_e = detection_loss_grad(pred_o, pred_e, targets)
    h = 1e-5
    for flat in rng.choice(pred_o.size, 30, replace=False):
        idx = np.unravel_index(flat, pred_o.shape)
        hi, lo = pred_o.copy(), pred_o.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (detection_loss(hi, pred_e, targets)
              - detection_loss(lo, pred_e, targets)) / (2 * h)
        assert grad_o[idx] == pytest.approx(fd, rel=1e-5, abs=1e-12)
    for flat in rng.choice(pred_e.size, 30, replace=False):
        idx = np.unravel_index(flat, pred_e.shape)
        hi, lo = pred_e.copy(), pred_e.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (detection_loss(pred_o, hi, targets)
              - detection_loss(pred_o, lo, targets)) / (2 * h)
        assert grad_e[idx] == pytest.approx(fd, rel=1e-5, abs=1e-12)
    # halving every Genant weight doubles the regression term exactly
    halved = DetectionTargets(targets.shape, targets.index, targets.matched,
                              targets.offsets, targets.genant_weights / 2)
    bce1, reg1 = detection_loss_terms(pred_o, pred_e, targets)
    bce2, reg2 = detection_loss_terms(pred_o, pred_e, halved)
    assert bce2 == bce1 and reg2 == 2.0 * reg1


@criterion("3 Genant index invariances + grading boundaries")
def test_criterion_3_genant():
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        h = rng.uniform(0.2, 50.0, 3)
        base = genant_index(*h)
        perm = rng.permutation(3)
        assert genant_index(*h[perm]) == base
        lam = rng.uniform(1e-3, 1e3)
        assert genant_index(*(lam * h)) == pytest.approx(base, rel=1e-12)
    assert grade(0.8) == "mild"
    assert grade(0.74) == "moderate"
    assert grade(0.80000001) == "normal"
    assert grade(0.74000001) == "mild"


@criterion("4 soft-argmax exactness and equivariance")
def test_criterion_4_softargmax():
    one_hot = np.zeros((33, 21))
    one_hot[17, 4] = 2.5
    assert soft_argmax_2d(one_hot) == (17.0, 4.0)
    x, y = soft_argmax_2d(np.ones((15, 10)))
    assert abs(x - 7.0) < 1e-9 and abs(y - 4.5) < 1e-9
    spikes = np.zeros((21, 9))
    spikes[2, 1] = spikes[18, 7] = 1.0
    x, y = soft_argmax_2d(spikes)
    assert abs(x - 10.0) < 1e-9 and abs(y - 4.0) < 1e-9
    rng = np.random.default_rng(404)
    patch = rng.uniform(0, 1, (9, 9))
    grid = np.zeros((60, 60))
    grid[10:19, 12:21] = patch
    x0, y0 = soft_argmax_2d(grid)
    for dx, dy in ((7, 0), (0, 13), (21, 17)):
        moved = np.zeros((60, 60))
        moved[10 + dx:19 + dx, 12 + dy:21 + dy] = patch
        x1, y1 = soft_argmax_2d(moved)
        assert abs((x1 - x0) - dx) < 1e-9
        assert abs((y1 - y0) - dy) < 1e-9


@criterion("5 straightening geometry")
def test_criterion_5_straightening():
    # identity: a straight centered curve reproduces the original sagittal plane
    rng = np.random.default_rng(505)
    vol = Volume3D(rng.uniform(-800, 800, (40, 40, 60)).astype(np.float32),
                   (1.0, 1.0, 1.0))
    polyline = CenterlinePolyline(np.tile([20.0, 20.0], (60, 1)), np.arange(60.0))
    curve = build_spine_curve(polyline, step=1.0)
    image = straighten_plane(vol, curve, delta=1.0, half_extent=10.0)
    assert np.max(np.abs(image.values - vol.values[20, 10:31, :])) <= 1e-5
    # circular arc: tangents against the closed form
    radius = 100.0
    z = np.linspace(10.0, 90.0, 81)
    zm = 50.0
    arc_x = radius - np.sqrt(radius ** 2 - (z - zm) ** 2)
    arc = CenterlinePolyline(np.column_stack([arc_x, np.full_like(z, 5.0)]), z)
    curve = build_spine_curve(arc, step=1.0, smoothing=0.0)
    dz = curve.centers[:, 2] - zm
    want = np.column_stack([dz / np.sqrt(radius ** 2 - dz ** 2),
                            np.zeros_like(dz), np.ones_like(dz)])
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.max(np.linalg.norm(curve.t - want, axis=1)) < 1e-3
    # orthonormal frames everywhere
    for axes in (curve.t, curve.u, curve.v):
        assert np.max(np.abs(np.linalg.norm(axes, axis=1) - 1)) <= 1e-9
    for a, b in ((curve.t, curve.u), (curve.t, curve.v), (curve.u, curve.v)):
        assert np.max(np.abs(np.einsum("ij,ij->i", a, b))) <= 1e-9


@criterion("6 end-to-end phantom study (20 seeds, scoliosis 0/15/30 mm)")
def test_criterion_6_end_to_end():
    cfg = PipelineConfig()
    amplitudes = (0.0, 15.0, 30.0)
    loc_errors = []
    tp = fp = fn = 0
    pred_g, gt_g = [], []
    noisy_pred_g, noisy_gt_g = [], []
    max_dg = 0.0
    for seed in range(20):
        phantom_cfg = PhantomConfig(
            scoliosis_amplitude_mm=amplitudes[seed % 3], seed=seed)
        chain = run_phantom_chain(phantom_cfg, cfg)
        assert len(chain.results) == 12
        gt_centers = np.stack([a.center() for a in chain.annotations])
        planted = np.asarray(chain.planted_genant)
        order = np.argsort(gt_centers[:, 2])

        # match by box IoU in the sagittal world plane, greedy by score
        from spinequant.evaluation import match_detections, sagittal_plane_box

        det_boxes = [(sagittal_plane_box(r.keypoints_mm), 1.0) for r in chain.results]
        gt_boxes = [sagittal_plane_box(a.as_array()) for a in chain.annotations]
        match = match_detections(det_boxes, gt_boxes, iou_threshold=cfg.match_iou)
        tp += match.tp
        fp += match.fp
        fn += match.fn
        for i, m in match.pairs:
            res = chain.results[i]
            center = (res.keypoints_mm[2] + res.keypoints_mm[3]) / 2
            loc_errors.append(np.min(np.linalg.norm(gt_centers - center, axis=1)))
            dg = abs(res.measurement.genant - planted[m])
            max_dg = max(max_dg, dg)
            pred_g.append(res.measurement.genant)
            gt_g.append(planted[m])

        _, noisy_results = rescore_chain(chain, cfg, keypoint_noise_mm=0.5,
                                         noise_seed=1000 + seed)
        noisy_boxes = [(sagittal_plane_box(r.keypoints_mm), 1.0) for r in noisy_results]
        noisy_match = match_detections(noisy_boxes, gt_boxes, iou_threshold=cfg.match_iou)
        for i, m in noisy_match.pairs:
            noisy_pred_g.append(noisy_results[i].measurement.genant)
            noisy_gt_g.append(planted[m])

    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    assert recall == 1.0
    assert precision >= 0.99
    assert float(np.mean(loc_errors)) <= 1.0
    assert max_dg <= 0.02
    pred_g, gt_g = np.asarray(pred_g), np.asarray(gt_g)
    assert roc_auc(1 - pred_g, gt_g <= 0.8) == 1.0
    assert roc_auc(1 - pred_g, gt_g <= 0.74) == 1.0
    noisy_pred_g, noisy_gt_g = np.asarray(noisy_pred_g), np.asarray(noisy_gt_g)
    assert roc_auc(1 - noisy_pred_g, noisy_gt_g <= 0.74) >= 0.90


@criterion("7 ROC AUC equals the pairwise-counting oracle")
def test_criterion_7_auc_oracle():
    rng = np.random.default_rng(707)
    for trial in range(80):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            labels[int(rng.integers(0, n))] ^= True
        if trial % 3 == 0:
            scores = rng.integers(0, 5, n).astype(float)   # heavy ties
        elif trial % 3 == 1:
            scores = rng.integers(0, 50, n) / 8.0          # sparse ties
        else:
            scores = rng.normal(size=n)
        assert roc_auc(scores, labels) == auc_oracle(scores, labels)


@criterion("8 performance: straightening and full phantom pipeline")
def test_criterion_8_performance():
    i = (np.arange(512, dtype=np.float32) % 7)[:, None, None]
    j = (np.arange(512, dtype=np.float32) % 5)[None, :, None]
    k = (np.arange(300, dtype=np.float32) % 3)[None, None, :]
    vol = Volume3D(i + j + k, (1.0, 1.0, 1.0))
    z = np.arange(300.0)
    polyline = CenterlinePolyline(
        np.column_stack([256 + 20 * np.sin(z / 60), np.full_like(z, 256.0)]), z)
    curve = build_spine_curve(polyline, step=1.0)
    # The plane the pipeline samples, 121 pixels per row at the default 60 mm
    # half-extent.  Sampling as wide a left-right extent too, a 121 x 121 x 300
    # grid, took about 0.8 s on 2 cores and would fail the bound.
    t0 = time.perf_counter()
    image = straighten_plane(vol, curve, delta=1.0)
    t_straighten = time.perf_counter() - t0
    assert image.values.shape == (121, len(curve))
    assert t_straighten < 0.5
    del vol, image

    # The timed chain is the default-size phantom; test_phantom_that_builds_renders
    # covers generate_phantom's shape rule, and a ChainResult keeps no volume.
    phantom_cfg = PhantomConfig(scoliosis_amplitude_mm=15.0, seed=0)
    assert phantom_cfg.shape == (128, 128, 256)
    t0 = time.perf_counter()
    chain = run_phantom_chain(phantom_cfg, PipelineConfig())
    t_chain = time.perf_counter() - t0
    assert len(chain.results) == 12
    assert t_chain < 5.0


@criterion("9 byte-identical CLI outputs across runs")
def test_criterion_9_determinism(tmp_path):
    from spinequant.cli import main
    from spinequant.formats import write_json

    phantom = {"n_vertebrae": 5, "shape": [80, 80, 144], "spacing": [1.25, 1.25, 1.25],
               "scoliosis_amplitude_mm": 9.0, "seed": 13,
               "heights_mm": [[20.0, 20.0, 20.0], [16.4, 20.0, 20.0],
                              [14.4, 20.0, 20.0], [19.0, 20.0, 20.0],
                              [11.0, 20.0, 20.0]]}
    config = {"half_extent_mm": [35.0, 35.0]}
    write_json(tmp_path / "phantom.json", phantom)
    write_json(tmp_path / "config.json", config)

    def run_all(root):
        cfgflag = ["--config", str(tmp_path / "config.json")]
        steps = [
            ["phantom", str(tmp_path / "phantom.json"), "--output", str(root / "ph")],
            ["straighten", str(root / "ph" / "volume.vg1"),
             "--heatmaps", str(root / "ph" / "heatmaps.vg1"),
             "--output", str(root / "st")],
            ["targets", str(root / "st" / "sagittal.vg1"),
             str(root / "st" / "transform.json"), str(root / "ph" / "gt.va1"),
             "--output", str(root / "tg")],
            ["score", str(root / "st" / "sagittal.vg1"),
             str(root / "st" / "transform.json"),
             "--predictions", str(root / "tg" / "targets.vg1"),
             "--output", str(root / "sc")],
            ["evaluate", str(root / "sc" / "detections.json"),
             str(root / "ph" / "gt.va1"), "--output", str(root / "ev")],
        ]
        for argv in steps:
            assert main(argv + cfgflag) == 0

    trees = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        run_all(root)
        trees.append({p.relative_to(root).as_posix(): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert trees[0].keys() == trees[1].keys()
    for name, blob in trees[0].items():
        assert blob == trees[1][name], f"{name} differs between identical runs"
