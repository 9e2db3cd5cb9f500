import numpy as np
import pytest

from spinequant.core import resample_volume
from spinequant.detection import assign_targets, detect
from spinequant.formats import write_vg1
from spinequant.genant import genant_index, heights
from spinequant.localization import slicewise_centerline
from spinequant.phantom import DEFAULT_HEIGHTS, PhantomConfig, generate_phantom, oracle_heatmaps
from spinequant.pipeline import PipelineConfig, image_anchors, straighten_stage


def small_config(**kw):
    base = dict(n_vertebrae=4, shape=(64, 64, 128), spacing=(1.5, 1.5, 1.5),
                scoliosis_amplitude_mm=0.0, heights_mm=((18.0, 20.0, 20.0),))
    base.update(kw)
    return PhantomConfig(**base)


def test_straight_phantom_centers_share_xy():
    vol, anns, _ = generate_phantom(small_config())
    centers = np.stack([a.center() for a in anns])
    assert np.ptp(centers[:, 0]) < 1e-9
    assert np.ptp(centers[:, 1]) < 1e-9
    assert vol.values.max() == 400.0
    assert vol.values.min() == -1000.0


def test_planted_heights_recovered_exactly():
    cfg = small_config(heights_mm=((7.4, 10.0, 10.0), (20.0, 20.0, 20.0)),
                       scoliosis_amplitude_mm=12.0, pitch_mm=26.0)
    _, anns, gs = generate_phantom(cfg)
    h = heights(anns[0])
    assert h == pytest.approx((7.4, 10.0, 10.0), abs=1e-12)
    assert gs[0] == pytest.approx(0.74, abs=1e-12)
    assert genant_index(*heights(anns[1])) == pytest.approx(1.0, abs=1e-12)
    # the biconcave default entry is realized too
    cfg2 = small_config(heights_mm=((20.0, 13.2, 20.0),))
    _, anns2, gs2 = generate_phantom(cfg2)
    assert heights(anns2[0])[1] == pytest.approx(13.2, abs=1e-12)
    assert gs2[0] == pytest.approx(0.66, abs=1e-12)


def test_phantom_determinism_bytes(tmp_path):
    cfg = small_config(noise_sigma=15.0, seed=42, scoliosis_amplitude_mm=8.0)
    vol1, anns1, _ = generate_phantom(cfg)
    vol2, anns2, _ = generate_phantom(cfg)
    assert vol1.values.tobytes() == vol2.values.tobytes()
    for a, b in zip(anns1, anns2):
        assert np.array_equal(a.as_array(), b.as_array())
    write_vg1(tmp_path / "a.vg1", vol1)
    write_vg1(tmp_path / "b.vg1", vol2)
    assert (tmp_path / "a.vg1.raw").read_bytes() == (tmp_path / "b.vg1.raw").read_bytes()


def test_phantom_noise_changes_with_seed():
    a, _, _ = generate_phantom(small_config(noise_sigma=10.0, seed=1))
    b, _, _ = generate_phantom(small_config(noise_sigma=10.0, seed=2))
    assert a.values.tobytes() != b.values.tobytes()


def test_overlapping_bodies_rejected():
    with pytest.raises(ValueError, match="overlap"):
        generate_phantom(small_config(pitch_mm=18.0,
                                      heights_mm=((20.0, 20.0, 20.0),)))


def test_phantom_too_small_volume_rejected():
    with pytest.raises(ValueError):
        generate_phantom(small_config(n_vertebrae=12))  # z span exceeds volume
    with pytest.raises(ValueError, match="spine does not fit"):
        generate_phantom(PhantomConfig(scoliosis_amplitude_mm=80.0))


def test_default_heights_cover_all_grades():
    gs = [genant_index(*trip) for trip in DEFAULT_HEIGHTS]
    assert min(gs) <= 0.6
    assert any(0.6 < g <= 0.74 for g in gs)
    assert any(0.74 < g <= 0.8 for g in gs)
    assert any(g > 0.8 for g in gs)


def test_oracle_heatmaps_decode_close_to_centerline():
    cfg = small_config(scoliosis_amplitude_mm=6.0, n_vertebrae=4)
    vol, anns, _ = generate_phantom(cfg)
    working = resample_volume(vol, (3.0, 3.0, 3.0))
    stack = oracle_heatmaps(anns, working)
    poly = slicewise_centerline(stack).to_world(stack)
    # compare against the interpolated annotation target on the same slices
    from spinequant.localization import centerline_target

    target = centerline_target(anns, working.slice_z_world())
    assert len(poly) == len(target)
    assert stack.slice_z_world().tobytes() == target.z.tobytes()
    np.testing.assert_allclose(stack.values.sum(axis=(0, 1)), 1.0, atol=1e-5)
    err_vox = np.abs(poly.xy - target.xy) / 3.0
    assert np.max(err_vox) < 0.25  # truncated-Gaussian centroid bound


def test_oracle_heatmaps_small_sigma_peaks_at_centerline():
    cfg = small_config()
    vol, anns, _ = generate_phantom(cfg)
    working = resample_volume(vol, (3.0, 3.0, 3.0))
    stack = oracle_heatmaps(anns, working, sigma_vox=0.2)
    k = stack.shape[2] // 2
    m = stack.values[:, :, k]
    peak = np.unravel_index(np.argmax(m), m.shape)
    from spinequant.localization import centerline_target

    target = centerline_target(anns, working.slice_z_world())
    want = working.world_to_voxel(target.points()[k])
    assert peak[0] == round(want[0]) and peak[1] == round(want[1])


def test_oracle_heatmaps_straight_spine_maxima_align():
    vol, anns, _ = generate_phantom(small_config())
    working = resample_volume(vol, (3.0, 3.0, 3.0))
    stack = oracle_heatmaps(anns, working)
    peaks = [np.unravel_index(np.argmax(stack.values[:, :, k]), stack.shape[:2])
             for k in range(stack.shape[2])]
    assert len(set(peaks)) == 1


def test_annotation_target_tracks_planted_sinusoid():
    cfg = PhantomConfig(scoliosis_amplitude_mm=15.0, seed=0)
    vol, anns, _ = generate_phantom(cfg)
    from spinequant.localization import centerline_target

    target = centerline_target(anns, vol.slice_z_world())
    # the generator's true centerline: x sinusoidal about the volume center
    extent = [(n - 1) * s for n, s in zip(cfg.shape, cfg.spacing)]
    x0 = cfg.origin[0] + extent[0] / 2
    y0 = cfg.origin[1] + extent[1] / 2
    span = (cfg.n_vertebrae - 1) * cfg.pitch_mm
    z_first = cfg.origin[2] + (extent[2] - span) / 2
    true_x = x0 + cfg.scoliosis_amplitude_mm * np.sin(
        2 * np.pi * (target.z - z_first) / cfg.scoliosis_wavelength_mm)
    rms = np.sqrt(np.mean((target.xy[:, 0] - true_x) ** 2
                          + (target.xy[:, 1] - y0) ** 2))
    assert rms < 0.5


def chain_fixture(amplitude=10.0):
    phantom_cfg = PhantomConfig(scoliosis_amplitude_mm=amplitude, seed=3)
    cfg = PipelineConfig()
    vol, anns, gs = generate_phantom(phantom_cfg)
    result = straighten_stage(vol, cfg, annotations=anns)
    return cfg, vol, anns, gs, result


def test_oracle_predictions_recover_all_vertebrae():
    cfg, vol, anns, gs, result = chain_fixture()
    anchors = image_anchors(result.sagittal, cfg)
    kps_px = [result.transform.world_to_pixel(kps.as_array()) for kps in anns]
    targets = assign_targets(anchors, list(zip(kps_px, gs)))
    dets = detect(targets.objectness, targets.offsets, anchors,
                  score_threshold=cfg.objectness_threshold, iou_threshold=cfg.nms_iou)
    assert len(dets) == len(anns)
    dets = sorted(dets, key=lambda d: d.box.cy)
    for det_, want in zip(dets, kps_px):
        assert np.max(np.abs(det_.keypoints - want)) < 1e-6


def test_oracle_predictions_empty_annotations():
    cfg, vol, anns, gs, result = chain_fixture()
    anchors = image_anchors(result.sagittal, cfg)
    targets = assign_targets(anchors, [])
    assert detect(targets.objectness, targets.offsets, anchors) == []


def test_oracle_predictions_perturbation_moves_decoded_linearly():
    cfg, vol, anns, gs, result = chain_fixture()
    anchors = image_anchors(result.sagittal, cfg)
    kps_px = [result.transform.world_to_pixel(kps.as_array()) for kps in anns]
    targets = assign_targets(anchors, list(zip(kps_px, gs)))
    offsets = targets.offsets
    pos = np.argwhere(targets.objectness == 1)[0]
    ix, iy, t = (int(v) for v in pos)
    anchor = anchors.box(ix, iy, t)
    delta = 0.125
    from spinequant.detection import decode_keypoints

    base = decode_keypoints(offsets[ix, iy, t], anchor)
    bumped = offsets[ix, iy, t].copy()
    bumped[:, 0] += delta
    moved = decode_keypoints(bumped, anchor)
    np.testing.assert_allclose(moved[:, 0] - base[:, 0], delta * anchor.w, atol=1e-12)
    bumped[:, 1] += delta
    moved = decode_keypoints(bumped, anchor)
    np.testing.assert_allclose(moved[:, 1] - base[:, 1], delta * anchor.h, atol=1e-12)
