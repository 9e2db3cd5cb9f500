import gc
import time
import weakref

import numpy as np
import pytest

from spinequant import core, detection, pipeline, straighten
from spinequant.core import MAX_GRID_VOXELS, GeometryError, Volume3D
from spinequant.evaluation import evaluate_study_set, match_detections, sagittal_plane_box
from spinequant.phantom import PhantomConfig, generate_phantom
from spinequant.pipeline import (ROW_COST, PipelineConfig, extract_centerline, oracle_phantom,
                                 pack_prediction_planes, pack_targets,
                                 rescore_chain, run_phantom_chain, score_stage, straighten_stage,
                                 targets_stage, unpack_prediction_planes, working_grid)
from spinequant.straighten import build_spine_curve, straighten_plane

from conftest import traced_peak
from oracles import anchor_ious, full_grid_targets, study_set_report

SMALL_CONFIG = PipelineConfig(half_extent_mm=(35.0, 35.0))


def small_phantom(amplitude):
    """Acceptance criterion 9's 80 x 80 x 144 phantom, at a scoliosis amplitude (mm)."""
    return PhantomConfig(n_vertebrae=5, shape=(80, 80, 144), scoliosis_amplitude_mm=amplitude,
                         seed=13)


@pytest.fixture(scope="module")
def chain():
    return run_phantom_chain(PhantomConfig(scoliosis_amplitude_mm=15.0, seed=11),
                             PipelineConfig())


def test_chain_recovers_every_vertebra(chain):
    assert len(chain.results) == len(chain.annotations)


def test_chain_recovers_planted_genant(chain):
    got = sorted(r.measurement.genant for r in chain.results)
    want = sorted(chain.planted_genant)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 0.02


def test_detect_on_chain_oracle_maps_is_fast(chain):
    # About 3 ms of NMS on 2 cores; NMS with one IoU call per candidate
    # (about 10,600 here) took 170-300 ms.
    obj, off, _, _ = chain.targets.dense()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _, scores = detection.detect(obj, off, chain.anchors)
        best = min(best, time.perf_counter() - t0)
    assert len(scores) == len(chain.annotations)
    assert best < 0.1


def test_chain_keypoints_land_near_annotations(chain):
    # order results along the spine to pair them with the planted bodies
    results = sorted(chain.results, key=lambda r: r.keypoints_mm[:, 2].mean())
    for res, ann in zip(results, chain.annotations):
        assert np.max(np.linalg.norm(res.keypoints_mm - ann.as_array(), axis=1)) < 1.0


def test_chain_centers_land_on_the_straight_column(chain):
    transform = chain.straighten.transform
    delta = chain.straighten.delta
    for ann in chain.annotations:
        center = ann.center()
        px = transform.world_to_pixel(center)
        # anterior-posterior offset from the central column under one pixel
        assert abs(px[0] - transform.j_half) * delta < 1.0
        # the residual (the dropped left-right offset) is also under one pixel
        residual = center - transform.pixel_to_world(px)
        assert np.linalg.norm(residual) < 1.0


def test_chain_evaluates_clean(chain):
    cfg = PipelineConfig()
    report, problems = evaluate_study_set([chain.study_for_evaluation(cfg)])
    assert problems == []
    assert report.recall == 1.0
    assert report.precision == 1.0
    assert report.localization_mean_mm < 1.0
    assert report.classification["moderate"]["vertebra"]["roc_auc"] == 1.0
    assert report.classification["mild"]["vertebra"]["roc_auc"] == 1.0


def rescored_studies(chain, noises_mm, n):
    """``n`` study dicts of ``chain`` rescored with keypoint noise cycling ``noises_mm``."""
    cfg = PipelineConfig()
    return [chain.study_for_evaluation(cfg, results=rescore_chain(
                chain, cfg, keypoint_noise_mm=noises_mm[k % len(noises_mm)], noise_seed=k)[1])
            for k in range(n)]


def test_study_set_of_rescored_chains_equals_the_per_study_oracle(chain):
    # 2 and 3 mm noise leave spurious detections that compete for a vertebra.
    studies = rescored_studies(chain, (0.5, 2.0, 3.0), 300)
    cfg = PipelineConfig()
    got = evaluate_study_set(studies, iou_threshold=cfg.match_iou)
    assert got == study_set_report(studies, iou_threshold=cfg.match_iou)
    assert got[0].fp > 0


def test_study_set_evaluation_is_fast(chain):
    # About 9 ms on 2 cores; one study at a time took about 60 ms.
    studies = rescored_studies(chain, (0.5,), 300)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        evaluate_study_set(studies)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.04


def test_rescore_chain_equals_score_stage_on_target_maps(chain):
    cfg = PipelineConfig()
    _, got = rescore_chain(chain, cfg)
    objectness, offsets, _, _ = chain.targets.dense()
    want = score_stage(chain.straighten, cfg, objectness_map=objectness, offsets_map=offsets)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
    assert [r.to_dict() for r in got] == [r.to_dict() for r in chain.results]


def test_chain_with_regression_noise_still_detects(chain):
    dets, results = rescore_chain(chain, PipelineConfig(),
                                  keypoint_noise_mm=0.5, noise_seed=7)
    assert len(results) == len(chain.annotations)
    got = np.array(sorted(r.measurement.genant for r in results))
    want = np.array(sorted(chain.planted_genant))
    # noisy keypoints perturb the indices but not beyond a few percent
    assert np.max(np.abs(got - want)) < 0.2
    assert np.median(np.abs(got - want)) < 0.05
    assert not np.allclose(got, sorted(r.measurement.genant for r in chain.results))


@pytest.mark.parametrize("noise_mm", [4.0, 5.0])
def test_rescore_drops_only_the_detections_off_the_image(chain, noise_mm):
    # One keypoint off the plane once failed the whole study: at 4 mm seeds 7 and 11
    # raised GeometryError, and at 5 mm 9 of these 20 seeds did.
    transform = chain.straighten.transform
    last = np.array([transform.n_ap - 1, transform.n_rows - 1])
    dropped = 0
    for seed in range(20):
        (kps, scores), results = rescore_chain(chain, PipelineConfig(),
                                               keypoint_noise_mm=noise_mm, noise_seed=seed)
        off = np.any((kps < -1e-9) | (kps > last + 1e-9), axis=(1, 2))
        assert len(kps) - len(results) == off.sum()
        assert [(r.score, r.keypoints_px.tobytes()) for r in results] == [
            (s, k.tobytes()) for s, k in zip(scores[~off].tolist(), kps[~off])]
        dropped += off.sum()
    assert dropped > 0


@pytest.mark.parametrize("noise", [float("nan"), -0.5, float("inf")])
def test_bad_keypoint_noise_is_refused(chain, noise, monkeypatch):
    with pytest.raises(ValueError, match="keypoint_noise_mm"):
        rescore_chain(chain, PipelineConfig(), keypoint_noise_mm=noise)

    # run_phantom_chain refuses it before it builds anything.
    def oracle_phantom(*args):
        raise AssertionError("the phantom was built")

    monkeypatch.setattr(pipeline, "oracle_phantom", oracle_phantom)
    with pytest.raises(ValueError, match="keypoint_noise_mm"):
        run_phantom_chain(PhantomConfig(), PipelineConfig(), keypoint_noise_mm=noise)


def test_finished_chain_releases_its_volume(monkeypatch):
    refs = []
    real = pipeline.oracle_phantom

    def oracle_phantom(*args):
        volume, annotations, planted, heatmaps = real(*args)
        refs.extend(weakref.ref(v.values) for v in (volume, heatmaps))
        return volume, annotations, planted, heatmaps

    monkeypatch.setattr(pipeline, "oracle_phantom", oracle_phantom)
    chain = run_phantom_chain(PhantomConfig(n_vertebrae=5, shape=(80, 80, 144), seed=13),
                              PipelineConfig(half_extent_mm=(35.0, 35.0)))
    gc.collect()
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    assert len(chain.results) == 5


@pytest.fixture(scope="module")
def small_chains():
    return {a: run_phantom_chain(small_phantom(a), SMALL_CONFIG) for a in (0.0, 30.0)}


def dense_rescore(chain, cfg, keypoint_noise_mm, noise_seed):
    """``detect`` on dense maps, noised as at first: the positives of
    ``np.nonzero(objectness == 1)`` get the draws, written into a zeroed offsets map."""
    objectness, offsets, _, _ = chain.targets.dense()
    rng = np.random.default_rng(noise_seed)
    pos = np.nonzero(objectness == 1)
    sigma_px = keypoint_noise_mm / chain.straighten.delta
    noise = rng.normal(0.0, sigma_px, size=(len(pos[0]), 6, 2))
    noised = np.zeros(offsets.shape)
    noised[pos] = offsets[pos] + noise / chain.anchors.sides_px[pos[2]][:, None, :]
    return detection.detect(objectness, noised, chain.anchors,
                            score_threshold=cfg.objectness_threshold, iou_threshold=cfg.nms_iou)


@pytest.mark.parametrize("noise_mm", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("amplitude", [0.0, 30.0])
def test_rescore_noise_draws_equal_the_dense_path(small_chains, amplitude, noise_mm):
    chain = small_chains[amplitude]
    for seed in (0, 7):
        (kps, scores), _ = rescore_chain(chain, SMALL_CONFIG, keypoint_noise_mm=noise_mm,
                                         noise_seed=seed)
        want_kps, want_scores = dense_rescore(chain, SMALL_CONFIG, noise_mm, seed)
        assert len(kps) > 0
        assert kps.tobytes() == want_kps.tobytes()
        assert scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_rescore_at_the_threshold_ends_equals_the_dense_path(small_chains, threshold):
    # detect's filter is a strict >, so at 1.0 no target anchor passes.
    cfg = PipelineConfig(half_extent_mm=(35.0, 35.0), objectness_threshold=threshold)
    chain = small_chains[30.0]
    for noise_mm in (0.0, 2.0):
        (kps, scores), _ = rescore_chain(chain, cfg, keypoint_noise_mm=noise_mm, noise_seed=7)
        want_kps, want_scores = dense_rescore(chain, cfg, noise_mm, 7)
        assert (len(kps) == 0) == (threshold == 1.0)
        assert kps.tobytes() == want_kps.tobytes()
        assert scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("noise_mm", [0.0, 2.0])
def test_rescore_builds_no_map_over_all_anchors(chain, noise_mm):
    # One float64 objectness map over the 611,776 anchors is 4.9 MB and an
    # offsets map 59 MB; rescoring from the targets record peaks near 3.6 MB
    # without noise and 6.6 MB with it.
    _, peak = traced_peak(rescore_chain, chain, PipelineConfig(), keypoint_noise_mm=noise_mm)
    assert chain.anchors.n_anchors == 611_776
    assert peak < 10e6


def test_finished_chain_keeps_only_its_positive_anchors(small_chains):
    for chain in small_chains.values():
        targets = chain.targets
        # flat index, matched vertebra and Genant weight (8 B each) and 12 offsets (96 B)
        kept = sum(getattr(targets, name).nbytes
                   for name in ("index", "matched", "offsets", "genant_weights"))
        assert 0 < targets.n_positive and kept == 120 * targets.n_positive
        # its arrays cannot be written, so no later rescore sees a changed target
        with pytest.raises(ValueError, match="read-only"):
            targets.offsets[...] = 0
        (kps, _), _ = rescore_chain(chain, SMALL_CONFIG)
        assert len(kps) == len(chain.annotations)


def targets_inputs(phantom_cfg, cfg, monkeypatch):
    """The straightened image and annotations of a phantom, and the anchors,
    ground truth and targets of ``targets_stage``'s ``assign_targets`` call."""
    volume, annotations, _, heatmaps = oracle_phantom(phantom_cfg, cfg)
    sagittal = straighten_stage(volume, cfg, heatmaps=heatmaps)
    calls = []
    assign_targets = detection.assign_targets

    def spy(anchors, gt, iou_threshold):
        gt = list(gt)
        calls.append((anchors, gt, assign_targets(anchors, gt, iou_threshold)))
        return calls[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(detection, "assign_targets", spy)
        targets_stage(sagittal, annotations, cfg)
    (anchors, gt, targets), = calls
    return sagittal, annotations, anchors, gt, targets


@pytest.mark.parametrize("phantom_cfg, cfg", [
    *(pytest.param(small_phantom(a), SMALL_CONFIG, id=str(a)) for a in (0.0, 15.0, 30.0)),
    # the benchmark's size: 12 vertebrae, about 612k anchors
    pytest.param(PhantomConfig(scoliosis_amplitude_mm=15.0), PipelineConfig(), id="default-15.0"),
])
def test_targets_stage_equals_the_full_grid_oracle(phantom_cfg, cfg, monkeypatch):
    # One iou_matrix over every anchor and the claim rules, to the byte.
    _, _, anchors, gt, targets = targets_inputs(phantom_cfg, cfg, monkeypatch)
    want = full_grid_targets(anchors, gt, cfg.assign_iou)
    got = (targets.index, targets.matched, targets.offsets, targets.genant_weights)
    for name, g, w in zip(("index", "matched", "offsets", "genant_weights"), got, want):
        assert g.tobytes() == w.tobytes(), name
    assert len(set(targets.matched.tolist())) == len(gt) == phantom_cfg.n_vertebrae


def test_targets_stage_peak_is_its_iou_blocks_and_the_record(monkeypatch):
    # No iou_matrix call.  The peak is each vertebra's candidate IoU block,
    # kept until the forced claims are made, at most one full block (a
    # vertebra with no unclaimed anchor above the threshold), and the record
    # with the inputs of its encoding.  A candidate block spans the pixel
    # columns and rows that hold an anchor above the threshold, by every
    # type; a full block those where the vertebra overlaps some anchor.
    # Full blocks for every vertebra (2.7 MB here), an (M, K) IoU matrix over
    # every anchor near some vertebra (10.5 MB) or dense maps over every
    # anchor, 120 B each (19.5 MB), would break the bound.
    sagittal, annotations, anchors, gt, _ = targets_inputs(small_phantom(0.0), SMALL_CONFIG,
                                                           monkeypatch)
    ious = anchor_ious(anchors, gt).reshape(len(gt), *anchors.image_shape, -1)

    def block_sizes(floor):
        return [np.any(v, axis=(1, 2)).sum() * np.any(v, axis=(0, 2)).sum() * anchors.n_types
                for v in ious > floor]

    candidate, full = block_sizes(SMALL_CONFIG.assign_iou), block_sizes(0.0)
    calls = []
    monkeypatch.setattr(detection, "iou_matrix", lambda a, b: calls.append(1))
    (_, targets), peak = traced_peak(targets_stage, sagittal, annotations, SMALL_CONFIG)
    assert not calls
    # index, matched, offsets and weight (120 B), and the matched keypoints
    # and the anchors' centers and sides they are encoded from (128 B)
    record = (120 + 128) * targets.n_positive
    assert peak < 8 * (sum(candidate) + max(full)) + record, (peak, candidate, full, record)


def test_pack_unpack_round_trip(chain):
    objectness, offsets, genant_weights, _ = chain.targets.dense()
    packed = pack_prediction_planes(objectness, offsets, genant_weights)
    a = chain.anchors.n_types
    assert packed.shape[2] == 14 * a
    obj, off, weights = unpack_prediction_planes(packed, a)
    np.testing.assert_allclose(obj, objectness, atol=1e-6)
    np.testing.assert_allclose(off, offsets, atol=1e-6)
    np.testing.assert_allclose(weights, genant_weights, atol=1e-6)
    # 13A rasters (predictions without weights) unpack too
    obj2, off2, weights2 = unpack_prediction_planes(packed[:, :, :13 * a], a)
    assert weights2 is None
    np.testing.assert_allclose(obj2, objectness, atol=1e-6)
    with pytest.raises(GeometryError):
        unpack_prediction_planes(packed[:, :, :5], a)


def concatenated_planes(objectness, offsets, genant_weights=None):
    """The float64 concatenate-then-cast formula of the raster layout (the oracle)."""
    nx, ny, a = objectness.shape
    out = np.concatenate([objectness, np.asarray(offsets).reshape(nx, ny, 12 * a)], axis=2)
    if genant_weights is not None:
        out = np.concatenate([out, genant_weights], axis=2)
    return np.ascontiguousarray(out, dtype=np.float32)


def test_pack_matches_concatenation_and_unpacks_to_views(chain):
    objectness, offsets, genant_weights, _ = chain.targets.dense()
    a = chain.anchors.n_types
    for weights in (genant_weights, None):
        packed = pack_prediction_planes(objectness, offsets, weights)
        want = concatenated_planes(objectness, offsets, weights)
        assert packed.dtype == np.float32 and packed.shape == want.shape
        assert packed.tobytes(order="F") == want.tobytes(order="F")
        assert packed.flags.f_contiguous and not packed.flags.writeable
        unpacked = unpack_prediction_planes(packed, a)
        for part in unpacked[:2] + ((unpacked[2],) if weights is not None else ()):
            assert part.dtype == np.float32 and np.shares_memory(part, packed)


@pytest.mark.parametrize("amplitude, vertebrae", [(0.0, True), (30.0, True), (30.0, False)],
                         ids=["0 mm", "30 mm", "no vertebrae"])
def test_pack_targets_equals_the_dense_packing(amplitude, vertebrae):
    # Scattering the positive anchors into zeros gives the bytes of packing every map.
    cfg = PipelineConfig(half_extent_mm=(35.0, 35.0))
    volume, annotations, _, heatmaps = oracle_phantom(PhantomConfig(
        n_vertebrae=5, shape=(80, 80, 144), scoliosis_amplitude_mm=amplitude, seed=13), cfg)
    sagittal = straighten_stage(volume, cfg, heatmaps=heatmaps)
    _, targets = targets_stage(sagittal, annotations if vertebrae else [], cfg)
    assert (targets.n_positive > 0) == vertebrae
    packed = pack_targets(targets)
    want = pack_prediction_planes(*targets.dense()[:3])
    assert packed.dtype == want.dtype and packed.shape == want.shape
    assert packed.tobytes(order="A") == want.tobytes(order="A")
    assert packed.flags.f_contiguous and not packed.flags.writeable


def test_config_round_trips_through_dict():
    cfg = PipelineConfig(delta_mm=2.0, nms_iou=0.3, anchor_ratios=(1.0, 2.0))
    back = PipelineConfig.from_dict(cfg.to_dict())
    assert back == cfg


@pytest.mark.parametrize("field, value", [
    ("working_spacing_mm", 0.0), ("working_spacing_mm", float("nan")),
    ("delta_mm", -1.0), ("nms_iou", 0.0), ("nms_iou", 1.5), ("assign_iou", 0.0),
    ("match_iou", 2.0), ("objectness_threshold", -0.1),
    ("objectness_threshold", 1.1), ("severe_cut", 0.74), ("mild_cut", 0.7),
    ("half_extent_mm", (60.0, -5.0)), ("half_extent_mm", (60.0,)),
    ("half_extent_mm", (60.0, float("inf"))), ("smoothing_lambda", -1.0),
    ("curve_pad_mm", -0.5), ("anchor_scales_mm", ()), ("anchor_scales_mm", (17.0, 0.0)),
    ("anchor_ratios", (1.0, float("nan"))), ("softargmax_mode", "bogus"),
    ("softargmax_temperature", 0.0), ("softargmax_temperature", float("nan")),
    ("fill", float("nan")), ("delta_mm", float("inf")),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_config_accepts_range_bounds():
    PipelineConfig(nms_iou=1.0, assign_iou=1.0, match_iou=1.0,
                   objectness_threshold=0.0)
    PipelineConfig(objectness_threshold=1.0)
    PipelineConfig(half_extent_mm=(0.0, 0.0), smoothing_lambda=0.0, curve_pad_mm=0.0,
                   softargmax_mode="logits", fill=0)


@pytest.mark.parametrize("shape, spacing, working_mm, want", [
    ((128, 128, 256), 1.25, 3.0, (54, 54, 108)),   # the default phantom
    ((9, 4, 4), 1.0, 2.0, (5, 3, 3)),              # extents 8 and 3 mm at 2 mm steps
    ((7, 6, 5), 2.5, 2.5, (7, 6, 5)),              # identity spacing
    # 3 * 0.1 / 0.1 and 6 * 0.1 / 0.1 land a hair above 3 and 6: round(..., 9) keeps them.
    ((4, 7, 2), 0.1, 0.1, (4, 7, 2)),
], ids=["default-phantom", "9x4x4-to-2mm", "identity", "round-decides"])
def test_working_grid_shape(shape, spacing, working_mm, want):
    vol = Volume3D(np.zeros(shape, dtype=np.float32), (spacing,) * 3, (-4.0, 2.5, 10.0))
    grid = working_grid(vol, PipelineConfig(working_spacing_mm=working_mm))
    assert grid.shape == want
    assert grid.spacing == (working_mm,) * 3 and grid.origin == vol.origin


def test_working_grid_holds_no_per_voxel_array():
    vol = Volume3D(np.zeros((128, 128, 256), dtype=np.float32), (1.25,) * 3)
    grid, peak = traced_peak(working_grid, vol, PipelineConfig())
    assert grid.values.strides == (0, 0, 0) and not grid.values.flags.writeable
    assert not np.any(grid.values)
    assert peak < 8192  # the (54, 54, 108) grid as float32 would be 1.26 MB


def test_working_grid_refuses_a_grid_over_the_voxel_budget(monkeypatch):
    vol = Volume3D(np.zeros((2, 2, 2), dtype=np.float32), (3.0, 3.0, 3.0))
    cfg = PipelineConfig(working_spacing_mm=1.0)
    monkeypatch.setattr(core, "MAX_GRID_VOXELS", 4 * 4 * 4)
    assert working_grid(vol, cfg).shape == (4, 4, 4)
    monkeypatch.setattr(core, "MAX_GRID_VOXELS", 4 * 4 * 4 - 1)
    with pytest.raises(GeometryError, match=r"spacing \(1.0, 1.0, 1.0\) mm .* \(4, 4, 4\) grid"):
        working_grid(vol, cfg)
    monkeypatch.undo()
    # A step count that overflows to infinity is refused, not converted.
    huge = Volume3D(np.zeros((4, 4, 4), dtype=np.float32), (1e300,) * 3)
    with pytest.raises(GeometryError, match="inf"):
        working_grid(huge, PipelineConfig(working_spacing_mm=1e-300))


def test_straighten_stage_reads_only_the_ap_half_extent():
    vol, anns, _ = generate_phantom(PhantomConfig(
        n_vertebrae=4, shape=(80, 80, 144), spacing=(1.25, 1.25, 1.25),
        scoliosis_amplitude_mm=10.0, seed=5))
    cfg = PipelineConfig(half_extent_mm=(25.0, 30.0))
    sagittal = straighten_stage(vol, cfg, annotations=anns)
    assert sagittal.transform.j_half == 30
    lr = straighten_stage(vol, PipelineConfig(half_extent_mm=(0.0, 30.0)), annotations=anns)
    assert sagittal.values.tobytes() == lr.values.tobytes()
    curve = build_spine_curve(extract_centerline(vol, cfg, annotations=anns), step=cfg.delta_mm,
                              smoothing=cfg.smoothing_lambda, pad_mm=cfg.curve_pad_mm)
    want = straighten_plane(vol, curve, delta=cfg.delta_mm, half_extent=30.0, fill=cfg.fill)
    assert sagittal.values.tobytes() == want.values.tobytes()
    assert sagittal.transform.centers.tobytes() == want.transform.centers.tobytes()


class CurveBuilt(Exception):
    pass


def test_straighten_stage_counts_row_cost_before_the_curve(monkeypatch):
    # A one-column plane (AP half-extent 0) has one pixel per row; each row's frame and
    # transform.json entry still cost ROW_COST, so a fine delta_mm is refused before
    # build_spine_curve, which here raises instead of running the oversized case.
    def build_spine_curve(*args, **kwargs):
        raise CurveBuilt
    monkeypatch.setattr(straighten, "build_spine_curve", build_spine_curve)
    vol, anns, _ = generate_phantom(PhantomConfig())
    with pytest.raises(GeometryError, match="delta_mm 2e-05"):
        straighten_stage(vol, PipelineConfig(delta_mm=2e-5, half_extent_mm=(60.0, 0.0)),
                         annotations=anns)
    # The budget's edge: rows x (1 + ROW_COST) just over and just under 2^28.
    polyline = extract_centerline(vol, PipelineConfig(), annotations=anns)
    length = polyline.z[-1] - polyline.z[0] + 2 * PipelineConfig().curve_pad_mm
    edge = length * (1 + ROW_COST) / MAX_GRID_VOXELS
    with pytest.raises(GeometryError, match="per curve row"):
        straighten_stage(vol, PipelineConfig(delta_mm=edge * 0.99, half_extent_mm=(60.0, 0.0)),
                         annotations=anns)
    with pytest.raises(CurveBuilt):
        straighten_stage(vol, PipelineConfig(delta_mm=edge * 1.01, half_extent_mm=(60.0, 0.0)),
                         annotations=anns)


# The paper's "no exclusion criteria": severe scoliosis, short and strong
# curves, thick slices, Genant 0.4 wedge, biconcave and crush bodies, noise.
STRESS_PHANTOMS = {
    **{f"scoliosis {a:g} mm": {"scoliosis_amplitude_mm": a} for a in (30.0, 45.0, 60.0)},
    **{f"wavelength {w:g} mm amplitude {a:g} mm":
       {"scoliosis_wavelength_mm": w, "scoliosis_amplitude_mm": a}
       for w, a in ((150.0, 20.0), (200.0, 30.0), (250.0, 45.0))},
    "slices 3 mm": {"spacing": (1.25, 1.25, 3.0), "shape": (128, 128, 108)},
    "slices 5 mm": {"spacing": (1.25, 1.25, 5.0), "shape": (128, 128, 66)},
    "wedge G 0.4": {"heights_mm": ((8.0, 16.0, 20.0),)},
    "biconcave G 0.4": {"heights_mm": ((20.0, 8.0, 20.0),)},
    "crush G 0.4": {"heights_mm": ((8.0, 8.0, 20.0),)},
    "noise 0.05": {"noise_sigma": 0.05},
}


def assert_every_vertebra_graded(chain, cfg):
    """All 12 planted vertebrae matched one to one, each graded within 0.01 of its G."""
    match = match_detections([(sagittal_plane_box(r.keypoints_mm), 1.0) for r in chain.results],
                             [sagittal_plane_box(a.as_array()) for a in chain.annotations],
                             iou_threshold=cfg.match_iou)
    assert (match.tp, match.fp, match.fn) == (12, 0, 0)
    errors = [abs(chain.results[i].measurement.genant - chain.planted_genant[m])
              for i, m in match.pairs]
    assert max(errors) <= 0.01


@pytest.mark.parametrize("changes", list(STRESS_PHANTOMS.values()), ids=list(STRESS_PHANTOMS))
def test_stress_phantom_recovers_every_vertebra_and_grade(changes):
    cfg = PipelineConfig()
    assert_every_vertebra_graded(run_phantom_chain(PhantomConfig(**changes), cfg), cfg)


@pytest.mark.parametrize("amplitude", [0.0, 15.0, 30.0])
def test_chain_survives_empty_heatmap_slices(amplitude, monkeypatch):
    # A localization network's maps may be all zero on some slices: the first,
    # the middle and the last oracle map are zeroed, and the centerline spans them.
    real = pipeline.oracle_phantom

    def oracle_phantom(*args):
        volume, annotations, planted, heatmaps = real(*args)
        maps = heatmaps.values.copy()
        maps[:, :, [0, maps.shape[2] // 2, -1]] = 0.0
        return volume, annotations, planted, Volume3D(maps, heatmaps.spacing, heatmaps.origin)

    monkeypatch.setattr(pipeline, "oracle_phantom", oracle_phantom)
    cfg = PipelineConfig()
    assert_every_vertebra_graded(
        run_phantom_chain(PhantomConfig(scoliosis_amplitude_mm=amplitude), cfg), cfg)


def test_public_names_resolve():
    import spinequant

    assert len(set(spinequant.__all__)) == len(spinequant.__all__)
    assert [name for name in spinequant.__all__ if not hasattr(spinequant, name)] == []
    namespace = {}
    exec("from spinequant import *", namespace)
    assert set(spinequant.__all__) <= namespace.keys()
