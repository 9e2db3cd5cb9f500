import numpy as np
import pytest

from spinequant.core import GeometryError
from spinequant.evaluation import evaluate_study_set, match_detections
from spinequant.phantom import PhantomConfig, generate_phantom
from spinequant.pipeline import (PipelineConfig, extract_centerline, pack_prediction_planes,
                                 rescore_chain, run_phantom_chain, sagittal_plane_box,
                                 score_stage, straighten_stage, unpack_prediction_planes)
from spinequant.straighten import build_spine_curve, mid_sagittal_slice, straighten_volume


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


def test_rescore_chain_equals_score_stage_on_target_maps(chain):
    cfg = PipelineConfig()
    _, got = rescore_chain(chain, cfg)
    want = score_stage(chain.straighten, cfg,
                       objectness_map=chain.targets.objectness,
                       offsets_map=chain.targets.offsets)
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


def test_pack_unpack_round_trip(chain):
    targets = chain.targets
    packed = pack_prediction_planes(targets.objectness, targets.offsets,
                                    targets.genant_weights)
    a = chain.anchors.n_types
    assert packed.shape[2] == 14 * a
    obj, off, weights = unpack_prediction_planes(packed, a)
    np.testing.assert_allclose(obj, targets.objectness, atol=1e-6)
    np.testing.assert_allclose(off, targets.offsets, atol=1e-6)
    np.testing.assert_allclose(weights, targets.genant_weights, atol=1e-6)
    # 13A rasters (predictions without weights) unpack too
    obj2, off2, weights2 = unpack_prediction_planes(packed[:, :, :13 * a], a)
    assert weights2 is None
    np.testing.assert_allclose(obj2, targets.objectness, atol=1e-6)
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
    targets = chain.targets
    a = chain.anchors.n_types
    for weights in (targets.genant_weights, None):
        packed = pack_prediction_planes(targets.objectness, targets.offsets, weights)
        want = concatenated_planes(targets.objectness, targets.offsets, weights)
        assert packed.dtype == np.float32 and packed.shape == want.shape
        assert packed.tobytes(order="F") == want.tobytes(order="F")
        assert packed.flags.f_contiguous and not packed.flags.writeable
        unpacked = unpack_prediction_planes(packed, a)
        for part in unpacked[:2] + ((unpacked[2],) if weights is not None else ()):
            assert part.dtype == np.float32 and np.shares_memory(part, packed)


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


def test_straighten_stage_plane_matches_full_volume_plane():
    cfg = PipelineConfig(half_extent_mm=(25.0, 30.0))
    vol, anns, _ = generate_phantom(PhantomConfig(
        n_vertebrae=4, shape=(80, 80, 144), spacing=(1.25, 1.25, 1.25),
        scoliosis_amplitude_mm=10.0, seed=5))
    sagittal = straighten_stage(vol, cfg, annotations=anns)
    curve = build_spine_curve(extract_centerline(vol, cfg, annotations=anns), step=cfg.delta_mm,
                              smoothing=cfg.smoothing_lambda, pad_mm=cfg.curve_pad_mm)
    full, transform = straighten_volume(vol, curve, delta=cfg.delta_mm,
                                        half_extent=cfg.half_extent_mm, fill=cfg.fill)
    want = mid_sagittal_slice(full, transform).values
    assert sagittal.values.dtype == want.dtype
    assert sagittal.values.tobytes() == want.tobytes()
    assert sagittal.transform.centers.tobytes() == transform.centers.tobytes()
    assert sagittal.transform.i_half == 0
    assert sagittal.transform.j_half == transform.j_half == 30


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


@pytest.mark.parametrize("changes", list(STRESS_PHANTOMS.values()), ids=list(STRESS_PHANTOMS))
def test_stress_phantom_recovers_every_vertebra_and_grade(changes):
    cfg = PipelineConfig()
    chain = run_phantom_chain(PhantomConfig(**changes), cfg)
    match = match_detections([(sagittal_plane_box(r.keypoints_mm), 1.0) for r in chain.results],
                             [sagittal_plane_box(a.as_array()) for a in chain.annotations],
                             iou_threshold=cfg.match_iou)
    assert (match.tp, match.fp, match.fn) == (12, 0, 0)
    errors = [abs(chain.results[i].measurement.genant - chain.planted_genant[m])
              for i, m in match.pairs]
    assert max(errors) <= 0.01


def test_public_names_resolve():
    import spinequant

    assert len(set(spinequant.__all__)) == len(spinequant.__all__)
    assert [name for name in spinequant.__all__ if not hasattr(spinequant, name)] == []
    namespace = {}
    exec("from spinequant import *", namespace)
    assert set(spinequant.__all__) <= namespace.keys()
