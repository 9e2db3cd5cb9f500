import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinequant import phantom
from spinequant.detection import assign_targets, decode_keypoints, detect
from spinequant.formats import write_vg1
from spinequant.genant import genant_index, heights
from spinequant.localization import slicewise_centerline
from spinequant.core import Volume3D
from spinequant.genant import VertebraKeypoints
from spinequant.phantom import (DEFAULT_HEIGHTS, HEATMAP_SLAB, PhantomConfig, generate_phantom,
                                oracle_heatmaps)
from spinequant.pipeline import PipelineConfig, image_anchors, straighten_stage, working_grid
from conftest import traced_peak
from oracles import fill_body, oracle_heatmaps_reference
from test_core import bbox_from_keypoints


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


def test_phantom_raster_is_adopted_not_copied():
    # Volume3D adopts the read-only raster generate_phantom rendered: on the
    # default phantom a second copy would put the peak at two rasters.
    (vol, _, _), peak = traced_peak(generate_phantom, PhantomConfig())
    assert not vol.values.flags.writeable
    assert peak < 1.5 * vol.values.nbytes


def test_phantom_renders_without_per_voxel_temporaries():
    # Each body is an (x, z) cross-section test against a y profile: past the raster, only
    # the per-body boolean mask and 1D/2D arrays are allocated.
    (vol, _, _), peak = traced_peak(generate_phantom, PhantomConfig())
    assert peak < 1.05 * vol.values.nbytes


def test_phantom_and_heatmaps_are_fortran_ordered_and_written_without_a_copy(tmp_path):
    vol, anns, _ = generate_phantom(PhantomConfig())
    maps = oracle_heatmaps(anns, working_grid(vol, PipelineConfig()))
    for raster in (vol, maps):
        assert raster.values.flags.f_contiguous and not raster.values.flags.writeable
        # A C-ordered raster once went out through a transposing copy of itself.
        _, peak = traced_peak(write_vg1, tmp_path / "raster.vg1", raster)
        assert peak < 0.1 * raster.values.nbytes


# Whole and half millimetres put voxel centers exactly on body faces, where
# ``<=`` and ``<`` differ; the other draws are off-grid.
GRID_MM = st.sampled_from([0.5, 1.0, 1.25, 2.0])


@st.composite
def renderable_configs(draw):
    """A PhantomConfig whose volume just holds its spine, so few draws are refused."""
    spacing = tuple(draw(GRID_MM | st.floats(0.7, 2.0)) for _ in range(3))
    origin = tuple(draw(st.just(0.0) | st.floats(-100, 100)) for _ in range(3))
    n = draw(st.integers(2, 4))
    heights = draw(st.lists(st.tuples(*[st.integers(2, 12).map(float) | st.floats(2, 12)] * 3),
                            min_size=1, max_size=3))
    pitch = draw(st.integers(13, 26).map(float) | st.floats(13, 26))
    width, depth = (draw(st.integers(4, 24).map(float) | st.floats(4, 24)) for _ in range(2))
    amplitude = draw(st.just(0.0) | st.floats(-40, 40))
    wavelength = draw(st.sampled_from([20.0, 40.0, 80.0, 100.0, 400.0]) | st.floats(5, 500))
    # The millimetres each axis must span to hold the spine with 2 mm margins.
    needs = (2 * abs(amplitude) + width + 4, depth + 4, (n - 1) * pitch + 12 + 4)
    shape = tuple(max(8, math.ceil(mm / s) + 2 + draw(st.integers(0, 6)))
                  for mm, s in zip(needs, spacing))
    try:
        return PhantomConfig(n_vertebrae=n, shape=shape, spacing=spacing, origin=origin,
                             scoliosis_amplitude_mm=amplitude,
                             scoliosis_wavelength_mm=wavelength, pitch_mm=pitch,
                             body_width_mm=width, body_depth_mm=depth, heights_mm=heights)
    except ValueError:
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=renderable_configs())
@example(cfg=PhantomConfig(scoliosis_amplitude_mm=40.0, scoliosis_wavelength_mm=20.0))
@example(cfg=small_config(spacing=(1.0, 1.0, 1.0), shape=(49, 49, 129), body_depth_mm=24.0))
def test_phantom_equals_the_point_list_rasterizer(cfg):
    vol = generate_phantom(cfg)[0]
    with mock.patch.object(phantom, "_fill_body", fill_body):
        want = generate_phantom(cfg)[0]
    assert np.array_equal(vol.values, want.values)


def test_phantom_noise_changes_with_seed():
    a, _, _ = generate_phantom(small_config(noise_sigma=10.0, seed=1))
    b, _, _ = generate_phantom(small_config(noise_sigma=10.0, seed=2))
    assert a.values.tobytes() != b.values.tobytes()


def test_overlapping_bodies_rejected():
    with pytest.raises(ValueError, match="overlap"):
        small_config(pitch_mm=18.0, heights_mm=((20.0, 20.0, 20.0),))


def test_phantom_too_small_volume_rejected():
    with pytest.raises(ValueError, match="n_vertebrae"):
        small_config(n_vertebrae=12)  # z span exceeds volume
    with pytest.raises(ValueError, match="spine does not fit"):
        PhantomConfig(scoliosis_amplitude_mm=80.0)


# A description generate_phantom cannot render fails when it is built.
@pytest.mark.parametrize("changes, match", [
    ({"n_vertebrae": 8}, "volume too short"),  # the span fits, the end bodies do not
    ({"n_vertebrae": 1}, "n_vertebrae"),
    ({"heights_mm": ()}, "heights_mm"),
    ({"heights_mm": ((18.0, 0.0, 20.0),)}, "heights_mm"),
    ({"pitch_mm": 0.0}, "pitch_mm"),
    ({"noise_sigma": -1.0}, "noise_sigma"),
    ({"noise_sigma": 1e39}, "noise_sigma"),  # would fill the float32 volume with infinities
    ({"seed": -1, "noise_sigma": 1.0}, "seed"),  # numpy's generator refuses it
    ({"shape": (64, 7, 128)}, "shape"),
    ({"spacing": (1.5, 1.5, 1e308)}, "spacing"),
    ({"scoliosis_amplitude_mm": 5.0, "scoliosis_wavelength_mm": 5e-324},
     "scoliosis_wavelength_mm"),
    ({"pitch_mm": 1e-3, "n_vertebrae": 129, "heights_mm": ((1e-4, 1e-4, 1e-4),)},
     "n_vertebrae"),  # more vertebrae than slices
    # A finite phase, but the slope's square overflows: bodies of zero height.
    ({"scoliosis_amplitude_mm": 5.0, "scoliosis_wavelength_mm": 1e-300},
     "scoliosis_wavelength_mm"),
])
def test_unrenderable_phantom_rejected_at_construction(changes, match):
    with pytest.raises(ValueError, match=match):
        small_config(**changes)


def test_phantom_size_bounded_before_any_work():
    def refused():
        with pytest.raises(ValueError, match="n_vertebrae"):
            PhantomConfig(n_vertebrae=10 ** 7)

    assert traced_peak(refused)[1] < 2 ** 20
    with pytest.raises(ValueError, match="shape"):
        PhantomConfig(shape=(4096, 4096, 4096))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(2, 4), shape=st.tuples(*[st.integers(24, 48)] * 3),
       spacing=st.floats(1.0, 3.0), amplitude=st.floats(-10, 10),
       wavelength=st.floats(1e-300, 500) | st.floats(0, 1e-300, exclude_min=True),
       pitch=st.floats(5, 30), width=st.floats(2, 20),
       heights=st.lists(st.tuples(*[st.floats(1, 10)] * 3), min_size=1, max_size=3),
       noise=st.just(0.0) | st.floats(0.5, 50), seed=st.integers(-3, 3) | st.integers(2 ** 64))
def test_phantom_that_builds_renders(n, shape, spacing, amplitude, wavelength, pitch, width,
                                     heights, noise, seed):
    try:
        cfg = PhantomConfig(n_vertebrae=n, shape=shape, spacing=(spacing,) * 3,
                            scoliosis_amplitude_mm=amplitude,
                            scoliosis_wavelength_mm=wavelength, pitch_mm=pitch,
                            body_width_mm=width, body_depth_mm=width, heights_mm=heights,
                            noise_sigma=noise, seed=seed)
    except ValueError:
        return
    vol, anns, planted = generate_phantom(cfg)
    assert vol.shape == shape and len(anns) == len(planted) == n


def test_default_heights_cover_all_grades():
    gs = [genant_index(*trip) for trip in DEFAULT_HEIGHTS]
    assert min(gs) <= 0.6
    assert any(0.6 < g <= 0.74 for g in gs)
    assert any(0.74 < g <= 0.8 for g in gs)
    assert any(g > 0.8 for g in gs)


def test_oracle_heatmaps_decode_close_to_centerline():
    cfg = small_config(scoliosis_amplitude_mm=6.0, n_vertebrae=4)
    vol, anns, _ = generate_phantom(cfg)
    working = working_grid(vol, PipelineConfig(working_spacing_mm=3.0))
    stack = oracle_heatmaps(anns, working)
    poly = slicewise_centerline(stack)
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
    working = working_grid(vol, PipelineConfig(working_spacing_mm=3.0))
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
    working = working_grid(vol, PipelineConfig(working_spacing_mm=3.0))
    stack = oracle_heatmaps(anns, working)
    peaks = [np.unravel_index(np.argmax(stack.values[:, :, k]), stack.shape[:2])
             for k in range(stack.shape[2])]
    assert len(set(peaks)) == 1


@pytest.mark.parametrize("sigma_vox, message", [
    (0.0, "must be a finite number > 0"), (-2.0, "must be a finite number > 0"),
    (0.01, "is too small"), (1e-200, "is too small")])
def test_oracle_heatmaps_refuses_a_sigma_it_cannot_render(sigma_vox, message):
    # Zero would divide by zero into NaN maps, and -2 would render the maps of +2.
    # On this scoliotic spine, at 0.01 voxel the Gaussians of 13 of the 31 slices,
    # whose targets lie off voxel centers, underflow to all zeros and would divide
    # into NaN maps; at 1e-200 every slice's does.
    vol, anns, _ = generate_phantom(small_config(scoliosis_amplitude_mm=15.0))
    working = working_grid(vol, PipelineConfig(working_spacing_mm=3.0))
    with pytest.raises(ValueError, match=f"^sigma_vox .*{message}"):
        oracle_heatmaps(anns, working, sigma_vox=sigma_vox)


def spine_through(xy, z_last) -> list[VertebraKeypoints]:
    """One vertebra per (x, y) row, its middle keypoints at two of 2 len(xy) evenly
    spaced heights from 0 to ``z_last`` mm, the other four on the middle ones."""
    z = np.linspace(0.0, z_last, 2 * len(xy))
    return [VertebraKeypoints([[x, y, z[2 * i + 1 - j % 2]] for j in range(6)])
            for i, (x, y) in enumerate(xy)]


# The fewest slices a target spans, one slab, one slab and a slice, two slabs and a part.
HEATMAP_COUNTS = (2, HEATMAP_SLAB, HEATMAP_SLAB + 1, 2 * HEATMAP_SLAB + 5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.sampled_from(HEATMAP_COUNTS), nx=st.integers(4, 30), ny=st.integers(4, 30),
       sigma_vox=st.one_of(st.floats(0.3, 8.0), st.floats(0.004, 0.012)),
       moved=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_oracle_heatmaps_equal_the_per_slice_reference(n, nx, ny, sigma_vox, moved, seed):
    # The target stays on a voxel center up to the ``moved``-th of 4 vertebrae and
    # leaves it after: at a sigma of about a hundredth of a voxel the Gaussians
    # underflow from some slice on, which both must name.
    rng = np.random.default_rng(seed)
    xy = np.array([[nx // 2, ny // 2]] * 4, dtype=float)
    xy[moved:] += rng.uniform(-1.5, 1.5, (4 - moved, 2))
    anns = spine_through(xy, n - 1.0)
    vol = Volume3D(np.zeros((nx, ny, n + 5), np.float32), (1.0, 1.0, 1.0), (0.0, 0.0, -2.0))
    try:
        want = oracle_heatmaps_reference(anns, vol, sigma_vox)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            oracle_heatmaps(anns, vol, sigma_vox)
        assert str(got.value) == str(exc)
        return
    got = oracle_heatmaps(anns, vol, sigma_vox).values
    assert got.shape == (nx, ny, n) and got.flags.f_contiguous
    assert np.array_equal(got, want)


def test_oracle_heatmaps_memory_is_bounded_by_their_output():
    # The default chain's 54 x 54 x 95 stack is 1.1 MB of float32; one slab's float64
    # Gaussians are 0.37 MB, while the whole stack at once holds 2.2 MB of them.
    vol, anns, _ = generate_phantom(PhantomConfig(scoliosis_amplitude_mm=15.0))
    stack, peak = traced_peak(oracle_heatmaps, anns, working_grid(vol, PipelineConfig()))
    assert stack.shape[2] > 4 * HEATMAP_SLAB
    assert peak < 2 * stack.values.nbytes, (peak, stack.values.nbytes)


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
    sagittal = straighten_stage(vol, cfg, annotations=anns)
    return cfg, vol, anns, gs, sagittal


def test_oracle_predictions_recover_all_vertebrae():
    cfg, vol, anns, gs, sagittal = chain_fixture()
    anchors = image_anchors(sagittal, cfg)
    kps_px = [sagittal.transform.world_to_pixel(kps.as_array()) for kps in anns]
    objectness, offsets, _, _ = assign_targets(anchors, list(zip(kps_px, gs))).dense()
    got, _ = detect(objectness, offsets, anchors,
                    score_threshold=cfg.objectness_threshold, iou_threshold=cfg.nms_iou)
    assert len(got) == len(anns)
    got = sorted(got, key=lambda k: bbox_from_keypoints(k)[1])
    for kps, want in zip(got, kps_px):
        assert np.max(np.abs(kps - want)) < 1e-6


def test_oracle_predictions_empty_annotations():
    cfg, vol, anns, gs, sagittal = chain_fixture()
    anchors = image_anchors(sagittal, cfg)
    objectness, offsets, _, _ = assign_targets(anchors, []).dense()
    kps, scores = detect(objectness, offsets, anchors)
    assert kps.shape == (0, 6, 2) and scores.shape == (0,)


def test_oracle_predictions_perturbation_moves_decoded_linearly():
    cfg, vol, anns, gs, sagittal = chain_fixture()
    anchors = image_anchors(sagittal, cfg)
    kps_px = [sagittal.transform.world_to_pixel(kps.as_array()) for kps in anns]
    objectness, offsets, _, _ = assign_targets(anchors, list(zip(kps_px, gs))).dense()
    pos = np.argwhere(objectness == 1)[0]
    ix, iy, t = (int(v) for v in pos)
    centers, sides = anchors.locate([np.ravel_multi_index(pos, objectness.shape)])
    (w, h), = sides
    delta = 0.125

    def decode(off):
        return decode_keypoints(off[None], centers, sides)[0]

    base = decode(offsets[ix, iy, t])
    bumped = offsets[ix, iy, t].copy()
    bumped[:, 0] += delta
    moved = decode(bumped)
    np.testing.assert_allclose(moved[:, 0] - base[:, 0], delta * w, atol=1e-12)
    bumped[:, 1] += delta
    moved = decode(bumped)
    np.testing.assert_allclose(moved[:, 1] - base[:, 1], delta * h, atol=1e-12)
