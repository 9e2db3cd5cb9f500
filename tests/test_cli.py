import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinequant.cli import main
from spinequant.formats import (FINITE_CHUNK, FormatError, read_vg1, write_json, write_va1,
                                write_vg1)
from spinequant.pipeline import PipelineConfig

from conftest import traced_peak
from test_genant import make_keypoints

PHANTOM = {
    "n_vertebrae": 6,
    "shape": [96, 96, 176],
    "spacing": [1.25, 1.25, 1.25],
    "scoliosis_amplitude_mm": 8.0,
    "heights_mm": [[20.0, 20.0, 20.0], [16.4, 20.0, 20.0], [19.0, 20.0, 20.0],
                   [15.2, 20.0, 20.0], [14.4, 20.0, 20.0], [11.0, 20.0, 20.0]],
    "seed": 9,
}
CONFIG = {"half_extent_mm": [40.0, 40.0]}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """phantom -> straighten -> targets -> score -> evaluate, all through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    write_json(root / "phantom.json", PHANTOM)
    write_json(root / "config.json", CONFIG)
    base = ["--config", root / "config.json"]

    assert run("phantom", root / "phantom.json", "--output", root / "ph", *base) == 0
    assert run("straighten", root / "ph" / "volume.vg1",
               "--heatmaps", root / "ph" / "heatmaps.vg1",
               "--output", root / "st", *base) == 0
    assert run("targets", root / "st" / "sagittal.vg1", root / "st" / "transform.json",
               root / "ph" / "gt.va1", "--output", root / "tg",
               "--loss", "--predictions", root / "tg_warmup", *base) == 2  # missing file
    assert run("targets", root / "st" / "sagittal.vg1", root / "st" / "transform.json",
               root / "ph" / "gt.va1", "--output", root / "tg", *base) == 0
    assert run("score", root / "st" / "sagittal.vg1", root / "st" / "transform.json",
               "--predictions", root / "tg" / "targets.vg1",
               "--output", root / "sc", *base) == 0
    assert run("evaluate", root / "sc" / "detections.json", root / "ph" / "gt.va1",
               "--output", root / "ev", *base) == 0
    return root


def test_compose_chain_outputs_exist(workspace):
    for rel in ("ph/volume.vg1", "ph/volume.vg1.raw", "ph/gt.va1", "ph/heatmaps.vg1",
                "ph/phantom_manifest.json", "st/sagittal.vg1", "st/transform.json",
                "tg/targets.vg1", "tg/targets_manifest.json",
                "sc/detections.json", "ev/report.json", "ev/report.txt"):
        assert (workspace / rel).exists(), rel


def test_compose_chain_recovers_planted_grades(workspace):
    manifest = json.loads((workspace / "ph" / "phantom_manifest.json").read_text())
    planted = sorted(manifest["planted_genant"])
    doc = json.loads((workspace / "sc" / "detections.json").read_text())
    got = sorted(v["genant"] for v in doc["vertebrae"])
    assert len(got) == PHANTOM["n_vertebrae"]
    np.testing.assert_allclose(got, planted, atol=0.02)
    assert doc["patient"]["genant"] == pytest.approx(min(planted), abs=0.02)
    assert doc["patient"]["grade"] == "severe"
    assert doc["config"]["half_extent_mm"] == [40.0, 40.0]


def test_compose_chain_report(workspace):
    doc = json.loads((workspace / "ev" / "report.json").read_text())
    rep = doc["report"]
    assert rep["detection"]["recall"] == 1.0
    assert rep["detection"]["precision"] == 1.0
    assert rep["detection"]["tp"] == PHANTOM["n_vertebrae"]
    assert rep["localization_mm"]["mean"] < 1.0
    assert rep["classification"]["moderate"]["vertebra"]["roc_auc"] == 1.0
    assert rep["classification"]["mild"]["vertebra"]["roc_auc"] == 1.0
    assert doc["undefined_metrics"] == []
    text = (workspace / "ev" / "report.txt").read_text()
    assert "roc_auc" in text


def test_targets_loss_at_clipping_floor(workspace, capsys):
    code = run("targets", workspace / "st" / "sagittal.vg1",
               workspace / "st" / "transform.json", workspace / "ph" / "gt.va1",
               "--output", workspace / "tg2", "--loss",
               "--predictions", workspace / "tg" / "targets.vg1",
               "--config", workspace / "config.json")
    assert code == 0
    out = capsys.readouterr().out
    assert "loss=" in out
    manifest = json.loads((workspace / "tg2" / "targets_manifest.json").read_text())
    # offsets pass through a float32 raster, so the floor is not exactly zero
    assert manifest["loss"]["regression"] == pytest.approx(0.0, abs=1e-6)
    assert 0 < manifest["loss"]["bce"] < 1e-5
    assert manifest["loss"]["total"] < 1e-5
    assert (workspace / "tg2" / "loss_grad.vg1").exists()


def test_score_bypass_annotations(workspace):
    code = run("score", workspace / "st" / "sagittal.vg1",
               workspace / "st" / "transform.json",
               "--annotations", workspace / "ph" / "gt.va1",
               "--output", workspace / "sc_ann", "--config", workspace / "config.json")
    assert code == 0
    doc = json.loads((workspace / "sc_ann" / "detections.json").read_text())
    manifest = json.loads((workspace / "ph" / "phantom_manifest.json").read_text())
    got = sorted(v["genant"] for v in doc["vertebrae"])
    np.testing.assert_allclose(got, sorted(manifest["planted_genant"]), atol=1e-9)
    assert all(v["score"] is None for v in doc["vertebrae"])


def test_score_zero_detections(workspace, tmp_path):
    from spinequant.core import Volume3D

    sagittal = read_vg1(workspace / "st" / "sagittal.vg1")
    targets = read_vg1(workspace / "tg" / "targets.vg1")
    silent = Volume3D(np.zeros_like(targets.values), targets.spacing, targets.origin)
    write_vg1(tmp_path / "silent.vg1", silent)
    code = run("score", workspace / "st" / "sagittal.vg1",
               workspace / "st" / "transform.json",
               "--predictions", tmp_path / "silent.vg1",
               "--output", tmp_path / "sc0", "--config", workspace / "config.json")
    assert code == 0
    doc = json.loads((tmp_path / "sc0" / "detections.json").read_text())
    assert doc["vertebrae"] == []
    assert doc["patient"] is None
    assert sagittal.shape[1:] == targets.shape[:2]


def test_score_drops_a_prediction_off_the_plane(workspace, tmp_path):
    # One stray box whose keypoints decode past the plane's anterior edge once
    # failed the whole study with exit 3.
    from spinequant import detection, pipeline
    from spinequant.core import Volume3D

    targets = read_vg1(workspace / "tg" / "targets.vg1")
    anchors = detection.generate_anchors(targets.shape[:2], targets.spacing[0])
    objectness, offsets, _ = (np.array(a) for a in pipeline.unpack_prediction_planes(
        targets.values, anchors.n_types))
    centers, sides = anchors.locate([0])
    stray = [[[x, y] for x in (-5.0, -3.0, -1.0) for y in (2.0, 8.0)]]
    objectness[0, 0, 0] = 1.0
    offsets[0, 0, 0] = detection.encode_keypoints(stray, centers, sides)[0]
    write_vg1(tmp_path / "stray.vg1", Volume3D(pipeline.pack_prediction_planes(
        objectness, offsets), targets.spacing, targets.origin))
    assert run("score", workspace / "st" / "sagittal.vg1", workspace / "st" / "transform.json",
               "--predictions", tmp_path / "stray.vg1", "--output", tmp_path / "sc",
               "--config", workspace / "config.json") == 0
    assert ((tmp_path / "sc" / "detections.json").read_bytes()
            == (workspace / "sc" / "detections.json").read_bytes())


def test_evaluate_multiple_studies_patient_level(workspace, tmp_path):
    # a fractured study plus a healthy one: patient-level AUC becomes defined
    healthy = [make_keypoints(20 - 0.4 * k, 20, 20, center=(60.0, 60.0, 40.0 + 24 * k))
               for k in range(3)]
    write_va1(tmp_path / "gt2.va1", healthy)
    det2 = {"config": {}, "vertebrae": [
        {"score": 1.0, "keypoints_world": kps.as_array().tolist(),
         "genant": (20 - 0.4 * k) / 20} for k, kps in enumerate(healthy)],
        "patient": None}
    write_json(tmp_path / "det2.json", det2)
    code = run("evaluate", workspace / "sc" / "detections.json",
               workspace / "ph" / "gt.va1", tmp_path / "det2.json",
               tmp_path / "gt2.va1", "--output", tmp_path / "ev2",
               "--config", workspace / "config.json")
    assert code == 0
    doc = json.loads((tmp_path / "ev2" / "report.json").read_text())
    pat = doc["report"]["classification"]["moderate"]["patient"]
    assert pat["n_positive"] == 1 and pat["n_negative"] == 1
    assert pat["roc_auc"] == 1.0
    # duplicating one study keeps patients single-class: flagged, exit 4
    det = workspace / "sc" / "detections.json"
    gt = workspace / "ph" / "gt.va1"
    assert run("evaluate", det, gt, det, gt, "--output", tmp_path / "ev3",
               "--config", workspace / "config.json") == 4


def test_straighten_writes_only_the_plane_and_transform(workspace):
    assert sorted(p.name for p in (workspace / "st").iterdir()) == \
        ["sagittal.vg1", "sagittal.vg1.raw", "transform.json"]
    sagittal = read_vg1(workspace / "st" / "sagittal.vg1")
    transform = json.loads((workspace / "st" / "transform.json").read_text())
    assert sorted(transform) == ["config", "delta", "j_half", "rows"]
    assert sagittal.shape == (1, 2 * transform["j_half"] + 1, len(transform["rows"]))


def test_score_reads_a_transform_that_still_holds_i_half(workspace, tmp_path):
    # transform.json files once also held "i_half": 0, the left-right half-width.
    doc = json.loads((workspace / "st" / "transform.json").read_text())
    write_json(tmp_path / "older.json", {"delta": doc["delta"], "i_half": 0, **doc})
    assert run("score", workspace / "st" / "sagittal.vg1", tmp_path / "older.json",
               "--predictions", workspace / "tg" / "targets.vg1", "--output", tmp_path / "sc",
               "--config", workspace / "config.json") == 0
    assert (tmp_path / "sc" / "detections.json").read_bytes() == \
        (workspace / "sc" / "detections.json").read_bytes()


def test_steep_scoliosis_straightens_from_both_inputs(tmp_path):
    # A centerline slope of 2 pi 40 / 80 ~ 3: a z-uniform arc-length table
    # alone places samples more than one step apart here.
    write_json(tmp_path / "phantom.json",
               {"scoliosis_amplitude_mm": 40.0, "scoliosis_wavelength_mm": 80.0})
    assert run("phantom", tmp_path / "phantom.json", "--output", tmp_path / "ph") == 0
    for flag, name in (("--heatmaps", "heatmaps.vg1"), ("--annotations", "gt.va1")):
        assert run("straighten", tmp_path / "ph" / "volume.vg1", flag, tmp_path / "ph" / name,
                   "--output", tmp_path / flag.strip("-")) == 0


SMALL_PHANTOM = {"n_vertebrae": 4, "shape": [64, 64, 128], "scoliosis_amplitude_mm": 5.0,
                 "seed": 2}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """64 x 64 x 128 phantom, straightened from its oracle heatmaps."""
    root = tmp_path_factory.mktemp("small")
    write_json(root / "phantom.json", SMALL_PHANTOM)
    assert run("phantom", root / "phantom.json", "--output", root / "ph") == 0
    assert run("straighten", root / "ph" / "volume.vg1",
               "--heatmaps", root / "ph" / "heatmaps.vg1", "--output", root / "st") == 0
    return root


@pytest.mark.parametrize("command, config", [
    ("straighten", '{"working_spacing_mm": 0}'),
    ("straighten", '{"delta_mm": 0}'),
    ("straighten", '{"nms_iou": 2}'),
    ("straighten", '{"half_extent_mm": [60, -5]}'),
    ("straighten", '{"half_extent_mm": [60]}'),
    ("targets", '{"anchor_scales_mm": []}'),
    ("straighten", '{"softargmax_temperature": NaN}'),
    ("straighten", '{"softargmax_mode": "bogus"}'),
    ("straighten", '{"smoothing_lambda": -1}'),
    # PipelineConfig has no seed: an echoed config that still carries one names it.
    ("straighten", '{"seed": NaN}'),
    ("straighten", '{"seed": 1e999}'),
    ("straighten", '{"seed": "x"}'),
    ("straighten", '{"delta_mm": true}'),
])
def test_unusable_config_exits_2(small, tmp_path, capsys, command, config):
    (tmp_path / "cfg.json").write_text(config)
    field = next(iter(json.loads(config)))
    if command == "straighten":
        inputs = [small / "ph" / "volume.vg1", "--heatmaps", small / "ph" / "heatmaps.vg1"]
    else:
        inputs = [small / "st" / "sagittal.vg1", small / "st" / "transform.json",
                  small / "ph" / "gt.va1"]
    code = run(command, *inputs, "--output", tmp_path / "o", "--config", tmp_path / "cfg.json")
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_straighten_accepts_the_largest_finite_smoothing_lambda(small, tmp_path):
    # Any finite smoothing_lambda is usable; this one smooths the centerline
    # to its least-squares line, so every row center lies on one line.
    (tmp_path / "cfg.json").write_text('{"smoothing_lambda": 1.7e308}')
    assert run("straighten", small / "ph" / "volume.vg1",
               "--heatmaps", small / "ph" / "heatmaps.vg1",
               "--output", tmp_path / "o", "--config", tmp_path / "cfg.json") == 0
    rows = json.loads((tmp_path / "o" / "transform.json").read_text())["rows"]
    c = np.array([row["c"] for row in rows])
    fit = np.polynomial.polynomial.polyfit(c[:, 2], c[:, :2], 1)
    assert np.max(np.abs(c[:, :2] - fit[0] - np.outer(c[:, 2], fit[1]))) < 1e-6


@pytest.mark.parametrize("flag", ["--spacing", "--delta", "--objectness-thresh", "--nms-iou",
                                  "--mild-cut", "--moderate-cut", "--severe-cut"])
def test_removed_config_flag_is_refused(small, tmp_path, capsys, flag):
    # Pipeline settings come only from --config; argparse refuses the old flags.
    with pytest.raises(SystemExit) as exc:
        run("straighten", small / "ph" / "volume.vg1", "--heatmaps", small / "ph" / "heatmaps.vg1",
            "--output", tmp_path / "o", flag, "0.5")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("target", ["volume", "heatmaps"])
def test_non_finite_input_volume_exits_2(small, tmp_path, capsys, target):
    from spinequant.core import Volume3D

    vols = {name: read_vg1(small / "ph" / f"{name}.vg1") for name in ("volume", "heatmaps")}
    values = vols[target].values.copy()
    if target == "volume":
        values[32, 32, 64] = np.nan
    else:
        values[:, :, values.shape[2] // 2] = np.nan  # one whole slice
    vols[target] = Volume3D(values, vols[target].spacing, vols[target].origin)
    for name, vol in vols.items():
        write_vg1(tmp_path / f"{name}.vg1", vol)
    code = run("straighten", tmp_path / "volume.vg1", "--heatmaps", tmp_path / "heatmaps.vg1",
               "--output", tmp_path / "o")
    assert code == 2
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", float("nan")),
    ("body_width_mm", float("nan")),
    ("n_vertebrae", 4.5),
    ("shape", [64, 64, 128.5]),
    ("noise_sigma", True),
    ("seed", True),
    ("heights_mm", []),
    ("heights_mm", [[True, 20.0, 20.0]]),
])
def test_non_finite_or_non_integer_phantom_field_exits_2(tmp_path, capsys, field, value):
    (tmp_path / "ph.json").write_text(json.dumps({**SMALL_PHANTOM, field: value}))
    assert run("phantom", tmp_path / "ph.json", "--output", tmp_path / "o") == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _nan_center(doc):
    doc["rows"][5]["c"][0] = float("nan")


def _zero_delta(doc):
    doc["delta"] = 0


def _zero_v_row(doc):
    doc["rows"][5]["v"] = [0.0, 0.0, 0.0]


def _repeated_s(doc):
    doc["rows"][5]["s"] = doc["rows"][4]["s"]


def _bool_delta(doc):
    doc["delta"] = True


def _string_s(doc):
    doc["rows"][5]["s"] = str(doc["rows"][5]["s"])


def _subnormal_delta(doc):
    doc["delta"] = 1e-308  # positive, but too small for pixel positions to stay finite


@pytest.mark.parametrize("command", ["targets", "score"])
@pytest.mark.parametrize("corrupt", [_nan_center, _zero_delta, _zero_v_row, _repeated_s,
                                     _bool_delta, _string_s, _subnormal_delta])
def test_corrupt_transform_exits_2(small, tmp_path, capsys, command, corrupt):
    doc = json.loads((small / "st" / "transform.json").read_text())
    corrupt(doc)
    (tmp_path / "transform.json").write_text(json.dumps(doc))
    if command == "targets":
        extra = [small / "ph" / "gt.va1"]
    else:
        extra = ["--annotations", small / "ph" / "gt.va1"]
    code = run(command, small / "st" / "sagittal.vg1", tmp_path / "transform.json", *extra,
               "--output", tmp_path / "o")
    assert code == 2
    assert "bad transform" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _volume_header(edit):
    """straighten on a copy of the phantom's volume.vg1 header after edit(header, tmp)."""
    def case(small, tmp):
        header = json.loads((small / "ph" / "volume.vg1").read_text())
        header["data"] = str(small / "ph" / "volume.vg1.raw")
        edit(header, tmp)
        (tmp / "v.vg1").write_text(json.dumps(header))
        return ["straighten", tmp / "v.vg1", "--annotations", small / "ph" / "gt.va1"]
    return case


def _edited_blob(edit):
    """_volume_header edit: the header names v.raw, the phantom's blob after edit(bytes)."""
    def header_edit(header, tmp):
        (tmp / "v.raw").write_bytes(edit(Path(header["data"]).read_bytes()))
        header["data"] = str(tmp / "v.raw")
    return header_edit


def _binary_header(small, tmp):
    (tmp / "v.vg1").write_bytes(bytes(range(128, 256)))
    return ["straighten", tmp / "v.vg1", "--annotations", small / "ph" / "gt.va1"]


def _zero_volume(shape, spacing):
    """straighten along the phantom's gt.va1 a zero VG1 volume of this shape and spacing."""
    def case(small, tmp):
        write_json(tmp / "v.vg1", {"shape": list(shape), "spacing": list(spacing),
                                   "origin": [0.0, 0.0, 0.0], "dtype": "f32", "data": "v.raw"})
        (tmp / "v.raw").write_bytes(bytes(4 * int(np.prod(shape))))
        return ["straighten", tmp / "v.vg1", "--annotations", small / "ph" / "gt.va1"]
    return case


def _file(name, text, argv):
    """Write text (a str, or a callable of the small workspace) to tmp/name, then run
    argv, where name is that file and "dir/file" entries are files of the workspace."""
    def case(small, tmp):
        (tmp / name).write_text(text(small) if callable(text) else text)
        return [tmp / a if a == name else small / a if "/" in a else a for a in argv]
    return case


def _annotations(edit, argv=("straighten", "ph/volume.vg1", "--annotations", "a.va1")):
    """argv, by default straighten, on a.va1, a copy of the phantom's gt.va1 after edit(doc)."""
    def text(small):
        doc = json.loads((small / "ph" / "gt.va1").read_text())
        edit(doc)
        return json.dumps(doc)
    return _file("a.va1", text, list(argv))


_SCORE_A_VA1 = ("score", "st/sagittal.vg1", "st/transform.json", "--annotations", "a.va1")


def _detections(edit):
    """evaluate a detections.json of one gt vertebra after edit(entry)."""
    def text(small):
        doc = json.loads((small / "ph" / "gt.va1").read_text())
        kps = doc["vertebrae"][0]["keypoints_mm"]
        entry = {"score": 1.0, "genant": 1.0,
                 "keypoints_world": [kps[k] for k in ("as", "ai", "ms", "mi", "ps", "pi")]}
        edit(entry)
        return json.dumps({"vertebrae": [entry]})
    return _file("d.json", text, ["evaluate", "d.json", "ph/gt.va1"])


def _tiny_delta(argv, delta=3e-308):
    """argv on the small workspace with t.json, its transform.json at a tiny delta; at
    3e-308, a normal float, the annotations' offsets over it overflow."""
    def text(small):
        doc = json.loads((small / "st" / "transform.json").read_text())
        doc["delta"] = delta
        return json.dumps(doc)
    return _file("t.json", text, argv)


def _zero_height(vertebrae):
    """The first vertebra's "ai" set to its "as": a zero anterior height."""
    kps = vertebrae[0]["keypoints_mm"]
    kps["ai"] = kps["as"]


def _scaled_by(factor):
    """Every keypoint coordinate of every vertebra times factor."""
    def edit(vertebrae):
        for v in vertebrae:
            v["keypoints_mm"] = {k: [c * factor for c in p] for k, p in v["keypoints_mm"].items()}
    return edit


def _edited_gt(edit, command):
    """command on a.va1, the phantom's gt.va1 after edit(its vertebrae); evaluate pairs it
    with a detections.json of none."""
    def case(small, tmp):
        doc = json.loads((small / "ph" / "gt.va1").read_text())
        edit(doc["vertebrae"])
        write_json(tmp / "a.va1", doc)
        write_json(tmp / "d.json", {"vertebrae": []})
        sagittal, transform = small / "st" / "sagittal.vg1", small / "st" / "transform.json"
        return {"score": ["score", sagittal, transform, "--annotations", tmp / "a.va1"],
                "targets": ["targets", sagittal, transform, tmp / "a.va1"],
                "evaluate": ["evaluate", tmp / "d.json", tmp / "a.va1"]}[command]
    return case


def _config(text, command):
    """command on the small workspace with c.json, holding text, as --config."""
    inputs = {"straighten": ["ph/volume.vg1", "--annotations", "ph/gt.va1"],
              "targets": ["st/sagittal.vg1", "st/transform.json", "ph/gt.va1"]}[command]
    return _file("c.json", text, [command, *inputs, "--config", "c.json"])


# (case, f(small, tmp) -> argv, exit code[, text the message holds]): malformed input
# ends in 2 or 3, never a traceback
MALFORMED_INPUTS = [
    ("vg1 shape of strings", _volume_header(lambda h, t: h.update(shape=["a", 2, 3])), 2),
    ("vg1 shape not a list", _volume_header(lambda h, t: h.update(shape=5)), 2),
    ("vg1 data not a string", _volume_header(lambda h, t: h.update(data=5)), 2),
    ("va1 vertebra not an object", _annotations(lambda doc: doc.update(vertebrae=[5])), 2),
    ("va1 keypoint a string",
     _annotations(lambda doc: doc["vertebrae"][0]["keypoints_mm"].update({"as": "abc"})), 2),
    ("va1 coordinate true",
     _annotations(lambda doc: doc["vertebrae"][0]["keypoints_mm"]["as"].__setitem__(0, True)), 2),
    ("va1 keypoint of strings",
     _annotations(lambda doc: doc["vertebrae"][0]["keypoints_mm"].update(
         {"as": [str(c) for c in doc["vertebrae"][0]["keypoints_mm"]["as"]]})), 2),
    ("detections a number", _file("d.json", "5", ["evaluate", "d.json", "ph/gt.va1"]), 2),
    ("detections score a string", _detections(lambda e: e.update(score="high")), 2),
    ("config a list", _file("c.json", "[]", ["straighten", "ph/volume.vg1", "--annotations",
                                             "ph/gt.va1", "--config", "c.json"]), 2),
    ("phantom config a list", _file("p.json", "[1, 2]", ["phantom", "p.json"]), 2),
    ("detections genant NaN", _detections(lambda e: e.update(genant=float("nan"))), 2),
    ("detections genant a string", _detections(lambda e: e.update(genant="0.9")), 2),
    ("detections null keypoint",
     _detections(lambda e: e["keypoints_world"][0].__setitem__(0, None)), 2),
    ("detections keypoint a numeric string",
     _detections(lambda e: e["keypoints_world"][0].__setitem__(0, "12.5")), 2),
    ("vg1 blob truncated", _volume_header(_edited_blob(lambda raw: raw[:len(raw) // 2])), 2,
     "does not match shape"),
    # The exact byte length is checked before the blob is mapped: no 1-3 trailing bytes are
    # dropped, and an empty file never reaches the map.
    ("vg1 blob one byte long", _volume_header(_edited_blob(lambda raw: raw + b"\0")), 2,
     "does not match shape"),
    ("vg1 blob empty", _volume_header(_edited_blob(lambda raw: b"")), 2, "does not match shape"),
    ("vg1 header not JSON", _file("v.vg1", '{"shape": [64, ', ["straighten", "v.vg1",
                                                                "--annotations", "ph/gt.va1"]), 2),
    ("vg1 header without data", _volume_header(lambda h, t: h.pop("data")), 2),
    ("vg1 negative shape", _volume_header(lambda h, t: h.update(shape=[-64, 64, 128])), 2),
    ("vg1 zero spacing", _volume_header(lambda h, t: h.update(spacing=[0.0, 1.25, 1.25])), 2),
    ("vg1 NaN spacing",
     _volume_header(lambda h, t: h.update(spacing=[float("nan"), 1.25, 1.25])), 2),
    ("vg1 infinite spacing",
     _volume_header(lambda h, t: h.update(spacing=[1.25, float("inf"), 1.25])), 2),
    ("vg1 spacing 1e308", _volume_header(lambda h, t: h.update(spacing=[1.25, 1.25, 1e308])), 2),
    ("vg1 bool spacing", _volume_header(lambda h, t: h.update(spacing=[True, 1.25, 1.25])), 2),
    ("vg1 origin of two entries", _volume_header(lambda h, t: h.update(origin=[0.0, 0.0])), 2),
    ("vg1 NaN origin",
     _volume_header(lambda h, t: h.update(origin=[0.0, float("nan"), 0.0])), 2),
    ("vg1 infinite origin",
     _volume_header(lambda h, t: h.update(origin=[0.0, 0.0, float("-inf")])), 2),
    ("vg1 header not UTF-8", _binary_header, 2),
    ("vg1 data a directory", _volume_header(lambda h, t: h.update(data=str(t))), 2),
    ("detections a list",
     _file("d.json", '[{"vertebrae": []}]', ["evaluate", "d.json", "ph/gt.va1"]), 2),
    ("detections without vertebrae", _file("d.json", "{}", ["evaluate", "d.json", "ph/gt.va1"]),
     2),
    ("va1 truncated",
     _file("a.va1", lambda small: (small / "ph" / "gt.va1").read_text()[:200],
           ["straighten", "ph/volume.vg1", "--annotations", "a.va1"]), 2),
    ("transform and sagittal swapped",
     lambda small, tmp: ["score", small / "st" / "transform.json", small / "st" / "sagittal.vg1",
                         "--annotations", small / "ph" / "gt.va1"], 2),
    ("predictions off the image",
     lambda small, tmp: ["score", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
                         "--predictions", small / "ph" / "heatmaps.vg1"], 3),
    ("heatmaps off the working grid",
     lambda small, tmp: ["straighten", small / "ph" / "volume.vg1",
                         "--heatmaps", small / "ph" / "volume.vg1"], 3),
    # Working grids of about 10^899, 2101^3 and 2001^3 voxels: refused before any array exists.
    ("vg1 spacing 1e300", _zero_volume((2, 3, 4), (1e300, 1e300, 1e300)), 3),
    ("vg1 spacing 100 mm", _zero_volume((64, 64, 64), (100.0, 100.0, 100.0)), 3),
    ("phantom spacing 400 mm",
     _file("p.json", '{"shape": [16, 16, 16], "spacing": [400.0, 400.0, 400.0]}',
           ["phantom", "p.json"]), 3),
    # The default phantom at 80 mm scoliosis: "spine does not fit" in the cross-section.
    ("phantom scoliosis 80 mm",
     _file("p.json", '{"scoliosis_amplitude_mm": 80.0}', ["phantom", "p.json"]), 2,
     "scoliosis_amplitude_mm"),
    ("phantom seed 10**400", lambda small, tmp: ["phantom", "--seed", str(10 ** 400)], 2,
     "--seed: bad phantom config (seed"),
    ("phantom seed -1, noisy",
     _file("p.json", '{"noise_sigma": 1.0}', ["phantom", "p.json", "--seed", "-1"]), 2,
     "p.json: bad phantom config (seed"),
    ("transform delta 3e-308, score",
     _tiny_delta(["score", "st/sagittal.vg1", "t.json", "--annotations", "ph/gt.va1"]), 3),
    ("transform delta 3e-308, targets",
     _tiny_delta(["targets", "st/sagittal.vg1", "t.json", "ph/gt.va1"]), 3),
    ("va1 zero height, score", _edited_gt(_zero_height, "score"), 3, "zero height"),
    ("va1 zero height, targets", _edited_gt(_zero_height, "targets"), 3, "zero height"),
    ("va1 zero height, evaluate", _edited_gt(_zero_height, "evaluate"), 3, "zero height"),
    # Heights whose squares overflow, and detection boxes whose areas do.
    ("va1 keypoints x 1e154, score", _edited_gt(_scaled_by(1e154), "score"), 3, "heights"),
    ("va1 keypoints x 1e154, targets", _edited_gt(_scaled_by(1e154), "targets"), 3, "heights"),
    ("va1 keypoints x 1e154, evaluate", _edited_gt(_scaled_by(1e154), "evaluate"), 3,
     "heights"),
    ("detections keypoints x 1e160",
     _detections(lambda e: e.update(keypoints_world=[[c * 1e160 for c in p]
                                                     for p in e["keypoints_world"]])), 3,
     "float range"),
    # Its sagittal box matches, but its distance to the ground truth overflows.
    ("detections keypoints 1e200 mm to the left",
     _detections(lambda e: e.update(keypoints_world=[[p[0] + 1e200, *p[1:]]
                                                     for p in e["keypoints_world"]])), 3,
     "localization errors"),
    # Planes of 10^10 pixels and 10^11 anchor offsets: refused before any array exists.
    ("config delta 0.001 mm", _config('{"delta_mm": 0.001}', "straighten"), 3, "delta_mm"),
    ("config half extent 1e9 mm", _config('{"half_extent_mm": [60, 1e9]}', "straighten"), 3,
     "half_extent_mm"),
    ("config 200000 anchor scales",
     _config(json.dumps({"anchor_scales_mm": [17.0] * 200000}), "targets"), 3,
     "anchor_scales_mm"),
    # Anchor offsets past the float32 range of targets.vg1: refused before the cast.
    ("config anchor ratio 1e300", _config('{"anchor_ratios": [1e300]}', "targets"), 3,
     "anchor_ratios"),
    ("config anchor ratio 1e-300", _config('{"anchor_ratios": [1e-300]}', "targets"), 3,
     "anchor_ratios"),
    ("config anchor scale 1e-300", _config('{"anchor_scales_mm": [1e-300]}', "targets"), 3,
     "anchor_scales_mm"),
    ("config anchor scale 5e-324", _config('{"anchor_scales_mm": [5e-324]}', "targets"), 3,
     "anchor_scales_mm"),
    # Paths that are directories, and JSON nested deeper than the parser recurses.
    ("detections a directory", lambda small, tmp: ["evaluate", tmp, small / "ph" / "gt.va1"], 2,
     "Is a directory"),
    ("transform a directory",
     lambda small, tmp: ["score", small / "st" / "sagittal.vg1", tmp,
                         "--annotations", small / "ph" / "gt.va1"], 2, "Is a directory"),
    ("heatmaps a directory",
     lambda small, tmp: ["straighten", small / "ph" / "volume.vg1", "--heatmaps", tmp], 2,
     "Is a directory"),
    ("detections nested 100,000 deep",
     _file("d.json", "[" * 100_000 + "]" * 100_000, ["evaluate", "d.json", "ph/gt.va1"]), 2,
     "maximum recursion depth"),
    ("va1 label NaN, score",
     _annotations(lambda doc: doc["vertebrae"][0].update(label=float("nan")), _SCORE_A_VA1), 2,
     "vertebra 0: 'label' must be a string or null"),
    ("va1 label a list, score",
     _annotations(lambda doc: doc["vertebrae"][0].update(label=["V1"]), _SCORE_A_VA1), 2,
     "vertebra 0: 'label' must be a string or null"),
    # A predictions file is only read for the loss: without --loss it is refused unopened.
    ("targets predictions without loss",
     lambda small, tmp: ["targets", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
                         small / "ph" / "gt.va1", "--predictions", tmp / "missing.vg1"], 2,
     "--predictions needs --loss"),
]


@pytest.mark.parametrize("build, code, text", [(*row[1:], "")[:3] for row in MALFORMED_INPUTS],
                         ids=[row[0] for row in MALFORMED_INPUTS])
def test_malformed_input_exits_without_traceback(small, tmp_path, capsys, build, code, text):
    # In-process, a traceback is an exception escaping main.
    assert run(*build(small, tmp_path), "--output", tmp_path / "o") == code
    err = capsys.readouterr().err
    assert err.startswith(("input error: ", "geometry error: ")) and "Traceback" not in err
    assert text in err
    assert not (tmp_path / "o").exists()


# Arbitrary JSON, plus values near the valid ones, for each field of a VG1 header.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6)
_TRIPLES = st.lists(st.floats() | st.integers() | st.booleans() | st.just(10 ** 400),
                    min_size=2, max_size=4)
_MISSING = object()
_HEADER_FIELDS = {
    "shape": st.permutations([1, 4, 6]) | st.sampled_from([[2, 3, 4], [24, 1, 1]])
    | st.lists(st.sampled_from([-2, 0, 1, 2, 3, 4, 2.0, True]), min_size=2, max_size=4),
    "spacing": _TRIPLES,
    "origin": _TRIPLES,
    "dtype": st.sampled_from(["f64", "<f4", "F32"]),
    "data": st.sampled_from(["missing.raw", "v.json", ".", ""]),
}
_VALID_HEADER = {"shape": [2, 3, 4], "spacing": [1.0, 1.0, 1.0], "origin": [0.0, 0.0, 0.0],
                 "dtype": "f32", "data": "v.raw"}


@st.composite
def _vg1_headers(draw):
    """A valid header for a 24-float blob with one or two fields replaced or dropped."""
    header = dict(_VALID_HEADER)
    for key in draw(st.sets(st.sampled_from(sorted(header)), min_size=1, max_size=2)):
        value = draw(_HEADER_FIELDS[key] | _JSON | st.just(_MISSING))
        if value is _MISSING:
            del header[key]
        else:
            header[key] = value
    return header


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_vg1_headers())
def test_fuzzed_vg1_header_exits_2_or_3(small, tmp_path_factory, header):
    # A 2 x 3 x 4 raster as predictions for the small sagittal image: read_vg1
    # raises only FormatError (exit 2), and a raster it accepts is off the image
    # (exit 3), so no header makes the CLI compute on it.
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "v.raw").write_bytes(np.arange(24, dtype="<f4").tobytes())
    (tmp / "v.json").write_text(json.dumps(header))
    try:
        read_vg1(tmp / "v.json")
        want = 3
    except FormatError:
        want = 2
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run("score", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
                   "--predictions", tmp / "v.json", "--output", tmp / "o")
    assert code == want, err.getvalue()
    assert err.getvalue().startswith(("input error: ", "geometry error: "))
    assert not (tmp / "o").exists()


def _run_quietly(*argv):
    """(exit code, stderr) of a CLI run."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(*argv)
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(sorted(PipelineConfig().to_dict())),
       _JSON | _TRIPLES | st.floats(-2, 2) | st.lists(st.floats(0, 80), max_size=3)
       | st.just(10 ** 400))
def test_fuzzed_pipeline_config_exits_cleanly(workspace, tmp_path_factory, field, value):
    # evaluate reads the whole config but computes little, so each example is
    # cheap.  A config PipelineConfig refuses exits 2 before any output; one it
    # accepts runs, and exits 4 (with its partial report) when the cuts leave
    # the workspace's vertebrae in one class.
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "c.json").write_text(json.dumps({**PipelineConfig().to_dict(), field: value}))
    try:
        PipelineConfig.from_dict(json.loads((tmp / "c.json").read_text()))
        want = (0, 4)
    except (TypeError, ValueError):
        want = (2,)
    code, err = _run_quietly("evaluate", workspace / "sc" / "detections.json",
                             workspace / "ph" / "gt.va1", "--config", tmp / "c.json",
                             "--output", tmp / "o")
    assert code in want, err
    assert code == 0 or err.startswith(("input error: ", "undefined metric: ")), err
    assert (tmp / "o").exists() == (code != 2)


_ANCHOR_SIZES = st.lists(st.floats(1e-6, 1e6) | st.sampled_from(
    [5e-324, 1e-300, 1e-150, 1e-40, 1e-36, 1e30, 1e150, 1e300, 1.7e308]), min_size=1, max_size=2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_ANCHOR_SIZES, _ANCHOR_SIZES)
def test_fuzzed_anchor_sizes_write_only_targets_score_reads(small, tmp_path_factory, scales,
                                                            ratios):
    # targets either refuses the anchors before any output exists (exit 3) or writes a
    # raster that score --predictions decodes under the same config.
    tmp = tmp_path_factory.mktemp("fuzz")
    write_json(tmp / "c.json", {"anchor_scales_mm": scales, "anchor_ratios": ratios})
    sagittal = [small / "st" / "sagittal.vg1", small / "st" / "transform.json"]
    code, err = _run_quietly("targets", *sagittal, small / "ph" / "gt.va1",
                             "--config", tmp / "c.json", "--output", tmp / "tg")
    assert code in (0, 3), err
    assert code == 0 or err.startswith("geometry error: "), err
    assert (tmp / "tg").exists() == (code == 0)
    if code == 0:
        code, err = _run_quietly("score", *sagittal, "--predictions", tmp / "tg" / "targets.vg1",
                                 "--config", tmp / "c.json", "--output", tmp / "sc")
        assert code == 0, err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(["delta", "j_half", "rows", "s", "c", "u", "v"]),
       st.integers(0, 2 ** 16), _JSON | _TRIPLES | st.floats(-300, 300) | st.integers(-2, 80)
       | st.lists(st.floats(-100, 100), min_size=3, max_size=3)
       | st.floats(0, 1e-300))
def test_fuzzed_transform_exits_0_2_or_3(small, tmp_path_factory, key, row, value):
    # score --annotations on the small image after one transform.json field,
    # or one entry of one row (s, c, u, v), is replaced.
    tmp = tmp_path_factory.mktemp("fuzz")
    doc = json.loads((small / "st" / "transform.json").read_text())
    if key in doc:
        doc[key] = value
    else:
        doc["rows"][row % len(doc["rows"])][key] = value
    (tmp / "t.json").write_text(json.dumps(doc))
    code, err = _run_quietly("score", small / "st" / "sagittal.vg1", tmp / "t.json",
                             "--annotations", small / "ph" / "gt.va1", "--output", tmp / "o")
    assert code in (0, 2, 3), err
    assert code == 0 or err.startswith(("input error: ", "geometry error: ")), err
    assert (tmp / "o").exists() == (code == 0)


_EXTREMES = st.sampled_from([-1.0, 0.0, 1e300, float("inf"), float("nan")])


# Deltas of 0.25 mm and up give the small phantom at most about 500 curve rows and a
# plane of 500 x 500 pixels; deltas under 1e-4 mm are all refused by the size budget.
@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.floats(0.25, 50) | st.floats(0, 1e-4) | _EXTREMES,
       st.tuples(st.floats(0, 60) | _EXTREMES, st.floats(0, 60) | _EXTREMES))
def test_fuzzed_straighten_grid_exits_0_2_or_3(small, tmp_path_factory, delta_mm,
                                               half_extent_mm):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "c.json").write_text(json.dumps({"delta_mm": delta_mm,
                                            "half_extent_mm": half_extent_mm}))
    code, err = _run_quietly("straighten", small / "ph" / "volume.vg1",
                             "--annotations", small / "ph" / "gt.va1",
                             "--config", tmp / "c.json", "--output", tmp / "o")
    assert code in (0, 2, 3), err
    assert code == 0 or err.startswith(("input error: ", "geometry error: ")), err
    assert (tmp / "o").exists() == (code == 0)


# The phantom and config of acceptance criterion 9.
CRITERION_9_PHANTOM = {"n_vertebrae": 5, "shape": [80, 80, 144], "spacing": [1.25, 1.25, 1.25],
                       "scoliosis_amplitude_mm": 9.0, "seed": 13,
                       "heights_mm": [[20.0, 20.0, 20.0], [16.4, 20.0, 20.0],
                                      [14.4, 20.0, 20.0], [19.0, 20.0, 20.0],
                                      [11.0, 20.0, 20.0]]}


@pytest.fixture(scope="module")
def criterion_9_peaks(tmp_path_factory):
    """Criterion 9's oracle run through the CLI, with the peak of each step."""
    root = tmp_path_factory.mktemp("peaks")
    write_json(root / "phantom.json", CRITERION_9_PHANTOM)
    write_json(root / "config.json", {"half_extent_mm": [35.0, 35.0]})
    cfg = ["--config", root / "config.json"]
    assert run("phantom", root / "phantom.json", "--output", root / "ph", *cfg) == 0
    sagittal = [root / "st" / "sagittal.vg1", root / "st" / "transform.json"]
    steps = {
        "straighten": ["straighten", root / "ph" / "volume.vg1",
                       "--heatmaps", root / "ph" / "heatmaps.vg1", "--output", root / "st"],
        "targets": ["targets", *sagittal, root / "ph" / "gt.va1", "--output", root / "tg"],
        "score": ["score", *sagittal, "--predictions", root / "tg" / "targets.vg1",
                  "--output", root / "sc"],
    }
    peaks = {}
    for name, argv in steps.items():
        code, peaks[name] = traced_peak(run, *argv, *cfg)
        assert code == 0, name
    return root, peaks


def test_score_predictions_peak_memory_stays_near_the_raster(criterion_9_peaks):
    root, peaks = criterion_9_peaks
    # The raster maps its file and is decoded in place: no copy of it, no float64 or
    # reordered one, and no raster-sized finiteness mask.
    assert peaks["score"] <= 0.6 * (root / "tg" / "targets.vg1.raw").stat().st_size


def test_targets_peak_memory_stays_near_the_raster(criterion_9_peaks):
    root, peaks = criterion_9_peaks
    # The float64 targets are 2.1x the float32 raster they are packed into;
    # the assignment adds no anchor-sized temporaries beyond that.
    assert peaks["targets"] <= 4.0 * (root / "tg" / "targets.vg1.raw").stat().st_size


def test_straighten_peak_memory_stays_near_the_volume(criterion_9_peaks):
    root, peaks = criterion_9_peaks
    # The volume maps its file, with no copy and no volume-sized finiteness mask; the
    # working grid holds geometry only, no voxel values.
    assert peaks["straighten"] <= 0.5 * (root / "ph" / "volume.vg1.raw").stat().st_size


def _loss_run(small, annotations, predictions, out, capsys):
    """targets --loss on the small image: (printed line, manifest loss block)."""
    assert run("targets", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
               annotations, "--loss", "--predictions", predictions, "--output", out) == 0
    manifest = json.loads((out / "targets_manifest.json").read_text())
    return capsys.readouterr().out, manifest["loss"]


def test_targets_loss_reads_predictions_it_overwrites_as_they_were(small, tmp_path, capsys):
    # targets.vg1 is both the predictions and an output.  Its predictions, from all of
    # gt.va1, are scored against the targets of every vertebra but the first: writing the
    # new targets must not reach the mapped predictions the loss reads afterwards.
    assert run("targets", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
               small / "ph" / "gt.va1", "--output", tmp_path / "tg") == 0
    doc = json.loads((small / "ph" / "gt.va1").read_text())
    doc["vertebrae"] = doc["vertebrae"][1:]
    write_json(tmp_path / "a.va1", doc)
    (tmp_path / "copy").mkdir()
    for name in ("targets.vg1", "targets.vg1.raw"):
        (tmp_path / "copy" / name).write_bytes((tmp_path / "tg" / name).read_bytes())
    want = _loss_run(small, tmp_path / "a.va1", tmp_path / "copy" / "targets.vg1",
                     tmp_path / "elsewhere", capsys)
    got = _loss_run(small, tmp_path / "a.va1", tmp_path / "tg" / "targets.vg1",
                    tmp_path / "tg", capsys)
    assert got == want and want[1]["bce"] > 1e-3
    for name in ("targets.vg1.raw", "loss_grad.vg1.raw"):
        assert ((tmp_path / "tg" / name).read_bytes()
                == (tmp_path / "elsewhere" / name).read_bytes()), name
    assert not list(tmp_path.rglob("*.tmp"))


_CHUNK_EDGES = {"last voxel of the first chunk": FINITE_CHUNK - 1,
                "first voxel of the second chunk": FINITE_CHUNK, "last voxel": -1}


@pytest.mark.parametrize("index", sorted(_CHUNK_EDGES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_voxel_past_the_first_chunk_exits_2(small, tmp_path, capsys, index, bad):
    from spinequant.core import Volume3D

    # A raster of one chunk and five voxels more, checked chunk by chunk.
    values = np.ones((FINITE_CHUNK + 5, 1, 1), dtype=np.float32)
    values[_CHUNK_EDGES[index]] = bad
    write_vg1(tmp_path / "p.vg1", Volume3D(values, (1, 1, 1)))
    with pytest.raises(FormatError, match="NaN or infinite"):
        read_vg1(tmp_path / "p.vg1")
    assert run("score", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
               "--predictions", tmp_path / "p.vg1", "--output", tmp_path / "o") == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_working_spacing_reaches_phantom_and_straighten(tmp_path):
    # Both subcommands use the one working grid that --config sets;
    # heatmaps made on another grid are refused before any output exists.
    write_json(tmp_path / "phantom.json", CRITERION_9_PHANTOM)
    write_json(tmp_path / "c.json", {"working_spacing_mm": 2.5})
    cfg = ["--config", tmp_path / "c.json"]
    assert run("phantom", tmp_path / "phantom.json", "--output", tmp_path / "ph3") == 0
    assert run("phantom", tmp_path / "phantom.json", "--output", tmp_path / "ph", *cfg) == 0
    assert run("straighten", tmp_path / "ph" / "volume.vg1", "--heatmaps",
               tmp_path / "ph" / "heatmaps.vg1", "--output", tmp_path / "st", *cfg) == 0
    code, err = _run_quietly("straighten", tmp_path / "ph3" / "volume.vg1", "--heatmaps",
                             tmp_path / "ph3" / "heatmaps.vg1", "--output", tmp_path / "o", *cfg)
    assert code == 3 and "does not match the working grid" in err, err
    assert not (tmp_path / "o").exists()


def test_targets_without_vertebrae_are_all_negative(small, tmp_path):
    write_json(tmp_path / "a.va1", {"vertebrae": []})
    assert run("targets", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
               tmp_path / "a.va1", "--output", tmp_path / "o") == 0
    manifest = json.loads((tmp_path / "o" / "targets_manifest.json").read_text())
    assert manifest["n_positive"] == 0 and manifest["n_anchors"] > 0
    assert not np.any(read_vg1(tmp_path / "o" / "targets.vg1").values)


def _run_fresh(*argv, cwd):
    """The CLI in a fresh interpreter, whose warnings reach stderr."""
    return subprocess.run([sys.executable, "-m", "spinequant.cli", *map(str, argv)],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_malformed_input_exit_code_in_a_fresh_process(small, tmp_path):
    (tmp_path / "c.json").write_text("[]")
    proc = _run_fresh("evaluate", "d.json", "gt.va1", "--config", "c.json", "--output", "o",
                      cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "expected a JSON object" in proc.stderr
    # Overflowing pixel positions and anchor areas: no numpy warning comes before the
    # message.
    assert run("targets", small / "st" / "sagittal.vg1", small / "st" / "transform.json",
               small / "ph" / "gt.va1", "--output", tmp_path / "tg") == 0
    predictions = str(tmp_path / "tg" / "targets.vg1")  # absolute, so _file keeps it
    for command, delta in (
            (["score", "st/sagittal.vg1", "t.json", "--annotations", "ph/gt.va1"], 3e-308),
            (["targets", "st/sagittal.vg1", "t.json", "ph/gt.va1"], 3e-308),
            (["score", "st/sagittal.vg1", "t.json", "--predictions", predictions], 1e-300)):
        proc = _run_fresh(*_tiny_delta(command, delta)(small, tmp_path), "--output", "o",
                          cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("geometry error: ") and "\n" not in proc.stderr[:-1]


README_ORACLE_RUN = """
import sys
from spinequant.cli import main
for argv in ("phantom --output ph",
             "straighten ph/volume.vg1 --heatmaps ph/heatmaps.vg1 --output st",
             "targets st/sagittal.vg1 st/transform.json ph/gt.va1 --output tg",
             "score st/sagittal.vg1 st/transform.json --predictions tg/targets.vg1 --output sc",
             "evaluate sc/detections.json ph/gt.va1 --output ev"):
    assert main(argv.split()) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_readme_oracle_run_imports_no_scipy(tmp_path):
    # The runtime is numpy only; scipy is a test oracle.
    proc = subprocess.run([sys.executable, "-c", README_ORACLE_RUN], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_missing_input_exits_2(tmp_path):
    assert run("straighten", tmp_path / "nope.vg1", "--annotations",
               tmp_path / "nope.va1", "--output", tmp_path / "o") == 2


@pytest.mark.parametrize("output", ["a file", "below a file"])
def test_unusable_output_path_exits_2(small, tmp_path, capsys, output):
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" if output == "a file" else tmp_path / "f" / "sub"
    assert run("straighten", small / "ph" / "volume.vg1", "--annotations",
               small / "ph" / "gt.va1", "--output", out) == 2
    assert run("phantom", small / "phantom.json", "--output", out) == 2
    err = capsys.readouterr().err
    assert err.count("input error: ") == 2 and "Traceback" not in err
    assert (tmp_path / "f").read_text() == ""


def test_malformed_volume_exits_2(tmp_path):
    bad = tmp_path / "bad.vg1"
    bad.write_text("{\"shape\": [1]}")
    assert run("straighten", bad, "--annotations", bad, "--output", tmp_path / "o") == 2


def test_invalid_phantom_config_exits_2(tmp_path):
    write_json(tmp_path / "ph.json", {"pitch_mm": 10.0})  # bodies overlap
    assert run("phantom", tmp_path / "ph.json", "--output", tmp_path / "o") == 2


def test_degenerate_centerline_exits_3(tmp_path):
    rng = np.random.default_rng(0)
    from spinequant.core import Volume3D

    vol = Volume3D(rng.normal(size=(32, 32, 48)).astype(np.float32), (1.25, 1.25, 1.25))
    write_vg1(tmp_path / "vol.vg1", vol)
    # annotation span of 2 mm covers fewer than four output slices
    write_va1(tmp_path / "flat.va1",
              [make_keypoints(2.0, 2.0, 2.0, center=(20.0, 20.0, 30.0))])
    assert run("straighten", tmp_path / "vol.vg1", "--annotations",
               tmp_path / "flat.va1", "--output", tmp_path / "o") == 3


def test_heatmap_grid_mismatch_exits_3(workspace, tmp_path):
    from spinequant.core import Volume3D

    wrong = Volume3D(np.ones((10, 10, 5), dtype=np.float32), (3.0, 3.0, 3.0))
    write_vg1(tmp_path / "wrong.vg1", wrong)
    assert run("straighten", workspace / "ph" / "volume.vg1",
               "--heatmaps", tmp_path / "wrong.vg1",
               "--output", tmp_path / "o", "--config", workspace / "config.json") == 3


def test_transform_sagittal_mismatch_exits_3(workspace, tmp_path):
    other = json.loads((workspace / "st" / "transform.json").read_text())
    other["rows"] = other["rows"][:10]
    write_json(tmp_path / "short.json", other)
    assert run("score", workspace / "st" / "sagittal.vg1", tmp_path / "short.json",
               "--annotations", workspace / "ph" / "gt.va1",
               "--output", tmp_path / "o") == 3


def test_single_class_gt_exits_4_with_partial_report(workspace, tmp_path):
    healthy = [make_keypoints(20, 20, 20, center=(60.0, 60.0, 40.0 + 24 * k))
               for k in range(3)]
    write_va1(tmp_path / "healthy.va1", healthy)
    det = {"config": {}, "vertebrae": [
        {"score": 1.0, "keypoints_world": kps.as_array().tolist(), "genant": 1.0}
        for kps in healthy], "patient": None}
    write_json(tmp_path / "det.json", det)
    code = run("evaluate", tmp_path / "det.json", tmp_path / "healthy.va1",
               "--output", tmp_path / "ev")
    assert code == 4
    doc = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert doc["report"]["detection"]["recall"] == 1.0  # partial report still written
    assert doc["report"]["classification"]["moderate"]["vertebra"] is None
    assert doc["undefined_metrics"]


def test_identity_straightening_of_straight_phantom(tmp_path):
    # voxel-aligned straight phantom: the sagittal image equals the original
    # central sagittal plane on the sampled window
    phantom = {"n_vertebrae": 4, "shape": [129, 129, 193], "spacing": [1.0, 1.0, 1.0],
               "scoliosis_amplitude_mm": 0.0, "seed": 4}
    write_json(tmp_path / "ph.json", phantom)
    assert run("phantom", tmp_path / "ph.json", "--output", tmp_path / "ph") == 0
    assert run("straighten", tmp_path / "ph" / "volume.vg1",
               "--annotations", tmp_path / "ph" / "gt.va1",
               "--output", tmp_path / "st") == 0
    sagittal = read_vg1(tmp_path / "st" / "sagittal.vg1")
    transform = json.loads((tmp_path / "st" / "transform.json").read_text())
    vol = read_vg1(tmp_path / "ph" / "volume.vg1")
    rows = transform["rows"]
    z0 = int(round(rows[0]["c"][2]))
    assert rows[0]["c"][0] == pytest.approx(64.0, abs=1e-9)
    n_rows = len(rows)
    j_half = transform["j_half"]
    window = vol.values[64, 64 - j_half:64 + j_half + 1, z0:z0 + n_rows]
    np.testing.assert_allclose(sagittal.values[0], window, atol=1e-5)


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_commands_are_byte_deterministic(tmp_path):
    write_json(tmp_path / "ph.json", PHANTOM)
    write_json(tmp_path / "cfg.json", CONFIG)
    outs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert run("phantom", tmp_path / "ph.json", "--output", d / "ph",
                   "--config", tmp_path / "cfg.json") == 0
        assert run("straighten", d / "ph" / "volume.vg1", "--heatmaps",
                   d / "ph" / "heatmaps.vg1", "--output", d / "st",
                   "--config", tmp_path / "cfg.json") == 0
        assert run("targets", d / "st" / "sagittal.vg1", d / "st" / "transform.json",
                   d / "ph" / "gt.va1", "--output", d / "tg",
                   "--config", tmp_path / "cfg.json") == 0
        assert run("score", d / "st" / "sagittal.vg1", d / "st" / "transform.json",
                   "--predictions", d / "tg" / "targets.vg1", "--output", d / "sc",
                   "--config", tmp_path / "cfg.json") == 0
        assert run("evaluate", d / "sc" / "detections.json", d / "ph" / "gt.va1",
                   "--output", d / "ev", "--config", tmp_path / "cfg.json") == 0
        outs.append(_tree_bytes(d))
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], f"{name} differs between runs"


def test_echoed_config_reproduces_run(workspace, tmp_path):
    # feed the echoed config of transform.json back in: byte-identical outputs
    code = run("straighten", workspace / "ph" / "volume.vg1",
               "--heatmaps", workspace / "ph" / "heatmaps.vg1",
               "--output", tmp_path / "st2",
               "--config", workspace / "st" / "transform.json")
    assert code == 0
    for name in ("sagittal.vg1", "sagittal.vg1.raw", "transform.json"):
        assert (tmp_path / "st2" / name).read_bytes() == \
            (workspace / "st" / name).read_bytes()
