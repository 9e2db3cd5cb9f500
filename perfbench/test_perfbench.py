"""Fast checks of the benchmark itself, on criterion 9's small phantom.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402

SMALL = bench.Scale(
    phantom={"n_vertebrae": 5, "shape": [80, 80, 144], "spacing": [1.25, 1.25, 1.25],
             "heights_mm": [[20.0, 20.0, 20.0], [16.4, 20.0, 20.0], [14.4, 20.0, 20.0],
                            [19.0, 20.0, 20.0], [11.0, 20.0, 20.0]]},
    config={"half_extent_mm": [35.0, 35.0]})


@pytest.fixture(autouse=True)
def no_import_probes(monkeypatch):
    monkeypatch.setattr(bench, "import_seconds", lambda: 0.5)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_code():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == dict(bench.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(workload, trace, tmp_path, capsys):
    doc = bench.run_workload(workload, seed=1, seconds=0.0, trace=trace,
                             scale=SMALL, state_dir=tmp_path)
    bench.emit(doc)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    assert (tmp_path / "results").is_dir()


def test_counts_repeat_exactly(tmp_path):
    runs = [bench.run_workload("chain_default", seed=2, seconds=0.0, trace=True,
                               scale=SMALL, state_dir=tmp_path / tag)
            for tag in ("a", "b")]
    assert runs[0]["per_op_counts"] == runs[1]["per_op_counts"]
    assert runs[0]["digest"] == runs[1]["digest"]
    for row in runs[0]["per_op_counts"]:
        assert row["core.resample_volume.calls"] == 2
        assert row["detection.iou_matrix.calls"] == row["detection.candidates"]


def test_check_catches_corrupted_result(tmp_path):
    wl = bench.ChainDefault(seed=0, scale=SMALL, workdir=tmp_path)
    predicted, planted, _ = wl.outputs(0, wl.run(0, bench.Tracer()))
    good = bench.check_vertebrae(predicted, planted, bench.MAX_GENANT_ERROR)
    assert not good.problems and good.fn == 0 and good.tp == len(planted)

    shifted = list(predicted)
    shifted[2] = (np.asarray(shifted[2][0]) + [0.0, 0.0, 15.0], shifted[2][1])
    assert bench.check_vertebrae(shifted, planted, bench.MAX_GENANT_ERROR).problems

    regraded = list(predicted)
    regraded[1] = (regraded[1][0], regraded[1][1] + 0.05)
    assert bench.check_vertebrae(regraded, planted, bench.MAX_GENANT_ERROR).problems
    assert not bench.check_vertebrae(regraded, planted, None).problems

    assert bench.check_vertebrae(predicted[1:], planted, bench.MAX_GENANT_ERROR).problems


def test_times_are_corrected_for_host_speed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "host_seconds", lambda: 2 * bench.HOST_REFERENCE_S)
    doc = bench.run_workload("chain_default", seed=1, seconds=0.0, trace=False,
                             scale=SMALL, state_dir=tmp_path)
    raw, metrics = doc["raw"], doc["result"]["metrics"]
    assert metrics["op_s_p50"]["value"] == pytest.approx(raw["op_s_p50"] / 2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] * 2)
    assert metrics["setup_s"]["value"] == pytest.approx(raw["setup_s"] / 2)


def test_changed_output_for_same_input_fails_the_op(tmp_path):
    wl = bench.ChainDefault(seed=0, scale=SMALL, workdir=tmp_path)
    phase = bench.Phase(digests={wl.key(0): "digest of an earlier, different output"})
    bench.run_op(wl, 0, bench.Tracer(), phase)
    assert phase.failed == 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain_default",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
