"""One benchmark workload of spinequant, run in this process.

Started by ``run.py`` in a fresh child process per workload, with the BLAS
thread pools pinned to one thread and ``PYTHONPATH`` set to the checkout's
``src``.  It sets the workload up, runs whole cycles of operations in a
closed loop (one client, no threads) for about ``--seconds``, checks every
operation's output against the planted phantom, and prints a report whose
last line is the JSON result.  With ``--trace 1`` the untraced loop runs for
half the time, then one more cycle runs with every public layer function
wrapped (see ``tracing.py``); the run reports per-layer self times and work
counts per traced op, and the tracing overhead, instead of the end-to-end
metrics, which always come from untraced operations.  The end-to-end times
and the tracing overhead are corrected for the shared host's speed by a
reference loop run next to each op (see ``HOST_REFERENCE_S``), and the raw
times are printed beside them; per-layer self times are raw.

Workloads (why each exists is in BENCHMARK.json):

* ``chain_default``: ``pipeline.run_phantom_chain`` on the default phantom,
  scoliosis amplitude cycling 0/15/30 mm.
* ``cli_oracle``: the README's five-subcommand oracle run through
  ``cli.main`` in a fresh work directory per operation.
* ``rescore_eval``: three chains built during set-up; each operation rescores
  one with 0.5 mm keypoint noise and evaluates the studies so far.

Phantoms carry no intensity noise, so a phantom's seed does not change its
voxels; the workload seed sets the phantom and CLI seed and the order of the
operations in a cycle.  The keypoint-noise seeds come from a fixed pool that
every cycle covers, so accuracy metrics measure the program, not the draw.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import spinequant
from spinequant import PhantomConfig, cli, evaluation, pipeline
from spinequant.formats import write_json
from spinequant.pipeline import PipelineConfig

from tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

AMPLITUDES_MM = (0.0, 15.0, 30.0)
KEYPOINT_NOISE_MM = 0.5
NOISE_SEED_POOL = (1000, 1001)
MATCH_IOU = 0.5
MAX_GENANT_ERROR = 0.02       # acceptance criterion 6, noiseless workloads only
IMPORT_PROBES = 5

# The host is shared: a neighbour's load slows whole minutes of a run by up
# to ~1.7x, which no statistic over one run can remove.  So every op and the
# set-up are timed next to a fixed reference task (``host_seconds``), and the
# reported times are in seconds of a host that runs the reference in
# HOST_REFERENCE_S: raw seconds x HOST_REFERENCE_S / host_seconds.  Raw
# times are kept in the results file and printed in the report.
HOST_REFERENCE_S = 0.008      # host_seconds() on a quiet 2-vCPU Xeon VM
HOST_SAMPLES = 3              # reference loops per reading; the median is kept

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("genant_err_max", "G"),
    ("recall", "ratio"),
    ("precision", "ratio"),
)

# Per traced operation.  ``.s`` is self time, ``.calls`` a call count; the
# other counts are recorded by hooks in tracing.py.
PER_LAYER = (
    ("phantom.generate_phantom.s", "s"),
    ("phantom.oracle_heatmaps.s", "s"),
    ("core.resample_volume.s", "s"),
    ("core.resample_volume.calls", "count"),
    ("localization.slicewise_centerline.s", "s"),
    ("localization.upsample_curve.s", "s"),
    ("straighten.build_spine_curve.s", "s"),
    ("straighten.straighten_volume.s", "s"),
    ("straighten.samples", "count"),
    ("straighten.world_to_pixel.s", "s"),
    ("StraightenTransform.pixel_to_world.s", "s"),
    ("detection.assign_targets.s", "s"),
    ("detection.anchors", "count"),
    ("detection.positives", "count"),
    ("detection.detect.s", "s"),
    ("detection.nms.s", "s"),
    ("detection.iou_matrix.s", "s"),
    ("detection.iou_matrix.calls", "count"),
    ("detection.decode_keypoints.calls", "count"),
    ("detection.candidates", "count"),
    ("detection.kept", "count"),
    ("detection.kept_ratio", "ratio"),
    ("pipeline.run_phantom_chain.s", "s"),
    ("pipeline.extract_centerline.s", "s"),
    ("pipeline.straighten_stage.s", "s"),
    ("pipeline.targets_stage.s", "s"),
    ("pipeline.score_stage.s", "s"),
    ("pipeline.score_detections.s", "s"),
    ("pipeline.rescore_chain.s", "s"),
    ("evaluation.evaluate_study_set.s", "s"),
    ("evaluation.roc_auc.calls", "count"),
    ("formats.write_vg1.s", "s"),
    ("formats.read_vg1.s", "s"),
    ("formats.write_json.s", "s"),
    ("formats.bytes_written", "B"),
    ("formats.bytes_read", "B"),
    ("cli.phantom.s", "s"),
    ("cli.straighten.s", "s"),
    ("cli.targets.s", "s"),
    ("cli.score.s", "s"),
    ("cli.evaluate.s", "s"),
    ("trace.overhead", "ratio"),
)

# Counts derived from array sizes rather than observed work.
COMPUTED = ("straighten.samples", "detection.anchors", "formats.bytes_written",
            "formats.bytes_read")

# Counts that must repeat exactly for a given seed; printed per traced op.
DETERMINISTIC_COUNTS = (
    "core.resample_volume.calls", "straighten.samples", "detection.anchors",
    "detection.candidates", "detection.kept", "detection.iou_matrix.calls",
    "detection.decode_keypoints.calls", "formats.bytes_written",
)


@dataclass(frozen=True)
class Scale:
    """Overrides of the phantom and pipeline defaults; empty means the defaults."""

    phantom: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


DEFAULT_SCALE = Scale()


# ---------------------------------------------------------------------------
# Output check: planted vertebrae against the program's world keypoints
# ---------------------------------------------------------------------------

@dataclass
class OpCheck:
    tp: int
    fp: int
    fn: int
    genant_err_max: float | None   # over matched vertebrae
    problems: list[str]


def _sagittal_box(kps_mm) -> np.ndarray:
    """(y0, z0, y1, z1) corners of the world keypoints' sagittal-plane box."""
    yz = np.asarray(kps_mm, dtype=float).reshape(6, 3)[:, 1:]
    return np.concatenate([yz.min(axis=0), yz.max(axis=0)])


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def check_vertebrae(predicted, planted, max_genant_error: float | None) -> OpCheck:
    """Match predictions to planted vertebrae one to one, highest IoU first.

    Both arguments are lists of ``(keypoints_mm (6, 3), genant)``.  The op
    passes when every planted vertebra is matched at IoU > MATCH_IOU and,
    when ``max_genant_error`` is given, every matched |G_pred - G_planted|
    is within it.  The matching is written here, not taken from the
    program, so it can judge the program's own evaluation code.
    """
    pred_boxes = [_sagittal_box(k) for k, _ in predicted]
    true_boxes = [_sagittal_box(k) for k, _ in planted]
    pairs = sorted(((_iou(p, t), i, j) for i, p in enumerate(pred_boxes)
                    for j, t in enumerate(true_boxes)), key=lambda x: (-x[0], x[1], x[2]))
    used_p, used_t, errors = set(), set(), []
    for overlap, i, j in pairs:
        if overlap <= MATCH_IOU:
            break
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        errors.append(abs(float(predicted[i][1]) - float(planted[j][1])))
    tp = len(errors)
    result = OpCheck(tp, len(predicted) - tp, len(planted) - tp,
                     max(errors) if errors else None, [])
    if result.fn:
        result.problems.append(f"{result.fn} planted vertebrae unmatched")
    if max_genant_error is not None and errors and max(errors) > max_genant_error:
        result.problems.append(f"|dG| {max(errors):.4g} > {max_genant_error}")
    return result


def _digest_results(results) -> str:
    """sha256 of detections and grades, floats written exactly."""
    doc = [[r.score, np.asarray(r.keypoints_px).tolist(),
            np.asarray(r.keypoints_mm).tolist(), r.measurement.genant, r.measurement.grade]
           for r in results]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A closed-loop operation sequence; op ``i`` depends only on seed and i."""

    name = ""
    cycle = 1                   # ops with distinct inputs; runs cover whole cycles
    max_genant_error: float | None = MAX_GENANT_ERROR

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.cfg = PipelineConfig.from_dict({**PipelineConfig().to_dict(), **scale.config})

    def phantom_config(self, amplitude_mm: float) -> PhantomConfig:
        return PhantomConfig.from_dict({**PhantomConfig().to_dict(), **self.scale.phantom,
                                        "scoliosis_amplitude_mm": amplitude_mm,
                                        "seed": self.seed})

    def setup(self) -> None:
        """Work done once before the first op (counted in setup_s)."""

    def reset(self) -> None:
        """Forget per-phase state so a phase's op i repeats the first phase's."""

    def key(self, i: int) -> str:
        raise NotImplementedError

    def run(self, i: int, tracer: Tracer):
        """The timed operation; returns what ``outputs`` inspects."""
        raise NotImplementedError

    def outputs(self, i: int, out) -> tuple[list, list, str]:
        """(predicted, planted, digest) of an op's result, outside the timing."""
        raise NotImplementedError


class ChainDefault(Workload):
    name = "chain_default"
    cycle = len(AMPLITUDES_MM)

    def amplitude(self, i: int) -> float:
        return AMPLITUDES_MM[(i + self.seed) % self.cycle]

    def key(self, i):
        return f"amplitude_mm={self.amplitude(i):g}"

    def run(self, i, tracer):
        return pipeline.run_phantom_chain(self.phantom_config(self.amplitude(i)), self.cfg)

    def outputs(self, i, chain):
        predicted = [(r.keypoints_mm, r.measurement.genant) for r in chain.results]
        planted = [(a.as_array(), g) for a, g in zip(chain.annotations, chain.planted_genant)]
        return predicted, planted, _digest_results(chain.results)


class CliOracle(Workload):
    name = "cli_oracle"
    cycle = 1

    def setup(self):
        self.phantom_arg, self.extra = [], []
        if self.scale.phantom:
            write_json(self.workdir / "phantom.json", self.scale.phantom)
            self.phantom_arg = [str(self.workdir / "phantom.json")]
        if self.scale.config:
            write_json(self.workdir / "config.json", self.scale.config)
            self.extra = ["--config", str(self.workdir / "config.json")]

    def key(self, i):
        return "readme_oracle_run"

    def run(self, i, tracer):
        d = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        ph, st, tg, sc, ev = (str(d / n) for n in ("ph", "st", "tg", "sc", "ev"))
        steps = (
            ("phantom", [*self.phantom_arg, "--seed", str(self.seed), "--output", ph]),
            ("straighten", [f"{ph}/volume.vg1", "--heatmaps", f"{ph}/heatmaps.vg1",
                            "--output", st]),
            ("targets", [f"{st}/sagittal.vg1", f"{st}/transform.json", f"{ph}/gt.va1",
                         "--output", tg]),
            ("score", [f"{st}/sagittal.vg1", f"{st}/transform.json",
                       "--predictions", f"{tg}/targets.vg1", "--output", sc]),
            ("evaluate", [f"{sc}/detections.json", f"{ph}/gt.va1", "--output", ev]),
        )
        try:
            for command, argv in steps:
                with tracer.span(f"cli.{command}"):
                    code = cli.main([command, *argv, *self.extra])
                if code != 0:
                    raise RuntimeError(f"spinequant {command} exited with {code}")
        except BaseException:
            shutil.rmtree(d, ignore_errors=True)
            raise
        return d

    def outputs(self, i, d):
        try:
            digest = hashlib.sha256()
            for path in sorted(p for p in d.rglob("*") if p.is_file()):
                digest.update(path.relative_to(d).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
            dets = json.loads((d / "sc" / "detections.json").read_text())
            gt = json.loads((d / "ph" / "gt.va1").read_text())
            manifest = json.loads((d / "ph" / "phantom_manifest.json").read_text())
        finally:
            shutil.rmtree(d, ignore_errors=True)
        predicted = [(v["keypoints_world"], v["genant"]) for v in dets["vertebrae"]]
        planted = [(list(v["keypoints_mm"].values()), g)
                   for v, g in zip(gt["vertebrae"], manifest["planted_genant"])]
        return predicted, planted, digest.hexdigest()


class RescoreEval(Workload):
    name = "rescore_eval"
    cycle = len(AMPLITUDES_MM) * len(NOISE_SEED_POOL)
    max_genant_error = None    # keypoint noise moves G by up to ~0.16

    def setup(self):
        self.chains = [pipeline.run_phantom_chain(self.phantom_config(a), self.cfg)
                       for a in AMPLITUDES_MM]
        pool = [(c, n) for c in range(len(self.chains)) for n in NOISE_SEED_POOL]
        order = np.random.default_rng(self.seed).permutation(len(pool))
        self.schedule = [pool[k] for k in order]
        self.studies = []

    def reset(self):
        self.studies = []

    def key(self, i):
        c, noise_seed = self.schedule[i % self.cycle]
        return f"amplitude_mm={AMPLITUDES_MM[c]:g},noise_seed={noise_seed}"

    def run(self, i, tracer):
        c, noise_seed = self.schedule[i % self.cycle]
        chain = self.chains[c]
        _, results = pipeline.rescore_chain(chain, self.cfg,
                                            keypoint_noise_mm=KEYPOINT_NOISE_MM,
                                            noise_seed=noise_seed)
        self.studies.append(chain.study_for_evaluation(self.cfg, results=results))
        report, _ = evaluation.evaluate_study_set(
            self.studies, iou_threshold=self.cfg.match_iou,
            mild_cut=self.cfg.mild_cut, moderate_cut=self.cfg.moderate_cut)
        return chain, results, report

    def outputs(self, i, out):
        chain, results, report = out
        if report.tp + report.fn != len(self.studies) * len(chain.annotations):
            raise RuntimeError("evaluation report lost ground-truth vertebrae")
        predicted = [(r.keypoints_mm, r.measurement.genant) for r in results]
        planted = [(a.as_array(), g) for a, g in zip(chain.annotations, chain.planted_genant)]
        return predicted, planted, _digest_results(results)


WORKLOADS = {w.name: w for w in (ChainDefault, CliOracle, RescoreEval)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """Outcome of a run of ops: times, output checks and canonical digests."""

    times: list[float] = field(default_factory=list)      # host-corrected seconds
    failed: int = 0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    genant_err_max: float = 0.0
    digests: dict = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)
    last_host_s: float | None = None


def host_seconds() -> float:
    """Median wall time of a fixed loop of interpreted Python that calls no spinequant code.

    Its time follows the host's speed, not the program's.  On this benchmark's
    workloads it tracked the ops' own slow-downs more closely than numpy
    kernels on small, large or randomly gathered arrays did.
    """
    times = []
    for _ in range(HOST_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for x in range(120_000):
            acc += x * x % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_corrected(seconds: float, host_s: float) -> float:
    return seconds * HOST_REFERENCE_S / host_s


def run_op(wl: Workload, i: int, tracer: Tracer, phase: Phase) -> None:
    key = wl.key(i)
    record = {"op": i, "key": key}
    if phase.last_host_s is None:
        phase.last_host_s = host_seconds()
    t0 = time.perf_counter()
    try:
        tracer.op = i if tracer.enabled else None
        try:
            with tracer.span("op"):
                out = wl.run(i, tracer)
        finally:
            tracer.op = None
            record["seconds"] = time.perf_counter() - t0
        predicted, planted, digest = wl.outputs(i, out)
        check = check_vertebrae(predicted, planted, wl.max_genant_error)
        if phase.digests.setdefault(key, digest) != digest:
            check.problems.append("output differs from an earlier op with the same input")
        phase.tp += check.tp
        phase.fp += check.fp
        phase.fn += check.fn
        if check.genant_err_max is not None:
            phase.genant_err_max = max(phase.genant_err_max, check.genant_err_max)
        record.update(tp=check.tp, fp=check.fp, fn=check.fn,
                      genant_err_max=check.genant_err_max, problems=check.problems)
    except Exception:  # an op that raises is a failed op; the run goes on
        record.setdefault("seconds", time.perf_counter() - t0)
        record["problems"] = [traceback.format_exc()]
    if record["problems"]:
        phase.failed += 1
        print(f"op {i} ({key}) failed: {record['problems']}", file=sys.stderr)
    # Reference runs bracket every op; the op is corrected by their mean.
    after = host_seconds()
    record["host_s"] = (phase.last_host_s + after) / 2
    phase.last_host_s = after
    phase.times.append(host_corrected(record["seconds"], record["host_s"]))
    phase.records.append(record)


def measure(wl: Workload, seconds: float, tracer: Tracer) -> Phase:
    """Whole cycles until the next one would end past ``seconds`` (at least one)."""
    wl.reset()
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(wl.cycle):
            run_op(wl, i, tracer, phase)
            i += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return phase


def trace_cycle(wl: Workload, tracer: Tracer, untraced: Phase) -> tuple[Phase, list[dict]]:
    """Rerun the first cycle instrumented; returns it and each op's counts.

    An op whose output differs from the untraced op with the same input
    fails, so tracing cannot change what the program computes unnoticed.
    """
    wl.reset()
    traced = Phase(digests=dict(untraced.digests))
    per_op_counts = []
    with instrument(tracer):
        for i in range(wl.cycle):
            before = dict(tracer.counts)
            run_op(wl, i, tracer, traced)
            per_op_counts.append({"key": wl.key(i), **{
                c: tracer.counts.get(c, 0) - before.get(c, 0) for c in DETERMINISTIC_COUNTS}})
    return traced, per_op_counts


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    probe = [sys.executable, "-c", "import spinequant.cli, spinequant.pipeline"]
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run(probe, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end_metrics(phase: Phase, setup_s: float) -> dict:
    attempted = len(phase.times)
    ok = attempted - phase.failed
    return {
        "ops_per_s": ok / sum(phase.times),
        "op_s_p50": statistics.median(phase.times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok / attempted,
        "genant_err_max": phase.genant_err_max,
        "recall": phase.tp / (phase.tp + phase.fn) if phase.tp + phase.fn else 0.0,
        "precision": phase.tp / (phase.tp + phase.fp) if phase.tp + phase.fp else 0.0,
    }


def per_layer_metrics(tracer: Tracer, n_ops: int, overhead: float) -> dict:
    own = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead":
            out[name] = overhead
        elif name == "detection.kept_ratio":
            cand = counts["detection.candidates"]
            out[name] = counts["detection.kept"] / cand if cand else 0.0
        elif name.endswith(".s"):
            out[name] = own.get(name[:-2], 0.0) / n_ops
        else:
            out[name] = counts.get(name, 0) / n_ops
    return out


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; a note if there is none."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return head


def provenance(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = DEFAULT_SCALE, state_dir: Path = STATE_DIR) -> dict:
    """Run one workload and return the full result document."""
    workdir = state_dir / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        host = [host_seconds()]
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, scale, workdir)
        wl.setup()
        setup_raw_s = time.perf_counter() - t0
        host.append(host_seconds())
        setup_raw_s += import_seconds()
        host.append(host_seconds())
        setup_s = host_corrected(setup_raw_s, statistics.fmean(host))
        # A traced run spends half its time untraced, as the overhead reference.
        phase = measure(wl, seconds / 2 if trace else seconds, tracer)
        doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "provenance": provenance(seed), "phases": [phase.records],
               "digest": hashlib.sha256(
                   json.dumps(sorted(phase.digests.items())).encode()).hexdigest()}
        attempted, failed = len(phase.times), phase.failed
        if not trace:
            metrics = end_to_end_metrics(phase, setup_s)
            units = dict(END_TO_END)
        else:
            traced, per_op_counts = trace_cycle(wl, tracer, phase)
            untraced = statistics.fmean(phase.times)
            overhead = statistics.fmean(traced.times) / untraced - 1
            metrics = per_layer_metrics(tracer, wl.cycle, overhead)
            units = dict(PER_LAYER)
            attempted += len(traced.times)
            failed += traced.failed
            doc["phases"].append(traced.records)
            doc["per_op_counts"] = per_op_counts
            doc["traced_ops_per_s"] = 1 / statistics.fmean(traced.times)
            doc["untraced_ops_per_s"] = 1 / untraced
        raw = [r["seconds"] for r in phase.records]
        doc["raw"] = {"op_s_p50": statistics.median(raw), "ops_per_s": len(raw) / sum(raw),
                      "setup_s": setup_raw_s,
                      "host_s_p50": statistics.median(r["host_s"] for r in phase.records)}
        doc["n_ops"] = len(phase.times)
        doc["result"] = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        results = state_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
        if trace:
            tracer.write(results / f"{stem}.spans.jsonl")
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_lines(doc: dict) -> list[str]:
    """Human-readable summary printed before the JSON result line."""
    p = doc["provenance"]
    res = doc["result"]
    lines = [
        f"# workload {doc['workload']}  seed {doc['seed']}  seconds {doc['seconds']}"
        f"  trace {int(doc['trace'])}",
        f"# commit {p['commit']}  src {p['src_sha256'][:16]}  nproc {p['nproc']}"
        f"  python {p['python']}  numpy {p['numpy']}  scipy {p['scipy']}  threads "
        + ",".join(f"{k}={v}" for k, v in p["threads"].items()),
        f"# outputs digest {doc['digest']}",
        f"# attempted {res['attempted']}  failed {res['failed']}",
    ]
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_s_p50":
            note = f"  (median of n={doc['n_ops']} ops)"
        elif name in COMPUTED:
            note = "  (computed from array sizes)"
        lines.append(f"{name:40s} {m['value']:>16.10g} {m['unit']}{note}")
    raw = doc["raw"]
    lines.append(f"# raw, before host correction: op_s_p50 {raw['op_s_p50']:.4g} s  ops_per_s "
                 f"{raw['ops_per_s']:.4g} op/s  setup_s {raw['setup_s']:.4g} s  reference "
                 f"{raw['host_s_p50'] * 1e3:.4g} ms (HOST_REFERENCE_S {HOST_REFERENCE_S * 1e3:g} ms)")
    if doc["trace"]:
        lines.append(f"# traced ops/s {doc['traced_ops_per_s']:.4g} against untraced "
                     f"{doc['untraced_ops_per_s']:.4g}")
        for row in doc["per_op_counts"]:
            lines.append("# counts " + "  ".join(f"{k}={v}" for k, v in row.items()))
    return lines


def emit(doc: dict) -> None:
    """Print the report, then the JSON result as the last line."""
    for line in report_lines(doc):
        print(line)
    print(json.dumps(doc["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(spinequant.__file__).resolve().parent != ROOT / "src" / "spinequant":
        print(f"benchmark would measure {spinequant.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    emit(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
