"""Command-line interface over the VG1/VA1 file formats.

Subcommands mirror the pipeline stages::

    spinequant phantom    [config.json] [--seed N] --output DIR
    spinequant straighten volume.vg1 (--heatmaps H.vg1 | --annotations A.va1) --output DIR
    spinequant targets    sagittal.vg1 transform.json gt.va1 --output DIR [--loss ...]
    spinequant score      sagittal.vg1 transform.json
                          (--predictions P.vg1 | --annotations A.va1) --output DIR
    spinequant evaluate   detections.json gt.va1 [det2.json gt2.va1 ...] --output DIR

Every subcommand also takes ``--config CONFIG.json``, the only way in for
pipeline settings: a JSON object holding any subset of the
``PipelineConfig`` fields (an echoed ``config`` block works as-is).  The
phantom's own description, and ``--seed``, go into one ``PhantomConfig``.

Exit codes: 0 ok, 2 bad input file, configuration or output path, 3 geometry/shape
failure, 4 a requested metric is undefined (a partial report is still
written).  All outputs are deterministic for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, genant, pipeline
from .core import GeometryError, UndefinedMetricError, Volume3D, finite_numbers
from .formats import (FormatError, read_json, read_va1, read_vg1, write_json, write_va1,
                      write_vg1)
from .phantom import PhantomConfig
from .pipeline import PipelineConfig
from .straighten import StraightenedImage, StraightenTransform

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_UNDEFINED_METRIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinequant",
        description="Spine straightening, vertebra detection and Genant grading")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON pipeline config: any subset of its fields "
                            "(a previously echoed one works)")
        p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("phantom", help="generate a synthetic spine with oracle files")
    p.add_argument("phantom_config", type=Path, nargs="?", default=None,
                   help="JSON phantom description (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=None, help="the phantom's seed")
    add_common(p)

    p = sub.add_parser("straighten", help="centerline extraction and straightening")
    p.add_argument("volume", type=Path)
    p.add_argument("--heatmaps", type=Path, default=None)
    p.add_argument("--annotations", type=Path, default=None)
    add_common(p)

    p = sub.add_parser("targets", help="detection targets and loss utilities")
    p.add_argument("sagittal", type=Path)
    p.add_argument("transform", type=Path)
    p.add_argument("annotations", type=Path)
    p.add_argument("--loss", action="store_true",
                   help="also evaluate the detection loss of --predictions")
    p.add_argument("--predictions", type=Path, default=None)
    add_common(p)

    p = sub.add_parser("score", help="detect vertebrae and grade fractures")
    p.add_argument("sagittal", type=Path)
    p.add_argument("transform", type=Path)
    p.add_argument("--predictions", type=Path, default=None)
    p.add_argument("--annotations", type=Path, default=None)
    add_common(p)

    p = sub.add_parser("evaluate", help="compare detections against ground truth")
    p.add_argument("pairs", type=Path, nargs="+",
                   help="alternating detections.json gt.va1 paths")
    add_common(p)
    return parser


def resolve_config(args) -> PipelineConfig:
    """The ``--config`` file (or its echoed ``config`` block) over the defaults."""
    if args.config is None:
        return PipelineConfig()
    doc = read_json(args.config)
    if isinstance(doc.get("config"), dict):
        doc = doc["config"]
    try:
        return PipelineConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{args.config}: bad pipeline config ({exc})") from exc


def cmd_phantom(args) -> int:
    cfg = resolve_config(args)
    doc = {} if args.phantom_config is None else read_json(args.phantom_config)
    seed = {} if args.seed is None else {"seed": args.seed}
    try:
        phantom_cfg = PhantomConfig.from_dict({**doc.get("phantom", doc), **seed})
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"{args.phantom_config or '--seed'}: bad phantom config ({exc})") from exc
    volume, annotations, planted, heatmaps = pipeline.oracle_phantom(phantom_cfg, cfg)
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    write_vg1(out / "volume.vg1", volume)
    write_va1(out / "gt.va1", annotations)
    write_vg1(out / "heatmaps.vg1", heatmaps)
    write_json(out / "phantom_manifest.json", {
        "config": cfg.to_dict(),
        "phantom": phantom_cfg.to_dict(),
        "planted_genant": [float(g) for g in planted],
        "files": ["gt.va1", "heatmaps.vg1", "volume.vg1"],
    })
    return EXIT_OK


def cmd_straighten(args) -> int:
    cfg = resolve_config(args)
    if (args.heatmaps is None) == (args.annotations is None):
        raise FormatError("provide exactly one of --heatmaps or --annotations")
    volume = read_vg1(args.volume)
    heatmaps = read_vg1(args.heatmaps) if args.heatmaps else None
    annotations = read_va1(args.annotations) if args.annotations else None
    sagittal = pipeline.straighten_stage(volume, cfg, heatmaps=heatmaps,
                                         annotations=annotations)
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    t = sagittal.transform
    write_vg1(out / "sagittal.vg1",
              Volume3D(sagittal.values[None, :, :],
                       (t.delta, t.delta, float(t.s[1] - t.s[0])),
                       (0.0, -t.j_half * t.delta, float(t.s[0]))))
    doc = t.to_dict()
    doc["config"] = cfg.to_dict()
    write_json(out / "transform.json", doc)
    return EXIT_OK


def _read_sagittal_and_transform(sagittal_path: Path,
                                 transform_path: Path) -> StraightenedImage:
    sagittal_vol = read_vg1(sagittal_path)
    if sagittal_vol.shape[0] != 1:
        raise GeometryError(f"{sagittal_path}: expected a single sagittal plane")
    doc = read_json(transform_path)
    try:
        transform = StraightenTransform.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{transform_path}: bad transform ({exc})") from exc
    values = np.asarray(sagittal_vol.values[0], dtype=np.float32)
    if values.shape != (transform.n_ap, transform.n_rows):
        raise GeometryError(
            f"sagittal image {values.shape} does not match the transform "
            f"({transform.n_ap}, {transform.n_rows})")
    return StraightenedImage(values, transform)


def _read_predictions(path: Path, sagittal, n_types: int):
    """Objectness and offset maps of a prediction raster on the sagittal image."""
    pred_vol = read_vg1(path)
    if pred_vol.shape[:2] != sagittal.values.shape:
        raise GeometryError(
            f"prediction raster {pred_vol.shape[:2]} does not match the "
            f"sagittal image {sagittal.values.shape}")
    objectness, offsets, _ = pipeline.unpack_prediction_planes(pred_vol.values, n_types)
    return objectness, offsets


def cmd_score(args) -> int:
    cfg = resolve_config(args)
    if (args.predictions is None) == (args.annotations is None):
        raise FormatError("provide exactly one of --predictions or --annotations")
    sagittal = _read_sagittal_and_transform(args.sagittal, args.transform)
    if args.predictions is not None:
        objectness, offsets = _read_predictions(
            args.predictions, sagittal, pipeline.image_anchors(sagittal, cfg).n_types)
        results = pipeline.score_stage(sagittal, cfg, objectness_map=objectness,
                                       offsets_map=offsets)
    else:
        results = pipeline.score_stage(sagittal, cfg,
                                       annotations=read_va1(args.annotations))
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "detections.json", {
        "config": cfg.to_dict(),
        "vertebrae": [r.to_dict() for r in results],
        "patient": pipeline.patient_summary(results, cfg),
    })
    return EXIT_OK


def cmd_targets(args) -> int:
    cfg = resolve_config(args)
    sagittal = _read_sagittal_and_transform(args.sagittal, args.transform)
    annotations = read_va1(args.annotations)
    if args.loss != (args.predictions is not None):
        raise FormatError("--loss needs --predictions" if args.loss
                          else "--predictions needs --loss")
    anchors, targets = pipeline.targets_stage(sagittal, annotations, cfg)
    if args.loss:
        objectness, offsets = _read_predictions(args.predictions, sagittal, anchors.n_types)
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    packed = pipeline.pack_prediction_planes(targets.objectness, targets.offsets,
                                             targets.genant_weights)
    write_vg1(out / "targets.vg1",
              Volume3D(packed, (sagittal.delta, sagittal.delta, 1.0)))
    manifest = {
        "config": cfg.to_dict(),
        "n_anchors": anchors.n_anchors,
        "n_positive": targets.n_positive,
        "files": ["targets.vg1"],
    }
    if args.loss:
        from .detection import detection_loss_grad, detection_loss_terms

        bce, reg = detection_loss_terms(objectness, offsets, targets)
        grad_o, grad_e = detection_loss_grad(objectness, offsets, targets)
        write_vg1(out / "loss_grad.vg1",
                  Volume3D(pipeline.pack_prediction_planes(grad_o, grad_e),
                           (sagittal.delta, sagittal.delta, 1.0)))
        manifest["loss"] = {"total": bce + reg, "bce": bce, "regression": reg}
        manifest["files"].append("loss_grad.vg1")
        print(f"loss={bce + reg:.12g} bce={bce:.12g} regression={reg:.12g}")
    write_json(out / "targets_manifest.json", manifest)
    return EXIT_OK


def _study_from_files(det_path: Path, gt_path: Path, cfg: PipelineConfig) -> dict:
    doc = read_json(det_path)
    if not isinstance(doc.get("vertebrae"), list):
        raise FormatError(f"{det_path}: missing 'vertebrae' list")
    dets = []
    for i, entry in enumerate(doc["vertebrae"]):
        try:
            kps = finite_numbers(entry["keypoints_world"], "keypoints_world", (6, 3))
            g = finite_numbers(entry["genant"], "genant")
            score = entry.get("score")
            dets.append((kps, g, None if score is None else finite_numbers(score, "score")))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{det_path}: vertebra {i}: {exc}") from exc
    gts = [(kps.as_array(), genant.measure(kps, **cfg.grade_cuts()).genant)
           for kps in read_va1(gt_path)]
    return {"detections": dets, "ground_truth": gts}


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    if len(args.pairs) % 2 != 0:
        raise FormatError("evaluate expects detections.json/gt.va1 path pairs")
    studies = [_study_from_files(d, g, cfg)
               for d, g in zip(args.pairs[::2], args.pairs[1::2])]
    report, problems = evaluation.evaluate_study_set(
        studies, iou_threshold=cfg.match_iou,
        mild_cut=cfg.mild_cut, moderate_cut=cfg.moderate_cut)
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", {
        "config": cfg.to_dict(),
        "report": report.to_dict(),
        "undefined_metrics": problems,
    })
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    if problems:
        for msg in problems:
            print(f"undefined metric: {msg}", file=sys.stderr)
        return EXIT_UNDEFINED_METRIC
    return EXIT_OK


_COMMANDS = {
    "phantom": cmd_phantom,
    "straighten": cmd_straighten,
    "targets": cmd_targets,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except UndefinedMetricError as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_METRIC


if __name__ == "__main__":
    sys.exit(main())
