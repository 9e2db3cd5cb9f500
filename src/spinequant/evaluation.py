"""Evaluation protocol: 3D localization error, detection matching, ROC AUC.

Localization compares predicted vertebral body centers against the nearest
annotated center in 3D.  Detections are matched to ground truth greedily by
score with an IoU criterion, one to one.  Fracture classification is scored
with a rank-statistic ROC AUC (ties count one half) at the mild and moderate
Genant thresholds, on vertebra level and, with the per-patient minimum
index, on patient level.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Box2D, UndefinedMetricError, bbox_from_keypoints, iou_matrix
from .genant import (DEFAULT_MILD_CUT, DEFAULT_MODERATE_CUT, VertebraKeypoints)


def localization_error(pred_centers, annotations: list[VertebraKeypoints]) -> np.ndarray:
    """Distance (mm) from each predicted center to the nearest annotated one.

    Ground-truth centers are the midpoints of the middle superior/inferior
    keypoints.
    """
    if not annotations:
        raise ValueError("localization error needs at least one annotated vertebra")
    pred = np.atleast_2d(np.asarray(pred_centers, dtype=float))
    gt = np.stack([kps.center() for kps in annotations])
    d = np.linalg.norm(pred[:, None, :] - gt[None, :, :], axis=2)
    return d.min(axis=1)


def _as_box_array(entry) -> np.ndarray:
    if isinstance(entry, Box2D):
        return entry.as_array()
    entry = np.asarray(entry, dtype=float)
    if entry.shape == (4,):
        return entry
    return bbox_from_keypoints(entry).as_array()


@dataclass(frozen=True)
class MatchResult:
    """One-to-one assignment between detections and ground truth."""

    pairs: list[tuple[int, int]]   # (detection index, ground-truth index)
    false_positives: list[int]
    false_negatives: list[int]

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.false_positives)

    @property
    def fn(self) -> int:
        return len(self.false_negatives)

    @property
    def precision(self) -> float | None:
        total = self.tp + self.fp
        return self.tp / total if total else None

    @property
    def recall(self) -> float | None:
        total = self.tp + self.fn
        return self.tp / total if total else None


def match_detections(detections, ground_truth, iou_threshold: float = 0.5) -> MatchResult:
    """Greedily match detections to ground truth by descending score.

    ``detections`` are Detection objects (or (box, score) pairs); each claims
    the unclaimed ground-truth box with the highest IoU above the threshold.
    Ordering ties are broken by box geometry, so the assignment does not
    depend on input order.
    """
    det_boxes, scores = [], []
    for d in detections:
        if hasattr(d, "box"):
            det_boxes.append(d.box.as_array())
            scores.append(float(d.score))
        else:
            box, score = d
            det_boxes.append(_as_box_array(box))
            scores.append(float(score))
    gt_boxes = np.array([_as_box_array(g) for g in ground_truth], dtype=float)

    if not det_boxes:
        return MatchResult([], [], list(range(len(gt_boxes))))
    det_boxes = np.asarray(det_boxes)
    order = sorted(range(len(scores)),
                   key=lambda i: (-scores[i], *det_boxes[i].tolist()))
    if len(gt_boxes) == 0:
        return MatchResult([], sorted(range(len(scores))), [])

    overlaps = iou_matrix(det_boxes, gt_boxes)
    claimed: set[int] = set()
    pairs = []
    fps = []
    gt_rank = np.lexsort(gt_boxes.T[::-1])  # geometric tie-break for equal IoU
    for i in order:
        best, best_iou = -1, iou_threshold
        for m in gt_rank:
            if m in claimed:
                continue
            if overlaps[i, m] > best_iou:
                best, best_iou = int(m), overlaps[i, m]
        if best >= 0:
            claimed.add(best)
            pairs.append((i, best))
        else:
            fps.append(i)
    fns = [m for m in range(len(gt_boxes)) if m not in claimed]
    return MatchResult(sorted(pairs), sorted(fps), fns)


def roc_auc(scores, labels) -> float:
    """Rank-statistic ROC AUC: P(positive outranks negative), ties half.

    Raises UndefinedMetricError when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1D and the same length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC AUC needs both classes")
    ranks = _tied_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _tied_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by their average rank.

    Equals ``scipy.stats.rankdata(x, method="average")``; importing
    scipy.stats would add about 0.3 s and 20 MB to every process.
    """
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    first = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])  # start of each tie run
    last = np.r_[first[1:], len(x)] - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + last) / 2 + 1, last - first + 1)
    return ranks


@dataclass(frozen=True)
class ClassificationReport:
    threshold: float
    level: str
    roc_auc: float
    sensitivity: float | None
    specificity: float | None
    n_positive: int
    n_negative: int


def classification_report(pred_genant, gt_genant, threshold: float,
                          level: str = "vertebra",
                          patient_ids=None) -> ClassificationReport:
    """Binary fracture classification metrics at one Genant threshold.

    Ground truth is positive when its index is <= threshold; the ranking
    score is one minus the predicted index.  Sensitivity and specificity are
    reported at the operating point "predicted index <= threshold".  At
    patient level both sides are first reduced to the per-patient minimum
    index, which requires ``patient_ids``.
    """
    pred = np.asarray(pred_genant, dtype=float)
    gt = np.asarray(gt_genant, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("need matched 1D prediction/ground-truth pairs")
    if level == "patient":
        if patient_ids is None:
            raise ValueError("patient level needs patient_ids")
        ids = np.asarray(patient_ids)
        if ids.shape != pred.shape:
            raise ValueError("patient_ids must align with the pairs")
        uniq = sorted(set(ids.tolist()))
        pred = np.array([pred[ids == p].min() for p in uniq])
        gt = np.array([gt[ids == p].min() for p in uniq])
    elif level != "vertebra":
        raise ValueError(f"unknown level {level!r}")

    labels = gt <= threshold
    auc = roc_auc(1 - pred, labels)
    decided = pred <= threshold
    tp = int(np.sum(decided & labels))
    tn = int(np.sum(~decided & ~labels))
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return ClassificationReport(
        threshold=threshold, level=level, roc_auc=auc,
        sensitivity=tp / n_pos if n_pos else None,
        specificity=tn / n_neg if n_neg else None,
        n_positive=n_pos, n_negative=n_neg)


@dataclass
class EvalReport:
    """Aggregated metrics mirroring the localization/detection/grading tables."""

    localization_mean_mm: float | None = None
    localization_std_mm: float | None = None
    localization_fractured_mean_mm: float | None = None
    localization_fractured_std_mm: float | None = None
    precision: float | None = None
    recall: float | None = None
    recall_fractured: float | None = None
    tp: int = 0
    fp: int = 0
    fn: int = 0
    classification: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "localization_mm": {
                "mean": self.localization_mean_mm,
                "std": self.localization_std_mm,
                "fractured_mean": self.localization_fractured_mean_mm,
                "fractured_std": self.localization_fractured_std_mm,
            },
            "detection": {
                "precision": self.precision,
                "recall": self.recall,
                "recall_fractured": self.recall_fractured,
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
            },
            "classification": self.classification,
        }
        return doc

    def to_text(self) -> str:
        """Aligned plain-text table of the report."""
        def fmt(x, digits=3):
            return "   --" if x is None else f"{x:.{digits}f}"

        lines = [
            "metric                      all     fractured(G<=0.74)",
            f"localization mean mm      {fmt(self.localization_mean_mm)}     "
            f"{fmt(self.localization_fractured_mean_mm)}",
            f"localization std mm       {fmt(self.localization_std_mm)}     "
            f"{fmt(self.localization_fractured_std_mm)}",
            f"recall                    {fmt(self.recall)}     {fmt(self.recall_fractured)}",
            f"precision                 {fmt(self.precision)}     (all only)",
            f"counts                    tp={self.tp} fp={self.fp} fn={self.fn}",
            "",
            "grade       level      roc_auc   sensitivity   specificity",
        ]
        for name, per_level in self.classification.items():
            for level, rep in per_level.items():
                if rep is None:
                    lines.append(f"{name:<11} {level:<10} {'--':>7}   {'--':>11}   {'--':>11}")
                else:
                    lines.append(
                        f"{name:<11} {level:<10} {fmt(rep['roc_auc']):>7}   "
                        f"{fmt(rep['sensitivity']):>11}   {fmt(rep['specificity']):>11}")
        return "\n".join(lines) + "\n"


def _report_entry(rep: ClassificationReport | None):
    if rep is None:
        return None
    return {
        "roc_auc": rep.roc_auc,
        "sensitivity": rep.sensitivity,
        "specificity": rep.specificity,
        "n_positive": rep.n_positive,
        "n_negative": rep.n_negative,
    }


def evaluate_study_set(studies, iou_threshold: float = 0.5,
                       mild_cut: float = DEFAULT_MILD_CUT,
                       moderate_cut: float = DEFAULT_MODERATE_CUT) -> tuple[EvalReport, list[str]]:
    """Full report over one or more studies (one patient each).

    Each study is a dict with keys ``detections`` (list of dicts carrying
    ``box`` (cx, cy, w, h), ``score``, ``center_mm``, ``genant``) and
    ``ground_truth`` (list of dicts with ``box``, ``center_mm``, ``genant``).
    Returns the report plus a list of undefined-metric messages (empty when
    every metric was computable).
    """
    problems: list[str] = []
    report = EvalReport()

    all_loc, frac_loc = [], []
    pred_g, gt_g = [], []
    patient_pred, patient_gt = [], []
    tp = fp = fn = 0
    n_gt_fractured = tp_fractured = 0

    for study in studies:
        dets = study["detections"]
        gts = study["ground_truth"]
        match = match_detections(
            [(np.asarray(d["box"], dtype=float), d["score"]) for d in dets],
            [np.asarray(g["box"], dtype=float) for g in gts],
            iou_threshold=iou_threshold)
        tp += match.tp
        fp += match.fp
        fn += match.fn
        if dets and gts:
            centers = np.stack([np.asarray(g["center_mm"], dtype=float) for g in gts])
            pred = np.stack([np.asarray(d["center_mm"], dtype=float) for d in dets])
            errs = np.linalg.norm(pred[:, None] - centers[None], axis=2).min(axis=1)
            all_loc.extend(errs.tolist())
            for i, m in match.pairs:
                if gts[m]["genant"] <= moderate_cut:
                    frac_loc.append(float(errs[i]))
        for i, m in match.pairs:
            pred_g.append(dets[i]["genant"])
            gt_g.append(gts[m]["genant"])
            if gts[m]["genant"] <= moderate_cut:
                tp_fractured += 1
        n_gt_fractured += sum(1 for g in gts if g["genant"] <= moderate_cut)
        if dets:
            patient_pred.append(min(d["genant"] for d in dets))
        if gts:
            patient_gt.append(min(g["genant"] for g in gts))

    if all_loc:
        report.localization_mean_mm = float(np.mean(all_loc))
        report.localization_std_mm = float(np.std(all_loc))
    if frac_loc:
        report.localization_fractured_mean_mm = float(np.mean(frac_loc))
        report.localization_fractured_std_mm = float(np.std(frac_loc))
    report.tp, report.fp, report.fn = tp, fp, fn
    report.precision = tp / (tp + fp) if (tp + fp) else None
    report.recall = tp / (tp + fn) if (tp + fn) else None
    if n_gt_fractured:
        report.recall_fractured = tp_fractured / n_gt_fractured

    thresholds = {"mild": mild_cut, "moderate": moderate_cut}
    for name, cut in thresholds.items():
        report.classification[name] = {}
        try:
            rep = classification_report(pred_g, gt_g, cut, level="vertebra")
        except (UndefinedMetricError, ValueError) as exc:
            rep = None
            problems.append(f"{name}/vertebra: {exc}")
        report.classification[name]["vertebra"] = _report_entry(rep)
        patient_rep = None
        if len(patient_pred) >= 2 and len(patient_pred) == len(patient_gt):
            try:
                patient_rep = classification_report(
                    patient_pred, patient_gt, cut, level="patient",
                    patient_ids=list(range(len(patient_pred))))
            except (UndefinedMetricError, ValueError) as exc:
                problems.append(f"{name}/patient: {exc}")
        report.classification[name]["patient"] = _report_entry(patient_rep)
    return report, problems
