"""Evaluation protocol: 3D localization error, detection matching, ROC AUC.

Localization compares predicted vertebral body centers against the nearest
annotated center in 3D.  Detections are matched to ground truth greedily by
score with an IoU criterion, one to one.  Fracture classification is scored
with a rank-statistic ROC AUC (ties count one half) at the mild and moderate
Genant thresholds, on vertebra level and, with the per-patient minimum
index, on patient level.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import UndefinedMetricError, boxes_from_keypoints, iou_matrix
from .detection import N_KEYPOINTS
from .genant import DEFAULT_MILD_CUT, DEFAULT_MODERATE_CUT


def localization_error(pred_centers, gt_centers) -> np.ndarray:
    """Distance (mm) from each predicted center to the nearest ground-truth one.

    Both arguments are world-mm center rows, shape (3,) or (n, 3).
    """
    pred = np.atleast_2d(np.asarray(pred_centers, dtype=float))
    gt = np.atleast_2d(np.asarray(gt_centers, dtype=float))
    if gt.size == 0:
        raise ValueError("localization error needs at least one ground-truth center")
    d = np.linalg.norm(pred[:, None, :] - gt[None, :, :], axis=2)
    return d.min(axis=1)


def sagittal_plane_box(kps_mm) -> np.ndarray:
    """Tight box (cx, cy, w, h) of world keypoints in the (anterior-posterior,
    cranio-caudal) plane: (6, 3) keypoints give one (4,) row, (K, 6, 3) give (K, 4).

    Used when matching detections against ground truth from world-space
    keypoints alone, without access to the straightening transform.
    """
    kps = np.asarray(kps_mm, dtype=float)
    boxes = boxes_from_keypoints(kps.reshape(-1, N_KEYPOINTS, 3)[:, :, 1:])
    return boxes.reshape(kps.shape[:-2] + (4,))


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

    ``detections`` are (box, score) pairs and ``ground_truth`` box rows, with
    boxes as (cx, cy, w, h).  Each detection claims the unclaimed
    ground-truth box with the highest IoU above the threshold.  Ordering ties
    are broken by box geometry, so the assignment does not depend on input
    order.
    """
    scores = np.array([float(score) for _, score in detections])
    det_boxes = np.array([box for box, _ in detections], dtype=float).reshape(len(scores), 4)
    gt_boxes = np.array(ground_truth, dtype=float).reshape(len(ground_truth), 4)
    if len(det_boxes) == 0 or len(gt_boxes) == 0:
        return MatchResult([], list(range(len(det_boxes))), list(range(len(gt_boxes))))

    # Columns in geometric order, so argmax breaks IoU ties as the boxes sort.
    gt_rank = np.lexsort(gt_boxes.T[::-1])
    overlaps = iou_matrix(det_boxes, gt_boxes[gt_rank])
    pairs = []
    fps = []
    for i in np.lexsort((*det_boxes.T[::-1], -scores)):
        col = int(np.argmax(overlaps[i]))
        if overlaps[i, col] > iou_threshold:
            overlaps[:, col] = -np.inf  # claimed
            pairs.append((int(i), int(gt_rank[col])))
        else:
            fps.append(int(i))
    claimed = {m for _, m in pairs}
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
    roc_auc: float
    sensitivity: float | None
    specificity: float | None
    n_positive: int
    n_negative: int


def classification_report(pred_genant, gt_genant, threshold: float) -> ClassificationReport:
    """Binary fracture classification metrics at one Genant threshold.

    Ground truth is positive when its index is <= threshold; the ranking
    score is one minus the predicted index.  Sensitivity and specificity are
    reported at the operating point "predicted index <= threshold".  For
    patient level, pass each patient's minimum index on both sides.
    """
    pred = np.asarray(pred_genant, dtype=float)
    gt = np.asarray(gt_genant, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValueError("need matched 1D prediction/ground-truth pairs")

    labels = gt <= threshold
    auc = roc_auc(1 - pred, labels)
    decided = pred <= threshold
    tp = int(np.sum(decided & labels))
    tn = int(np.sum(~decided & ~labels))
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return ClassificationReport(
        roc_auc=auc,
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


def evaluate_study_set(studies, iou_threshold: float = 0.5,
                       mild_cut: float = DEFAULT_MILD_CUT,
                       moderate_cut: float = DEFAULT_MODERATE_CUT) -> tuple[EvalReport, list[str]]:
    """Full report over one or more studies (one patient each).

    Each study is a dict with keys ``detections``, a list of
    (keypoints_mm, genant, score) triples, and ``ground_truth``, a list of
    (keypoints_mm, genant) pairs; keypoints are (6, 3) world mm in canonical
    order, and a score of None (graded annotations) counts as 1.0.  Vertebrae
    are matched on their ``sagittal_plane_box`` and localized by their
    centers, the midpoints of the middle keypoints.  Returns the report plus
    a list of undefined-metric messages (empty when every metric was
    computable).
    """
    problems: list[str] = []
    report = EvalReport()

    all_loc, frac_loc = [], []
    pred_g, gt_g = [], []
    patient_pred, patient_gt = [], []
    tp = fp = fn = 0
    n_gt_fractured = tp_fractured = 0

    for study in studies:
        det_kps = np.reshape([kps for kps, _, _ in study["detections"]], (-1, N_KEYPOINTS, 3))
        gt_kps = np.reshape([kps for kps, _ in study["ground_truth"]], (-1, N_KEYPOINTS, 3))
        det_gs = [g for _, g, _ in study["detections"]]
        gt_gs = [g for _, g in study["ground_truth"]]
        scores = [1.0 if score is None else score for _, _, score in study["detections"]]
        match = match_detections(list(zip(sagittal_plane_box(det_kps), scores)),
                                 sagittal_plane_box(gt_kps), iou_threshold=iou_threshold)
        tp += match.tp
        fp += match.fp
        fn += match.fn
        if det_gs and gt_gs:
            errs = localization_error((det_kps[:, 2] + det_kps[:, 3]) / 2,
                                      (gt_kps[:, 2] + gt_kps[:, 3]) / 2)
            all_loc.extend(errs.tolist())
            frac_loc.extend(float(errs[i]) for i, m in match.pairs if gt_gs[m] <= moderate_cut)
        for i, m in match.pairs:
            pred_g.append(det_gs[i])
            gt_g.append(gt_gs[m])
            if gt_gs[m] <= moderate_cut:
                tp_fractured += 1
        n_gt_fractured += sum(1 for g in gt_gs if g <= moderate_cut)
        if det_gs:
            patient_pred.append(min(det_gs))
        if gt_gs:
            patient_gt.append(min(gt_gs))

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

    levels = {"vertebra": (pred_g, gt_g)}
    if len(patient_pred) >= 2 and len(patient_pred) == len(patient_gt):
        levels["patient"] = (patient_pred, patient_gt)
    for name, cut in (("mild", mild_cut), ("moderate", moderate_cut)):
        report.classification[name] = {"vertebra": None, "patient": None}
        for level, (pred, gt) in levels.items():
            try:
                report.classification[name][level] = asdict(classification_report(pred, gt, cut))
            except (UndefinedMetricError, ValueError) as exc:
                problems.append(f"{name}/{level}: {exc}")
    return report, problems
