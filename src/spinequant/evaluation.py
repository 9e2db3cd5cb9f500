"""Evaluation protocol: 3D localization error, detection matching, ROC AUC.

Localization compares predicted vertebral body centers against the nearest
annotated center in 3D.  Detections are matched to ground truth greedily by
score with an IoU criterion, one to one.  Fracture classification is scored
with a rank-statistic ROC AUC (ties count one half) at the mild and moderate
Genant thresholds, on vertebra level and, with the per-patient minimum
index, on patient level.

A study set is evaluated in one array pass: the vertebrae of all studies
are gathered into flat arrays, and the within-study IoUs and center
distances are formed on padded (studies, detections, ground truth) blocks.
The greedy matching rule then runs one score rank at a time for every study
together; ``match_detections`` is the same matcher on one study.
"""
from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import GeometryError, UndefinedMetricError, boxes_from_keypoints, iou_matrix
from .detection import N_KEYPOINTS, _check_unit_interval
from .genant import DEFAULT_MILD_CUT, DEFAULT_MODERATE_CUT


def localization_error(pred_centers, gt_centers) -> np.ndarray:
    """Distance (mm) from each predicted center to the nearest ground-truth one.

    Both arguments are world-mm center rows, shape (3,) or (n, 3); no
    predicted center gives an empty array.  A distance past the float range
    is inf.
    """
    pred = np.atleast_2d(np.asarray(pred_centers, dtype=float))
    gt = np.atleast_2d(np.asarray(gt_centers, dtype=float))
    if gt.size == 0:
        raise ValueError("localization error needs at least one ground-truth center")
    if pred.size == 0:
        return np.empty(0)
    return np.sqrt(_squared_distances(pred, gt).min(axis=-1))


def _squared_distances(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(..., K, G) squared distances between (..., K, 3) and (..., G, 3) center rows.

    The squares add x, y, z left to right, as in ``np.linalg.norm``; one past
    the float range is inf.  The root of the least is the least distance.
    """
    with np.errstate(over="ignore"):
        return sum(np.square(pred[..., :, None, k] - gt[..., None, :, k]) for k in range(3))


def _mean_std(errors) -> tuple[float, float]:
    """Mean and standard deviation of localization errors, which must stay finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(np.mean(errors)), float(np.std(errors))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise GeometryError("detections lie too far from the ground truth: their "
                            "localization errors leave the float range")
    return mean, std


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
    boxes as finite (cx, cy, w, h) rows of positive sides.  Each detection
    claims the unclaimed ground-truth box with the highest IoU above the
    threshold, which must be in (0, 1].  Ordering ties are broken by box
    geometry, so the assignment does not depend on input order.  This is
    the one-study call of the matcher ``evaluate_study_set`` runs.
    """
    _check_unit_interval("iou_threshold", iou_threshold, closed=False)
    scores = np.array([float(score) for _, score in detections])
    det_boxes = _box_rows([box for box, _ in detections], "detections")
    gt_boxes = _box_rows(ground_truth, "ground_truth")
    match = _match(det_boxes, scores, np.array([len(det_boxes)]),
                   gt_boxes, np.array([len(gt_boxes)]), iou_threshold)
    won = match >= 0
    claimed = np.zeros(len(gt_boxes), dtype=bool)
    claimed[match[won]] = True
    return MatchResult(list(zip(np.flatnonzero(won).tolist(), match[won].tolist())),
                       np.flatnonzero(~won).tolist(), np.flatnonzero(~claimed).tolist())


def _box_rows(rows, name: str) -> np.ndarray:
    """(n, 4) box rows, else ValueError naming ``name``."""
    boxes = np.array(rows, dtype=float).reshape(len(rows), 4)
    if not (np.all(np.isfinite(boxes)) and np.all(boxes[:, 2:] > 0)):
        raise ValueError(f"{name} must be finite (cx, cy, w, h) boxes with positive sides")
    return boxes


def _match(det_boxes, scores, det_counts, gt_boxes, gt_counts, iou_threshold) -> np.ndarray:
    """Ground-truth row each detection claims, or -1, by the greedy rule within each study.

    Detections (ground truth) are flat box rows, study by study, with
    ``det_counts`` (``gt_counts``) rows per study.  Within a study the
    detections claim in order of descending score, then box geometry
    (cx, cy, w, h), then input order; the ground-truth columns sort by box
    geometry, then input order, so a tie in IoU goes to the first box in
    that order.  All studies are sorted by one ``np.lexsort`` each side and
    laid out as padded (S, K_max, G_max) IoU blocks.
    """
    det_studies = np.repeat(np.arange(len(det_counts)), det_counts)
    det_order = np.lexsort((*det_boxes.T[::-1], -scores, det_studies))
    gt_order = np.lexsort((*gt_boxes.T[::-1], np.repeat(np.arange(len(gt_counts)), gt_counts)))
    det_filled, gt_filled = _filled(det_counts), _filled(gt_counts)
    overlaps = iou_matrix(_padded(det_boxes[det_order], det_filled, 1.0),
                          _padded(gt_boxes[gt_order], gt_filled, 1.0))
    overlaps[~(det_filled[:, :, None] & gt_filled[:, None, :])] = -np.inf
    # Sorting keeps each study's rows together, so sorted row k is in study det_studies[k].
    cols = _greedy_claims(overlaps, iou_threshold)[det_filled]
    won = cols >= 0
    match = np.full(len(det_boxes), -1)
    match[det_order[won]] = _padded(gt_order, gt_filled, -1)[det_studies[won], cols[won]]
    return match


def _greedy_claims(overlaps: np.ndarray, iou_threshold: float) -> np.ndarray:
    """(S, K) column each row claims, or -1, in S (K, G) IoU blocks whose rows
    are in claim order and whose padding holds -inf; ``overlaps`` is used up.

    The greedy rule for all blocks together, one rank at a time: row r of
    every block takes the first maximum of its IoUs over the columns its
    block has not claimed yet, if that exceeds the threshold.
    """
    n_sets, n_rows, n_cols = overlaps.shape
    claims = np.full((n_sets, n_rows), -1)
    if n_cols == 0:
        return claims
    sets = np.arange(n_sets)
    for r in range(n_rows):
        cols = overlaps[:, r].argmax(axis=1)
        won = np.flatnonzero(overlaps[sets, r, cols] > iou_threshold)
        cols = cols[won]
        overlaps[won, r + 1:, cols] = -np.inf  # claimed
        claims[won, r] = cols
    return claims


def _filled(counts: np.ndarray) -> np.ndarray:
    """(S, max count) mask of the slots each of S studies fills with its rows."""
    return np.arange(counts.max(initial=0)) < counts[:, None]


def _padded(rows: np.ndarray, filled: np.ndarray, fill) -> np.ndarray:
    """Flat rows, study by study, laid out per study: ``out[filled]`` is ``rows``."""
    out = np.full(filled.shape + rows.shape[1:], fill, dtype=rows.dtype)
    out[filled] = rows
    return out


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
    """Full report over one or more studies (one patient each), in one array pass.

    Each study is a dict with keys ``detections``, a list of
    (keypoints_mm, genant, score) triples, and ``ground_truth``, a list of
    (keypoints_mm, genant) pairs; keypoints are (6, 3) world mm in canonical
    order, genant and score are finite, and a score of None (graded
    annotations) counts as 1.0.  Vertebrae are matched on their
    ``sagittal_plane_box`` and localized by their centers, the midpoints of
    the middle keypoints, each within its own study.

    The vertebrae of all studies are gathered into flat arrays; the boxes
    come from one ``sagittal_plane_box`` call a side, the IoUs from one
    ``iou_matrix`` call on padded (studies, detections, ground truth) blocks,
    and the greedy rule claims one score rank at a time for every study
    together.  ``iou_threshold`` must be in (0, 1] and the cuts finite with
    ``moderate_cut < mild_cut``, else ValueError; a bad study entry raises
    ValueError naming the study, the entry and the field.  Returns the report
    plus a list of undefined-metric messages (empty when every metric was
    computable).
    """
    _check_unit_interval("iou_threshold", iou_threshold, closed=False)
    for name, cut in (("mild_cut", mild_cut), ("moderate_cut", moderate_cut)):
        if not np.isfinite(cut):
            raise ValueError(f"{name} must be finite, got {cut!r}")
    if not moderate_cut < mild_cut:
        raise ValueError(f"moderate_cut must be < mild_cut, got {moderate_cut!r}, {mild_cut!r}")

    det_rows, gt_rows, det_counts, gt_counts = [], [], [], []
    for study in studies:
        det_rows += study["detections"]
        gt_rows += study["ground_truth"]
        det_counts.append(len(study["detections"]))
        gt_counts.append(len(study["ground_truth"]))
    det_counts, gt_counts = np.array(det_counts, dtype=int), np.array(gt_counts, dtype=int)
    kps_rule = f"keypoints must be finite numbers of shape ({N_KEYPOINTS}, 3)"
    det_kps = _entries([kps for kps, _, _ in det_rows], (N_KEYPOINTS, 3), det_counts,
                       "detections", kps_rule)
    det_g = _entries([g for _, g, _ in det_rows], (), det_counts, "detections",
                     "genant must be a finite number")
    scores = _entries([1.0 if score is None else score for _, _, score in det_rows], (),
                      det_counts, "detections", "score must be a finite number or None")
    gt_kps = _entries([kps for kps, _ in gt_rows], (N_KEYPOINTS, 3), gt_counts,
                      "ground_truth", kps_rule)
    gt_g = _entries([g for _, g in gt_rows], (), gt_counts, "ground_truth",
                    "genant must be a finite number")

    match = _match(sagittal_plane_box(det_kps), scores, det_counts,
                   sagittal_plane_box(gt_kps), gt_counts, iou_threshold)
    won = match >= 0
    gt_fractured = gt_g <= moderate_cut
    report = EvalReport()
    report.tp = tp = int(won.sum())
    report.fp = fp = len(det_g) - tp
    report.fn = fn = len(gt_g) - tp
    report.precision = tp / (tp + fp) if (tp + fp) else None
    report.recall = tp / (tp + fn) if (tp + fn) else None
    if gt_fractured.any():
        report.recall_fractured = int(gt_fractured[match[won]].sum()) / int(gt_fractured.sum())

    # Detections of studies with ground truth are localized, in flat order.
    localized = np.repeat(gt_counts > 0, det_counts)
    if localized.any():
        det_filled, gt_filled = _filled(det_counts), _filled(gt_counts)
        dist = _squared_distances(_padded(_centers(det_kps), det_filled, 0.0),
                                  _padded(_centers(gt_kps), gt_filled, 0.0))
        dist[~np.broadcast_to(gt_filled[:, None, :], dist.shape)] = np.inf
        errs = np.sqrt(dist.min(axis=2)[det_filled])
        report.localization_mean_mm, report.localization_std_mm = _mean_std(errs[localized])
        fractured_hit = np.zeros_like(won)
        fractured_hit[won] = gt_fractured[match[won]]
        if fractured_hit.any():
            (report.localization_fractured_mean_mm,
             report.localization_fractured_std_mm) = _mean_std(errs[fractured_hit])

    levels = {"vertebra": (det_g[won], gt_g[match[won]])}
    patient_pred, patient_gt = _study_minima(det_g, det_counts), _study_minima(gt_g, gt_counts)
    if len(patient_pred) >= 2 and len(patient_pred) == len(patient_gt):
        levels["patient"] = (patient_pred, patient_gt)
    problems: list[str] = []
    for name, cut in (("mild", mild_cut), ("moderate", moderate_cut)):
        report.classification[name] = {"vertebra": None, "patient": None}
        for level, (pred, gt) in levels.items():
            try:
                report.classification[name][level] = asdict(classification_report(pred, gt, cut))
            except (UndefinedMetricError, ValueError) as exc:
                problems.append(f"{name}/{level}: {exc}")
    return report, problems


def _centers(kps: np.ndarray) -> np.ndarray:
    """Vertebral body centers of (n, 6, 3) keypoints: midpoints of the middle pair."""
    return (kps[:, 2] + kps[:, 3]) / 2


def _study_minima(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Minimum of each study's values, over the studies that have any."""
    return np.minimum.reduceat(values, (np.cumsum(counts) - counts)[counts > 0])


def _entries(values: list, shape: tuple, counts: np.ndarray, key: str, rule: str) -> np.ndarray:
    """Flat study entries as one (n, *shape) finite float array.

    Else ValueError naming the study, the entry of ``key`` and ``rule`` for
    the first entry that is not finite numbers of ``shape``.
    """
    try:
        arr = np.array(values, dtype=float)
        if arr.shape == (len(values), *shape) and np.isfinite(arr).all():
            return arr
    except (TypeError, ValueError):  # ragged, or not numbers: named below
        pass
    if not values:
        return np.empty((0, *shape))

    def usable(v) -> bool:
        try:
            return np.shape(v) == shape and bool(np.isfinite(np.asarray(v, dtype=float)).all())
        except (TypeError, ValueError):
            return False

    i = next(i for i, v in enumerate(values) if not usable(v))
    study = int(np.searchsorted(np.cumsum(counts), i, side="right"))
    raise ValueError(f"study {study}: {key}[{i - int(counts[:study].sum())}] {rule}, "
                     f"got {reprlib.repr(values[i])}")
