import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinequant.core import GeometryError, UndefinedMetricError, iou_matrix
from spinequant.evaluation import (classification_report, evaluate_study_set,
                                   localization_error, match_detections, roc_auc)

from oracles import study_set_report
from test_genant import make_keypoints


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localization_zero_for_exact_centers():
    centers = [make_keypoints(center=(0, 0, 20.0 * k)).center() for k in range(4)]
    np.testing.assert_allclose(localization_error(centers, centers), 0.0, atol=1e-12)


def test_localization_single_pred():
    gt = [make_keypoints(center=(0, 0, 0)).center(), make_keypoints(center=(0, 0, 30)).center()]
    err = localization_error([[0.0, 3.0, 0.0]], gt)
    assert err[0] == pytest.approx(3.0, abs=1e-12)


def test_localization_matches_bruteforce_and_gt_permutation():
    rng = np.random.default_rng(0)
    gt = rng.uniform(0, 100, (7, 3))
    preds = rng.uniform(0, 100, (11, 3))
    got = localization_error(preds, gt)
    for i, p in enumerate(preds):
        want = min(np.linalg.norm(p - c) for c in gt)
        assert got[i] == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(localization_error(preds, gt[rng.permutation(len(gt))]), got)


def test_localization_empty_gt_error():
    with pytest.raises(ValueError):
        localization_error([[0, 0, 0]], [])
    with pytest.raises(ValueError):
        localization_error([[0, 0, 0]], np.empty((0, 3)))


@pytest.mark.parametrize("pred", [[], np.empty((0, 3))])
def test_localization_of_no_prediction_is_empty(pred):
    got = localization_error(pred, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert got.shape == (0,)


# ---------------------------------------------------------------------------
# detection matching
# ---------------------------------------------------------------------------

def boxes_along_column(n, start=10.0, pitch=24.0, w=25.0, h=20.0):
    return [np.array([0.0, start + pitch * k, w, h]) for k in range(n)]


def test_match_perfect_detections():
    gts = boxes_along_column(5)
    dets = [(b, 0.9) for b in gts]
    res = match_detections(dets, gts)
    assert (res.tp, res.fp, res.fn) == (5, 0, 0)
    assert res.precision == 1.0 and res.recall == 1.0
    assert res.pairs == [(k, k) for k in range(5)]


def test_match_one_spurious_detection():
    gts = boxes_along_column(4)
    dets = [(b, 0.9) for b in gts] + [(np.array([60.0, 10.0, 25.0, 20.0]), 0.8)]
    res = match_detections(dets, gts)
    assert (res.tp, res.fp, res.fn) == (4, 1, 0)
    assert res.precision == pytest.approx(4 / 5)
    assert res.recall == 1.0


def test_match_is_shuffle_invariant():
    rng = np.random.default_rng(1)
    gts = boxes_along_column(6)
    dets = [(b + rng.uniform(-3, 3, 4) * [1, 1, 0, 0], float(s))
            for b, s in zip(boxes_along_column(6), rng.uniform(0.5, 1.0, 6))]
    dets.append((np.array([-40.0, 30.0, 20.0, 18.0]), 0.6))
    base = match_detections(dets, gts)
    for _ in range(10):
        perm = rng.permutation(len(dets))
        shuffled = [dets[int(k)] for k in perm]
        res = match_detections(shuffled, gts)
        # map shuffled indices back and compare assignments
        back = sorted((int(perm[i]), m) for i, m in res.pairs)
        assert back == base.pairs
        assert sorted(int(perm[i]) for i in res.false_positives) == base.false_positives
        assert res.false_negatives == base.false_negatives


def match_reference(detections, ground_truth, iou_threshold=0.5):
    """Plain greedy loop: by (-score, box), each detection claims the unclaimed
    ground truth of highest IoU above the threshold, the first in box order on ties."""
    scores = [float(score) for _, score in detections]
    det_boxes = np.array([box for box, _ in detections], dtype=float).reshape(len(scores), 4)
    gt_boxes = np.array(ground_truth, dtype=float).reshape(len(ground_truth), 4)
    if not scores:
        return [], [], list(range(len(gt_boxes)))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], *det_boxes[i].tolist()))
    if len(gt_boxes) == 0:
        return [], sorted(range(len(scores))), []
    overlaps = iou_matrix(det_boxes, gt_boxes)
    claimed: set[int] = set()
    pairs, fps = [], []
    gt_rank = np.lexsort(gt_boxes.T[::-1])
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
    return sorted(pairs), sorted(fps), [m for m in range(len(gt_boxes)) if m not in claimed]


def test_match_equals_reference_on_tie_heavy_inputs():
    rng = np.random.default_rng(41)

    def grid_boxes(n):  # integer grid: many identical boxes and equal IoUs
        return np.column_stack([rng.integers(0, 4, (n, 2)),
                                rng.integers(1, 4, (n, 2))]).astype(float)

    for trial in range(400):
        # 5e-324, the least positive float, matches every overlapping pair.
        threshold = (5e-324, 0.1, 0.5, 1.0)[trial % 4]
        n_det, n_gt = (int(n) for n in rng.integers(0, 9, 2))
        dets = list(zip(grid_boxes(n_det), rng.integers(0, 2 + trial % 3, n_det) / 2))
        gts = list(grid_boxes(n_gt))
        got = match_detections(dets, gts, iou_threshold=threshold)
        want = match_reference(dets, gts, iou_threshold=threshold)
        assert (got.pairs, got.false_positives, got.false_negatives) == want


@pytest.mark.parametrize("threshold", [float("nan"), 1.5, float("inf"), 0.0, -1.0])
def test_match_refuses_a_threshold_outside_the_unit_interval(threshold):
    gts = boxes_along_column(2)
    with pytest.raises(ValueError, match="iou_threshold"):
        match_detections([(b, 1.0) for b in gts], gts, iou_threshold=threshold)


@pytest.mark.parametrize("bad", [[float("nan"), 0.0, 2.0, 2.0], [0.0, float("inf"), 2.0, 2.0],
                                 [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 2.0, -1.0]])
def test_match_refuses_non_finite_or_flat_boxes(bad):
    good = boxes_along_column(2)
    with pytest.raises(ValueError, match="detections"):
        match_detections([(good[0], 1.0), (np.array(bad), 0.5)], good)
    with pytest.raises(ValueError, match="ground_truth"):
        match_detections([(good[0], 1.0)], [good[1], np.array(bad)])


def test_match_prefers_higher_score():
    gts = [np.array([0.0, 10.0, 10.0, 10.0])]
    dets = [(np.array([0.0, 10.5, 10.0, 10.0]), 0.7),
            (np.array([0.0, 10.0, 10.0, 10.0]), 0.9)]
    res = match_detections(dets, gts)
    assert res.pairs == [(1, 0)]
    assert res.false_positives == [0]


# ---------------------------------------------------------------------------
# ROC AUC against the O(n^2) pairwise oracle
# ---------------------------------------------------------------------------

def auc_oracle(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_roc_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8], [0, 0, 1]) == 1.0


def test_roc_auc_identical_scores_half():
    assert roc_auc([0.5] * 8, [1, 0, 1, 0, 1, 0, 0, 1]) == 0.5


def test_tied_ranks_equal_scipy_rankdata():
    from scipy.stats import rankdata

    from spinequant.evaluation import _tied_ranks

    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        x = rng.integers(0, 1 + trial % 6, n).astype(float)   # tie-heavy
        np.testing.assert_array_equal(_tied_ranks(x), rankdata(x, method="average"))


def test_roc_auc_single_class_error():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.5, 0.6], [1, 1])
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.5, 0.6], [0, 0])


def test_roc_auc_equals_pairwise_oracle_exactly():
    rng = np.random.default_rng(2)
    for trial in range(60):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        if trial % 2 == 0:
            scores = rng.integers(0, 6, n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        assert roc_auc(scores, labels) == auc_oracle(scores, labels)


def test_roc_auc_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, 50).astype(bool)
    labels[0], labels[1] = True, False
    base = roc_auc(scores, labels)
    assert roc_auc(3 * scores + 7, labels) == base
    assert roc_auc(np.exp(scores), labels) == base


def test_roc_auc_complement_labels():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 4, 40).astype(float)
    labels = rng.integers(0, 2, 40).astype(bool)
    labels[0], labels[1] = True, False
    assert roc_auc(scores, labels) + roc_auc(scores, ~labels) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# classification report
# ---------------------------------------------------------------------------

def test_classification_exact_predictions():
    gt = np.array([1.0, 0.9, 0.78, 0.7, 0.55, 0.85])
    rep = classification_report(gt, gt, 0.74)
    assert rep.roc_auc == 1.0
    assert rep.sensitivity == 1.0
    assert rep.specificity == 1.0
    assert (rep.n_positive, rep.n_negative) == (2, 4)


def test_classification_constant_prediction_is_chance():
    gt = np.array([1.0, 0.9, 0.7, 0.5])
    rep = classification_report(np.full(4, 0.8), gt, 0.74)
    assert rep.roc_auc == 0.5


def test_classification_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        classification_report([1.0, 0.9], [1.0, 0.9], 0.74)


# ---------------------------------------------------------------------------
# study-set aggregation
# ---------------------------------------------------------------------------

def study_fixture(gs, noise=0.0, seed=0):
    """One study of vertebrae stacked along z with planted indices ``gs``; the
    detections are the ground truth keypoints moved by ``noise`` mm."""
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    for k, g in enumerate(gs):
        kps = make_keypoints(center=(0.0, 0.0, 10.0 + 24.0 * k)).as_array()
        gts.append((kps, g))
        dets.append((kps + rng.normal(0, noise, kps.shape),
                     float(np.clip(g + rng.normal(0, noise / 50), 0.05, 1.0)), 1.0))
    return {"detections": dets, "ground_truth": gts}


def test_evaluate_study_set_perfect():
    gs = [1.0, 0.9, 0.78, 0.7, 0.55]
    report, problems = evaluate_study_set([study_fixture(gs)])
    assert problems == []
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.localization_mean_mm == pytest.approx(0.0, abs=1e-12)
    assert report.recall_fractured == 1.0
    assert report.classification["moderate"]["vertebra"]["roc_auc"] == 1.0
    assert report.classification["mild"]["vertebra"]["roc_auc"] == 1.0
    assert report.classification["mild"]["patient"] is None  # one study only
    assert (report.tp, report.fp, report.fn) == (5, 0, 0)


def test_evaluate_study_set_patient_level():
    studies = [study_fixture([1.0, 0.95], seed=1),
               study_fixture([0.9, 0.6], seed=2),
               study_fixture([0.85, 0.7], seed=3),
               study_fixture([0.99, 0.97], seed=4)]
    report, problems = evaluate_study_set(studies)
    assert problems == []
    pat = report.classification["moderate"]["patient"]
    assert pat is not None
    assert pat["n_positive"] == 2 and pat["n_negative"] == 2
    assert pat["roc_auc"] == 1.0


def test_evaluate_study_set_single_class_flags_problem():
    report, problems = evaluate_study_set([study_fixture([1.0, 0.95, 0.9])])
    assert problems  # no fractured vertebra: AUC undefined
    assert report.classification["moderate"]["vertebra"] is None
    assert report.precision == 1.0  # detection metrics still fine


def test_report_counts_consistent_with_ratios():
    gs = [1.0, 0.8, 0.7]
    study = study_fixture(gs)
    study["detections"].append(
        (make_keypoints(center=(0.0, 80.0, 10.0)).as_array(), 0.5, 0.6))
    report, _ = evaluate_study_set([study])
    assert report.precision == pytest.approx(report.tp / (report.tp + report.fp))
    assert report.recall == pytest.approx(report.tp / (report.tp + report.fn))
    assert (report.tp, report.fp, report.fn) == (3, 1, 0)


def test_report_text_renders():
    report, _ = evaluate_study_set([study_fixture([1.0, 0.7])])
    text = report.to_text()
    assert "precision" in text and "roc_auc" in text


def test_unscored_detection_counts_as_score_one():
    study = study_fixture([1.0, 0.7, 0.9])
    kps, g, _ = study["detections"][1]
    # a rival for the same vertebra scored just below 1: it loses the match
    study["detections"].append((kps + [0.0, 0.5, 0.0], 0.95, 0.99))
    want = evaluate_study_set([study])
    study["detections"][1] = (kps, g, None)
    assert evaluate_study_set([study]) == want
    assert want[0].fp == 1 and want[0].classification["moderate"]["vertebra"]["sensitivity"] == 1


def test_evaluate_study_set_refuses_localization_errors_past_the_float_range():
    # Shifted left-right only, the sagittal boxes still match, but the squared distance
    # to the ground truth overflows.
    study = study_fixture([1.0, 0.7])
    kps, g, score = study["detections"][0]
    study["detections"][0] = (kps + [1e200, 0.0, 0.0], g, score)
    assert localization_error(kps[2] + [1e200, 0.0, 0.0], [kps[2]])[0] == np.inf
    with pytest.raises(GeometryError, match="float range"):
        evaluate_study_set([study])


def test_evaluate_study_set_localizes_by_middle_keypoints():
    study = study_fixture([1.0, 0.7])
    kps, g, score = study["detections"][0]
    study["detections"][0] = (kps + [0.0, 0.0, 1.5], g, score)
    report, _ = evaluate_study_set([study])
    assert report.localization_mean_mm == pytest.approx(0.75, abs=1e-12)
    assert report.tp == 2


# ---------------------------------------------------------------------------
# the study-set pass against the per-study oracle
# ---------------------------------------------------------------------------

GRADES = (0.5, 0.7, 0.74, 0.75, 0.8, 0.85, 1.0)   # on and around both cuts


def grid_keypoints(y0, z0, w, h, x):
    """(6, 3) keypoints on an integer grid whose sagittal box spans y0..y0+w and
    z0..z0+h: small ranges make tied boxes, tied IoUs and tied distances common."""
    return np.array([[x, y, z] for y in (y0, y0 + w / 2, y0 + w) for z in (z0 + h, z0)],
                    dtype=float)


grid_box = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
                     st.integers(1, 3), st.integers(-1, 1))
studies_strategy = st.lists(st.fixed_dictionaries({
    "detections": st.lists(st.tuples(grid_box, st.sampled_from(GRADES),
                                     st.sampled_from((None, 0.5, 0.9, 1.0))), max_size=6),
    "ground_truth": st.lists(st.tuples(grid_box, st.sampled_from(GRADES)), max_size=6),
}), max_size=6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(studies_strategy, st.sampled_from((0.1, 0.5, 0.9, 1.0)))
def test_study_set_equals_the_per_study_oracle(drawn, threshold):
    studies = [{"detections": [(grid_keypoints(*b), g, s) for b, g, s in d["detections"]],
                "ground_truth": [(grid_keypoints(*b), g) for b, g in d["ground_truth"]]}
               for d in drawn]
    got = evaluate_study_set(studies, iou_threshold=threshold)
    assert got == study_set_report(studies, iou_threshold=threshold)


@pytest.mark.parametrize("threshold", [float("nan"), 1.5, float("inf"), 0.0, -1.0])
def test_study_set_refuses_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ValueError, match="iou_threshold"):
        evaluate_study_set([study_fixture([1.0, 0.7])], iou_threshold=threshold)


@pytest.mark.parametrize("cuts, name", [((float("nan"), 0.74), "mild_cut"),
                                        ((0.8, float("inf")), "moderate_cut"),
                                        ((0.74, 0.8), "moderate_cut"),
                                        ((0.8, 0.8), "moderate_cut")])
def test_study_set_refuses_unusable_cuts(cuts, name):
    mild, moderate = cuts
    with pytest.raises(ValueError, match=name):
        evaluate_study_set([study_fixture([1.0, 0.7])], mild_cut=mild, moderate_cut=moderate)


def _spoil(study, key, index, part, value):
    row = list(study[key][index])
    row[part] = value
    study[key][index] = tuple(row)


@pytest.mark.parametrize("key, part, value, field", [
    ("detections", 1, float("nan"), "genant"),
    ("detections", 2, float("inf"), "score"),
    ("detections", 0, np.zeros((5, 3)), "keypoints"),
    ("detections", 0, [[0.0, 0.0, 0.0]] * 5 + [[0.0, 0.0]], "keypoints"),
    ("detections", 0, np.full((6, 3), np.nan), "keypoints"),
    ("ground_truth", 1, float("nan"), "genant"),
    ("ground_truth", 0, np.zeros((6, 2)), "keypoints"),
])
def test_study_set_refuses_bad_entries_naming_study_and_field(key, part, value, field):
    studies = [study_fixture([1.0, 0.7]), study_fixture([0.9, 0.8, 0.6])]
    _spoil(studies[1], key, 2, part, value)
    with pytest.raises(ValueError, match=rf"study 1: {key}\[2\] {field}"):
        evaluate_study_set(studies)
