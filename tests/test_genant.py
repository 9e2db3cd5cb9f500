import numpy as np
import pytest

from spinequant.core import GeometryError
from spinequant.genant import (VertebraKeypoints, body_centers, genant_index, grade, heights,
                               measure, patient_score)


def make_keypoints(h_a=10.0, h_m=10.0, h_p=10.0, center=(0.0, 0.0, 0.0), depth=20.0):
    cx, cy, cz = center
    pts = []
    for off, h in ((-depth / 2, h_a), (0.0, h_m), (depth / 2, h_p)):
        pts.append([cx, cy + off, cz + h / 2])
        pts.append([cx, cy + off, cz - h / 2])
    return VertebraKeypoints(np.array(pts))


def test_body_centers_are_the_planted_centers_of_any_stack():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-50, 50, (2, 3, 3))
    kps = np.array([[make_keypoints(center=c).as_array() for c in row] for row in centers])
    np.testing.assert_allclose(body_centers(kps), centers, atol=1e-12)
    assert body_centers(kps[0, 0]).shape == (3,)
    assert np.array_equal(make_keypoints(center=centers[1, 2]).center(), body_centers(kps[1, 2]))


def test_heights_vertical_pairs():
    assert heights(make_keypoints(10, 10, 10)) == (10.0, 10.0, 10.0)


def test_heights_3_4_5_triangle():
    kps = make_keypoints().as_array().copy()
    kps[0] = kps[1] + np.array([3.0, 4.0, 0.0])
    got = heights(VertebraKeypoints(kps))
    assert got[0] == pytest.approx(5.0, abs=1e-12)


def test_heights_zero_distance_error():
    kps = make_keypoints().as_array().copy()
    kps[0] = kps[1]
    with pytest.raises(ValueError):
        heights(VertebraKeypoints(kps))


def test_heights_past_the_float_range_error():
    kps = make_keypoints().as_array() * 1e154  # heights of 1e155: their squares overflow
    with pytest.raises(GeometryError, match="overflow"):
        heights(VertebraKeypoints(kps))


def test_genant_index_examples():
    assert genant_index(10, 10, 10) == 1.0
    assert genant_index(7.4, 10, 10) == pytest.approx(0.74, abs=1e-12)
    assert genant_index(8, 9, 10) == pytest.approx(0.8, abs=1e-12)


def test_genant_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        genant_index(0.0, 10, 10)
    with pytest.raises(ValueError):
        genant_index(10, -1, 10)


def test_genant_index_permutation_and_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(500):
        h = rng.uniform(0.5, 40.0, 3)
        lam = rng.uniform(0.01, 100.0)
        base = genant_index(*h)
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert genant_index(*h[list(perm)]) == base
        assert genant_index(*(lam * h)) == pytest.approx(base, rel=1e-12)
        assert 0 < base <= 1


def test_grade_thresholds():
    assert grade(0.95) == "normal"
    assert grade(0.81) == "normal"
    assert grade(0.8) == "mild"        # boundary inclusive
    assert grade(0.75) == "mild"
    assert grade(0.74) == "moderate"   # boundary inclusive
    assert grade(0.61) == "moderate"
    assert grade(0.6) == "severe"
    assert grade(0.5) == "severe"


def test_grade_monotone_in_index():
    order = {"severe": 0, "moderate": 1, "mild": 2, "normal": 3}
    gs = np.linspace(0.01, 1.0, 200)
    ranks = [order[grade(g)] for g in gs]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_grade_custom_cuts():
    assert grade(0.7, mild_cut=0.9, moderate_cut=0.65, severe_cut=0.3) == "mild"


def test_patient_score_minimum():
    g, grd = patient_score([1.0, 0.9, 0.7])
    assert (g, grd) == (0.7, "moderate")
    assert patient_score([0.78]) == (0.78, "mild")
    g, grd = patient_score([0.95, 0.9, 0.99])
    assert (g, grd) == (0.9, "normal")
    with pytest.raises(ValueError):
        patient_score([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grade_refuses_non_finite_index(bad):
    with pytest.raises(ValueError, match="g must be a finite"):
        grade(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_patient_score_refuses_non_finite_index(bad):
    for indices in ([bad, 0.5], [0.5, bad]):  # first or last: min() must not hide it
        with pytest.raises(ValueError, match="^indices must be finite numbers of shape"):
            patient_score(indices)


def test_patient_score_monotone_under_growth():
    rng = np.random.default_rng(9)
    vals = list(rng.uniform(0.3, 1.0, 10))
    for i in range(1, len(vals)):
        assert patient_score(vals[: i + 1])[0] <= patient_score(vals[:i])[0]


def test_measure_combines_fields():
    m = measure(make_keypoints(7.4, 10, 10))
    assert m.h_a == pytest.approx(7.4)
    assert m.genant == pytest.approx(0.74)
    assert m.grade == "moderate"


def test_keypoints_validation():
    with pytest.raises(ValueError):
        VertebraKeypoints(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        VertebraKeypoints(np.full((6, 3), np.nan))
