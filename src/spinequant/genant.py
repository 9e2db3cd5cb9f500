"""Vertebral body heights, Genant index and severity grading.

A vertebra is annotated with six keypoints on its mid-sagittal plane:
anterior, middle and posterior superior/inferior pairs.  The three heights
are the 3D Euclidean distances of the pairs, and the Genant index is the
smallest height divided by the largest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeometryError, finite_array, finite_numbers, owned_array

# Canonical keypoint order used for (6, k) arrays everywhere in the package.
KEYPOINT_KEYS = ("as", "ai", "ms", "mi", "ps", "pi")

GRADES = ("normal", "mild", "moderate", "severe")

DEFAULT_MILD_CUT = 0.8
DEFAULT_MODERATE_CUT = 0.74
# The severe cut below is the conventional grading boundary; it is a
# configurable default, not a measured constant.
DEFAULT_SEVERE_CUT = 0.6


@dataclass(frozen=True)
class VertebraKeypoints:
    """Six labeled keypoints of one vertebra, world mm.

    ``points`` is a read-only (6, 3) array in ``KEYPOINT_KEYS`` order: the
    anatomical pairs anterior/middle/posterior (a/m/p) crossed with
    superior/inferior (s/i).
    """

    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "points",
                           owned_array(finite_array(self.points, "points", (6, 3)), float))

    def as_array(self) -> np.ndarray:
        """(6, 3) array in canonical keypoint order."""
        return self.points

    def center(self) -> np.ndarray:
        """Vertebral body center: ``body_centers`` of the keypoints."""
        return body_centers(self.points)


def body_centers(kps: np.ndarray) -> np.ndarray:
    """Vertebral body centers of (..., 6, 3) keypoints: midpoints of the middle pair."""
    return (kps[..., 2, :] + kps[..., 3, :]) / 2


def heights(kps: VertebraKeypoints) -> tuple[float, float, float]:
    """Anterior, middle and posterior body heights in mm.

    Each height is the Euclidean distance between the superior and inferior
    keypoint of its pair.  A zero distance signals a degenerate annotation,
    and one past the float range keypoints too far apart; both raise
    GeometryError.
    """
    pts = kps.as_array()
    with np.errstate(over="ignore"):  # refused right below
        h = np.linalg.norm(pts[0::2] - pts[1::2], axis=1)
    if np.any(h <= 0):
        raise GeometryError(f"degenerate annotation: zero height in {tuple(h.tolist())}")
    if not np.all(np.isfinite(h)):
        raise GeometryError(f"keypoints lie too far apart: heights {tuple(h.tolist())} overflow")
    return float(h[0]), float(h[1]), float(h[2])


def genant_index(h_a: float, h_m: float, h_p: float) -> float:
    """Ratio of the smallest to the largest of the three heights, each > 0."""
    h = [finite_numbers(v, name, domain="> 0")
         for v, name in zip((h_a, h_m, h_p), ("h_a", "h_m", "h_p"))]
    return min(h) / max(h)


def grade(g: float, mild_cut: float = DEFAULT_MILD_CUT,
          moderate_cut: float = DEFAULT_MODERATE_CUT,
          severe_cut: float = DEFAULT_SEVERE_CUT) -> str:
    """Severity grade for a Genant index; boundaries are inclusive (<= cut)."""
    g, *cuts = map(finite_numbers, (g, severe_cut, moderate_cut, mild_cut),
                   ("g", "severe_cut", "moderate_cut", "mild_cut"))
    return next((name for name, cut in zip(GRADES[::-1], cuts) if g <= cut), "normal")


def patient_score(indices, **grade_cuts) -> tuple[float, str]:
    """Patient-level score: the minimum Genant index and its grade."""
    indices = finite_numbers(indices, "indices", (None,))
    if not indices:
        raise ValueError("indices must be one or more values, got none")
    g = min(indices)
    return g, grade(g, **grade_cuts)


@dataclass(frozen=True)
class GenantMeasurement:
    """Heights, index and severity grade of one vertebra."""

    h_a: float
    h_m: float
    h_p: float
    genant: float
    grade: str


def measure(kps: VertebraKeypoints, **grade_cuts) -> GenantMeasurement:
    """Measure one annotated vertebra: heights, Genant index, grade."""
    h_a, h_m, h_p = heights(kps)
    g = genant_index(h_a, h_m, h_p)
    return GenantMeasurement(h_a, h_m, h_p, g, grade(g, **grade_cuts))
