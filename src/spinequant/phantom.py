"""Synthetic spine phantom and oracle predictions for end-to-end testing.

Bright box-shaped vertebral bodies stack along a straight or sinusoidal
centerline in an air background.  Each body's up axis follows the centerline
tangent in the coronal (x, z) plane and its height runs piecewise-linearly along
y, anterior -> middle -> posterior, so the planted heights and six keypoints are
exact.  A body renders as one (x, z) cross-section test against a 1D y height
profile, exact since its AP axis is world y (see ``_fill_body``).  Oracle heatmaps
and echoed targets replace the two networks (``pipeline.run_phantom_chain``).
``generate_phantom`` and ``oracle_heatmaps`` render read-only, Fortran-ordered
rasters: the layout ``read_vg1`` returns, which ``write_vg1`` writes as is.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (MAX_GRID_VOXELS, Volume3D, check_grid, check_number_fields, finite_numbers,
                   require)
from .genant import VertebraKeypoints, genant_index
from .localization import centerline_target

BODY_INTENSITY = 400.0
BACKGROUND_INTENSITY = -1000.0
# Slices per Gaussian pass: 8-32 timed alike on the default 54 x 54 grid; 16 is a 0.37 MB buffer.
HEATMAP_SLAB = 16

# Planted height triples (h_a, h_m, h_p) for the default 12-vertebra phantom.
# The pattern spans normal through severe grades with comfortable gaps around
# the 0.8 and 0.74 grading cuts.
DEFAULT_HEIGHTS = (
    (20.0, 20.0, 20.0),   # G = 1.00
    (19.0, 20.0, 20.0),   # G = 0.95
    (18.0, 20.0, 20.0),   # G = 0.90
    (17.2, 20.0, 20.0),   # G = 0.86
    (16.4, 20.0, 20.0),   # G = 0.82
    (20.0, 20.0, 20.0),   # G = 1.00
    (15.2, 20.0, 20.0),   # G = 0.76
    (15.2, 20.0, 20.0),   # G = 0.76
    (14.4, 20.0, 20.0),   # G = 0.72
    (20.0, 13.2, 20.0),   # G = 0.66 (biconcave)
    (12.0, 20.0, 20.0),   # G = 0.60
    (10.0, 20.0, 20.0),   # G = 0.50
)


@dataclass(frozen=True)
class PhantomConfig:
    """Deterministic description of a synthetic spine volume."""

    n_vertebrae: int = 12
    shape: tuple[int, int, int] = (128, 128, 256)
    spacing: tuple[float, float, float] = (1.25, 1.25, 1.25)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scoliosis_amplitude_mm: float = 10.0
    scoliosis_wavelength_mm: float = 400.0
    pitch_mm: float = 24.0
    body_width_mm: float = 30.0
    body_depth_mm: float = 25.0
    heights_mm: tuple[tuple[float, float, float], ...] | None = None
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        """Refuse any description ``generate_phantom`` cannot render, size bounds first."""
        check_number_fields(self, seed=">= 0", **dict.fromkeys(
            ("spacing", "pitch_mm", "body_width_mm", "body_depth_mm", "scoliosis_wavelength_mm",
             "heights_mm"), "> 0"))
        require(self, min(self.shape) >= 8, "shape", "at least 8 voxels along each axis")
        require(self, math.prod(self.shape) <= MAX_GRID_VOXELS, "shape",
                f"at most {MAX_GRID_VOXELS} voxels")
        check_grid(self.shape, self.spacing, self.origin)
        require(self, 2 <= self.n_vertebrae <= self.shape[2], "n_vertebrae",
                "at least 2 and at most one per slice (shape[2])")
        # Ten sigma of noise must stay inside the float32 range the voxels are stored in.
        require(self, 0 <= self.noise_sigma <= float(np.finfo(np.float32).max) / 10,
                "noise_sigma", "in [0, 3.4e37]")
        extent = [(n - 1) * s for n, s in zip(self.shape, self.spacing)]
        span = (self.n_vertebrae - 1) * self.pitch_mm
        require(self, self.heights_mm != (), "heights_mm", "non-empty")
        tallest = [max(trip) for trip in self.resolved_heights()]  # n_vertebrae is bounded
        for a, b in zip(tallest[:-1], tallest[1:]):
            if (a + b) / 2 >= self.pitch_mm:
                raise ValueError(
                    f"bodies overlap: heights_mm {a} and {b} exceed pitch_mm {self.pitch_mm}")
        if (extent[2] - span) / 2 < max(tallest) / 2 + 2:
            raise ValueError(f"volume too short for the spine: n_vertebrae {self.n_vertebrae} "
                             f"at pitch_mm {self.pitch_mm} span {span:g} mm of the "
                             f"{extent[2]:g} mm z extent, with no room for the end bodies")
        if abs(self.scoliosis_amplitude_mm) + self.body_width_mm / 2 > extent[0] / 2 - 2 or \
                self.body_depth_mm / 2 > extent[1] / 2 - 2:
            raise ValueError("spine does not fit inside the volume cross-section: "
                             "scoliosis_amplitude_mm, body_width_mm or body_depth_mm too large")
        # The centerline phase, and the square of the slope that frames each body.
        phase, slope = (2 * math.pi * x / self.scoliosis_wavelength_mm
                        for x in (span, abs(self.scoliosis_amplitude_mm)))
        require(self, math.isfinite(phase + slope * slope), "scoliosis_wavelength_mm",
                "large enough for a finite centerline phase and slope")

    def resolved_heights(self) -> list[tuple[float, float, float]]:
        """Per-vertebra height triples, cycling the default pattern if unset."""
        base = self.heights_mm if self.heights_mm is not None else DEFAULT_HEIGHTS
        return [base[k % len(base)] for k in range(self.n_vertebrae)]

    @classmethod
    def from_dict(cls, doc: dict) -> "PhantomConfig":
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


def generate_phantom(cfg: PhantomConfig) -> tuple[Volume3D, list[VertebraKeypoints], list[float]]:
    """Render the phantom volume with its exact annotations and Genant indices.

    ``cfg`` checked itself when it was built, so rendering raises nothing.
    """
    heights = cfg.resolved_heights()
    extent = [(n - 1) * s for n, s in zip(cfg.shape, cfg.spacing)]
    span = (cfg.n_vertebrae - 1) * cfg.pitch_mm
    x0 = cfg.origin[0] + extent[0] / 2
    y0 = cfg.origin[1] + extent[1] / 2
    z_first = cfg.origin[2] + (extent[2] - span) / 2

    values = np.full(cfg.shape, BACKGROUND_INTENSITY, dtype=np.float32, order="F")
    annotations: list[VertebraKeypoints] = []
    indices: list[float] = []

    for k in range(cfg.n_vertebrae):
        zc = z_first + k * cfg.pitch_mm
        # The sinusoidal centerline at the body center, and its slope there.
        phase = 2 * np.pi * (zc - z_first) / cfg.scoliosis_wavelength_mm
        center = np.array([x0 + cfg.scoliosis_amplitude_mm * np.sin(phase), y0, zc])
        slope = cfg.scoliosis_amplitude_mm * 2 * np.pi / cfg.scoliosis_wavelength_mm * np.cos(phase)
        axis_up = np.array([slope, 0.0, 1.0])
        axis_up /= np.linalg.norm(axis_up)
        axis_ap = np.array([0.0, 1.0, 0.0])
        axis_lr = np.cross(axis_ap, axis_up)

        h_a, h_m, h_p = heights[k]
        annotations.append(_keypoints_for_body(center, axis_ap, axis_up,
                                               cfg.body_depth_mm, h_a, h_m, h_p,
                                               label=f"V{k + 1}"))
        indices.append(genant_index(h_a, h_m, h_p))
        _fill_body(values, cfg, center, axis_lr, axis_ap, axis_up,
                   cfg.body_width_mm, cfg.body_depth_mm, (h_a, h_m, h_p))

    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        values += rng.normal(0.0, cfg.noise_sigma, size=values.shape).astype(np.float32)

    values.flags.writeable = False  # so Volume3D adopts the raster rather than copying it
    return Volume3D(values, cfg.spacing, cfg.origin), annotations, indices


def _keypoints_for_body(center, axis_ap, axis_up, depth, h_a, h_m, h_p,
                        label=None) -> VertebraKeypoints:
    half = depth / 2
    pts = []
    for offset, h in ((-half, h_a), (0.0, h_m), (half, h_p)):
        base = center + offset * axis_ap
        pts.append(base + (h / 2) * axis_up)
        pts.append(base - (h / 2) * axis_up)
    return VertebraKeypoints(pts, label=label)


def _fill_body(values, cfg: PhantomConfig, center, axis_lr, axis_ap, axis_up,
               width, depth, heights_trip) -> None:
    """Rasterize one body on its bounding subgrid: an (x, z) cross-section against a y profile.

    Exact: ``axis_ap`` is world y and the other axes have a y component of +-0, so dropping
    the zero terms flips at most the sign of an exact zero, and every test reads ``abs()``
    or ``<= 0``.  The mask is the one array over the 3D subgrid.
    """
    h_a, h_m, h_p = heights_trip
    radius = np.sqrt(width ** 2 + depth ** 2 + max(heights_trip) ** 2) / 2
    spacing = np.asarray(cfg.spacing)
    origin = np.asarray(cfg.origin)
    lo = np.maximum(np.floor((center - radius - origin) / spacing).astype(int), 0)
    hi = np.minimum(np.ceil((center + radius - origin) / spacing).astype(int) + 1,
                    cfg.shape)
    if np.any(lo >= hi):
        return
    x, y, z = (o + np.arange(a, b) * s - c
               for o, a, b, s, c in zip(origin, lo, hi, spacing, center))
    # Per y, the half-height of the piecewise linear anterior -> middle -> posterior
    # profile, -inf outside the depth; per (x, z), |local_up|, +inf outside the width.
    frac = np.clip(y / (depth / 2), -1.0, 1.0)
    h = np.where(frac <= 0, h_a + (h_m - h_a) * (1 + frac), h_m + (h_p - h_m) * frac)
    half_h = np.where(np.abs(y) <= depth / 2, h / 2, -np.inf)
    lr, up = (x[:, None] * a[0] + z[None, :] * a[2] for a in (axis_lr, axis_up))
    up = np.where(np.abs(lr) <= width / 2, np.abs(up), np.inf)
    inside = up[:, None, :] <= half_h[None, :, None]
    values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]][inside] = BODY_INTENSITY


def oracle_heatmaps(annotations: list[VertebraKeypoints], vol: Volume3D,
                    sigma_vox: float = 2.0) -> Volume3D:
    """Per-slice Gaussian heatmaps centered on the centerline target.

    The returned stack covers the slices of ``vol`` inside the annotated
    span, each holding an isotropic Gaussian normalized to unit mass.
    ``sigma_vox`` must be > 0, and one so small that a slice's Gaussian underflows to 0 raises
    ValueError.  Made ``HEATMAP_SLAB`` slices at a time, each by one slice's operations.
    """
    sigma_vox = finite_numbers(sigma_vox, "sigma_vox", domain="> 0")
    target = centerline_target(annotations, vol.slice_z_world())
    nx, ny = vol.shape[:2]
    maps = np.empty((nx, ny, len(target)), dtype=np.float32, order="F")
    gx, gy = np.arange(nx)[None, :, None], np.arange(ny)[None, None, :]
    centers = vol.world_to_voxel(target.points())
    buffer = np.empty((min(HEATMAP_SLAB, len(target)), nx, ny))
    for i0 in range(0, len(target), HEATMAP_SLAB):
        cx, cy = (centers[i0:i0 + HEATMAP_SLAB, k, None, None] for k in (0, 1))
        m = np.add((gx - cx) ** 2, (gy - cy) ** 2, out=buffer[:len(cx)])
        with np.errstate(divide="ignore", invalid="ignore"):  # sigma_vox ** 2 may underflow
            m /= -(2 * sigma_vox ** 2)  # (-m) / s, as the sign of a quotient is exact
        if not np.all((mass := np.exp(m, out=m).sum(axis=(1, 2))) > 0):
            raise ValueError(f"sigma_vox {sigma_vox} is too small: the Gaussian of slice "
                             f"{i0 + np.argmin(mass > 0)} underflows to 0")
        m /= mass[:, None, None]
        maps[:, :, i0:i0 + HEATMAP_SLAB] = m.transpose(1, 2, 0)
    maps.flags.writeable = False  # so Volume3D adopts the stack rather than copying it
    # target.z holds the span's slice positions of vol, first one first.
    return Volume3D(maps, vol.spacing, (vol.origin[0], vol.origin[1], float(target.z[0])))
