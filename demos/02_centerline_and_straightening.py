"""Step 1 of the pipeline: centerline decoding and spine straightening.

Per-slice probability maps (here: oracle Gaussians standing in for the
localization network) are reduced to one point per axial slice with a
soft-argmax.  The resulting 3D curve is smoothed, resampled by arc length,
framed, and used to resample the volume so the spine becomes a straight
vertical column; the new mid-sagittal plane then shows every vertebra at
once, scoliosis or not.
"""
import numpy as np

from spinequant import (PhantomConfig, generate_phantom, oracle_heatmaps,
                        resample_volume, slicewise_centerline)
from spinequant.pipeline import PipelineConfig, straighten_stage

phantom_cfg = PhantomConfig(scoliosis_amplitude_mm=25.0, seed=3)
cfg = PipelineConfig()

volume, annotations, _ = generate_phantom(phantom_cfg)

# the localization network works at a coarse isotropic resolution
working = resample_volume(volume, (cfg.working_spacing_mm,) * 3)
heatmaps = oracle_heatmaps(annotations, working)
print(f"working grid {working.shape} at {cfg.working_spacing_mm} mm")

coarse = slicewise_centerline(heatmaps)
print(f"decoded centerline: {len(coarse)} slices, "
      f"lateral range {np.ptp(coarse.xy[:, 0]):.1f} mm")

sagittal = straighten_stage(volume, cfg, heatmaps=heatmaps)
print(f"mid-sagittal image {sagittal.values.shape} "
      f"(anterior-posterior x arc-length rows, {cfg.delta_mm} mm pixels)")

# the planted body centers should sit on the central column of the image
transform = sagittal.transform
px = transform.world_to_pixel(np.stack([a.center() for a in annotations]))
offsets = (px[:, 0] - transform.j_half) * cfg.delta_mm
print(f"body-center offset from the straight column: "
      f"max {np.abs(offsets).max():.2f} mm")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 6))
    naive = volume.values[volume.shape[0] // 2].T
    axes[0].imshow(naive, origin="lower", cmap="gray")
    axes[0].set_title("naive sagittal plane (bodies drift out)")
    axes[1].imshow(sagittal.values.T, origin="lower", cmap="gray")
    axes[1].set_title("straightened mid-sagittal image")
    fig.tight_layout()
    fig.savefig("straightening.png", dpi=110)
    print("wrote straightening.png")
except ImportError:
    pass
