"""From prediction maps to graded vertebrae in world coordinates.

Oracle predictions (the assigned targets echoed back, optionally with
regression noise) are decoded in one array pass over the positive anchors,
reduced with non-maximum suppression, mapped back to 3D through the
straightening transform, and measured: three heights, the Genant index,
and a severity grade per vertebra, plus the patient-level minimum.
"""
import numpy as np

from spinequant import PhantomConfig
from spinequant.pipeline import (PipelineConfig, patient_summary, rescore_chain,
                                 run_phantom_chain)

cfg = PipelineConfig()
chain = run_phantom_chain(PhantomConfig(scoliosis_amplitude_mm=15.0, seed=21), cfg)

print("oracle predictions, no noise:")
print("detected  score  h_a    h_m    h_p    G      grade      planted G")
results = sorted(chain.results, key=lambda r: r.keypoints_mm[:, 2].mean())
for res, g in zip(results, chain.planted_genant):
    m = res.measurement
    print(f"   found  {res.score:.2f}  {m.h_a:5.2f}  {m.h_m:5.2f}  {m.h_p:5.2f}  "
          f"{m.genant:.3f}  {m.grade:<9}  {g:.3f}")
print("patient:", patient_summary(chain.results, cfg))

sigma = 0.5
_, noisy = rescore_chain(chain, cfg, keypoint_noise_mm=sigma, noise_seed=4)
noisy = sorted(noisy, key=lambda r: r.keypoints_mm[:, 2].mean())
err = [abs(a.measurement.genant - g) for a, g in zip(noisy, chain.planted_genant)]
print(f"\nwith {sigma} mm keypoint regression noise: "
      f"median |dG| = {np.median(err):.3f}, max = {np.max(err):.3f}")
print("patient:", patient_summary(noisy, cfg))
