"""Step 2 machinery: anchors, target assignment and the detection loss.

Ground-truth keypoints projected onto the straightened image become
per-anchor training targets: binary objectness (IoU > 0.5 against the tight
keypoint box, plus a forced best anchor per vertebra) and scale-invariant
keypoint offsets.  The loss couples objectness cross-entropy with an offset
regression term weighted by the inverse Genant index; its analytic gradient
is checked here against finite differences.
"""
import numpy as np

from spinequant import PhantomConfig, detection_loss, detection_loss_grad
from spinequant.detection import detection_loss_terms
from spinequant.phantom import generate_phantom
from spinequant.pipeline import PipelineConfig, straighten_stage, targets_stage

cfg = PipelineConfig()
volume, annotations, planted = generate_phantom(PhantomConfig(seed=1))
sagittal = straighten_stage(volume, cfg, annotations=annotations)

anchors, targets = targets_stage(sagittal, annotations, cfg)
print(f"anchor grid: {anchors.image_shape} pixels x {anchors.n_types} types "
      f"= {anchors.n_anchors} anchors")
print(f"positive anchors: {targets.n_positive} "
      f"({targets.n_positive / anchors.n_anchors:.2%})")
per_vertebra = np.bincount(targets.matched, minlength=len(annotations))
print(f"positives per vertebra: min {min(per_vertebra)}, max {max(per_vertebra)}")

# the targets hold the positive anchors only; dense() spreads them over the grid
objectness, offsets, _, _ = targets.dense()

# perfect predictions sit at the numerical floor of the clipped cross-entropy
bce, reg = detection_loss_terms(objectness, offsets, targets)
print(f"\nloss at the oracle point: bce={bce:.2e}, regression={reg:.2e}")

# perturbed predictions: loss rises, gradient matches finite differences
rng = np.random.default_rng(0)
pred_o = np.clip(objectness + rng.normal(0, 0.1, objectness.shape), 0.01, 0.99)
pred_e = offsets + rng.normal(0, 0.05, offsets.shape)
loss = detection_loss(pred_o, pred_e, targets)
grad_o, grad_e = detection_loss_grad(pred_o, pred_e, targets)
print(f"perturbed loss: {loss:.4f}")

h = 1e-5
idx = np.unravel_index(int(np.argmax(np.abs(grad_o))), grad_o.shape)
hi, lo = pred_o.copy(), pred_o.copy()
hi[idx] += h
lo[idx] -= h
fd = (detection_loss(hi, pred_e, targets) - detection_loss(lo, pred_e, targets)) / (2 * h)
print(f"gradient check at the steepest objectness entry: "
      f"analytic {grad_o[idx]:.6e} vs finite difference {fd:.6e}")

# the inverse-Genant weight: severely compressed vertebrae pull harder
weights = [targets.genant_weights[targets.matched == m].mean()
           for m in range(len(annotations))]
print("\nvertebra  planted G  regression weight 1/G")
for kps, g, w in zip(annotations, planted, weights):
    print(f"{kps.label:>8}      {g:.2f}          {1 / w:.2f}")
