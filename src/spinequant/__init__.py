"""spinequant: spine straightening, vertebra detection and Genant grading.

The package implements the deterministic, non-learned parts of a two-step
vertebral fracture quantification pipeline: decoding a 3D spine centerline
from per-slice probability maps, straightening the volume into a 2D
mid-sagittal image, anchor-based six-keypoint detection machinery (targets,
encoding, loss, decoding) and Genant severity grading with the matching
evaluation metrics.  A synthetic phantom plus oracle predictions allow the
whole chain to be exercised without trained networks.
"""
from .core import GeometryError, UndefinedMetricError, Volume3D
from .detection import (AnchorGrid, DetectionTargets, assign_targets, decode_keypoints, detect,
                        detect_candidates, detection_loss, detection_loss_grad, encode_keypoints,
                        generate_anchors, nms)
from .evaluation import EvalReport, classification_report, match_detections, roc_auc
from .formats import FormatError, read_va1, read_vg1, write_va1, write_vg1
from .genant import (GenantMeasurement, VertebraKeypoints, genant_index, grade,
                     heights, patient_score)
from .localization import (CenterlinePolyline, centerline_target, slicewise_centerline,
                           soft_argmax_2d, upsample_curve)
from .phantom import PhantomConfig, generate_phantom, oracle_heatmaps
from .pipeline import PipelineConfig, run_phantom_chain
from .straighten import (SpineCurve, StraightenedImage, StraightenTransform,
                         build_spine_curve, straighten_plane)

__version__ = "0.1.0"

__all__ = [
    "AnchorGrid", "CenterlinePolyline", "DetectionTargets",
    "EvalReport", "FormatError", "GenantMeasurement", "GeometryError",
    "PhantomConfig", "PipelineConfig", "SpineCurve", "StraightenTransform",
    "StraightenedImage", "UndefinedMetricError", "VertebraKeypoints", "Volume3D",
    "assign_targets", "build_spine_curve",
    "centerline_target", "classification_report",
    "decode_keypoints", "detect", "detect_candidates", "detection_loss", "detection_loss_grad",
    "encode_keypoints", "generate_anchors", "generate_phantom", "genant_index",
    "grade", "heights", "match_detections",
    "nms", "oracle_heatmaps", "patient_score",
    "read_va1", "read_vg1", "roc_auc", "run_phantom_chain",
    "slicewise_centerline", "soft_argmax_2d", "straighten_plane",
    "upsample_curve", "write_va1", "write_vg1",
]
