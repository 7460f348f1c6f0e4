"""Vision substrate: from raw frames to per-frame vehicle detections.

Re-implements the front end the paper takes from Chen et al. [20]:
background learning and subtraction enhanced with a simplified SPCPE
(Simultaneous Partition and Class Parameter Estimation) segmentation, blob
extraction with minimal bounding rectangles and centroids, and the
PCA-based vehicle classifier of Zhang et al. [13].
"""

from repro.vision.frames import FrameReader, VideoClip
from repro.vision.background import BackgroundModel, GaussianBackgroundModel
from repro.vision.spcpe import SPCPE
from repro.vision.blobs import Blob, clean_mask, extract_blobs
from repro.vision.pipeline import Detection, SegmentationPipeline
from repro.vision.classify_pca import (
    PCAVehicleClassifier,
    canonicalize_orientation,
    classify_tracks,
    default_classifier,
    resize_patch,
)
from repro.vision.calibration import (
    PlaneNormalizedTrack,
    estimate_homography,
    normalize_tracks,
)
from repro.vision.metrics import (
    DetectionQuality,
    TrackingQuality,
    evaluate_detections,
    evaluate_tracking,
)

__all__ = [
    "VideoClip",
    "FrameReader",
    "BackgroundModel",
    "GaussianBackgroundModel",
    "SPCPE",
    "Blob",
    "clean_mask",
    "extract_blobs",
    "Detection",
    "SegmentationPipeline",
    "PCAVehicleClassifier",
    "canonicalize_orientation",
    "classify_tracks",
    "default_classifier",
    "resize_patch",
    "PlaneNormalizedTrack",
    "estimate_homography",
    "normalize_tracks",
    "DetectionQuality",
    "TrackingQuality",
    "evaluate_detections",
    "evaluate_tracking",
]
