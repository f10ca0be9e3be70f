"""Video object detection post-processing and tracking toolkit.

Turns per-frame detections into temporally consistent video detections by
tracking each object with a scale-adaptive correlation head (or a
ground-truth oracle), merging tracked and detected boxes tracking-first,
and linking the result into tubelets that are re-scored by path averaging.
"""

__version__ = "0.1.0"

from .tensor_ops import ConvBlockWeights, FeaturePyramid

__all__ = [
    "__version__",
    "FeaturePyramid",
    "ConvBlockWeights",
]
