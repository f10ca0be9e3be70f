"""The rules of a detection record's values, shared by the loaders and the merge.

Records live only as columns (:class:`~vodtrack.evalio.VideoDetectionSet`);
a record's provenance is held there as an index into ``PROVENANCES``.
"""

from __future__ import annotations

__all__ = ["PROVENANCES", "PROVENANCE_DETECTED", "PROVENANCE_TRACKED", "check_detection", "check_quality"]

PROVENANCE_DETECTED = "detected"
PROVENANCE_TRACKED = "tracked"
# Every provenance a detection may carry; None means unknown.
PROVENANCES = (None, PROVENANCE_DETECTED, PROVENANCE_TRACKED)


def check_detection(frame: int, class_id: int, score: float, provenance) -> None:
    """Raise ``ValueError`` for values a detection record may not hold."""
    if frame < 0:
        raise ValueError(f"frame index must be non-negative, got {frame}")
    if class_id < 0:
        raise ValueError(f"class id must be non-negative, got {class_id}")
    if not (0.0 <= score <= 1.0):  # also false for NaN
        raise ValueError(f"detection score must be in [0, 1], got {score!r}")
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")


def check_quality(quality: float) -> None:
    """Raise ``ValueError`` for a quality a track prediction may not hold."""
    if not (0.0 <= quality <= 1.0):  # also false for NaN
        raise ValueError(f"quality must be in [0, 1], got {quality!r}")
