"""Per-frame records shared by the pipeline, linker, and evaluator; each checks its own values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Box

__all__ = ["Detection", "TrackPrediction", "PROVENANCES", "PROVENANCE_DETECTED",
           "PROVENANCE_TRACKED", "check_detection", "check_quality", "frame_of"]

PROVENANCE_DETECTED = "detected"
PROVENANCE_TRACKED = "tracked"
# Every provenance a detection may carry; None means unknown.
PROVENANCES = (None, PROVENANCE_DETECTED, PROVENANCE_TRACKED)


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored box in one frame, with optional identity and origin tag."""

    frame: int
    class_id: int
    score: float
    box: Box
    track: int | None = None
    provenance: str | None = None

    def __post_init__(self) -> None:
        check_detection(self.frame, self.class_id, self.score, self.provenance)

    def with_score(self, score: float) -> "Detection":
        return Detection(self.frame, self.class_id, score, self.box, self.track, self.provenance)


@dataclass(frozen=True, slots=True)
class TrackPrediction:
    """A tracked box for the next frame with its predicted overlap quality; a
    loaded prediction's ``source`` is the loaded detection itself, not a copy."""

    source: Detection
    predicted_box: Box
    quality: float

    def __post_init__(self) -> None:
        check_quality(self.quality)


def check_detection(frame: int, class_id: int, score: float, provenance) -> None:
    """Raise ``ValueError`` for values a :class:`Detection` may not hold (loaded columns obey the same rules)."""
    if frame < 0:
        raise ValueError(f"frame index must be non-negative, got {frame}")
    if class_id < 0:
        raise ValueError(f"class id must be non-negative, got {class_id}")
    if not (0.0 <= score <= 1.0):  # also false for NaN
        raise ValueError(f"detection score must be in [0, 1], got {score!r}")
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")


def check_quality(quality: float) -> None:
    """Raise ``ValueError`` for a quality a :class:`TrackPrediction` may not hold."""
    if not (0.0 <= quality <= 1.0):  # also false for NaN
        raise ValueError(f"quality must be in [0, 1], got {quality!r}")


def frame_of(boxes: Sequence[Detection]) -> int:
    """The one frame of a tracker call's boxes (at least one); two frames raise ``ValueError``."""
    frames = {det.frame for det in boxes}
    if len(frames) != 1:
        raise ValueError(f"a tracker call takes the boxes of one frame, got frames {sorted(frames)}")
    return frames.pop()
