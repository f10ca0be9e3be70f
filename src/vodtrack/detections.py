"""Per-frame records shared by the pipeline, linker, and evaluator; each checks its own values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Box

__all__ = ["Detection", "TrackPrediction", "PROVENANCES", "PROVENANCE_DETECTED",
           "PROVENANCE_TRACKED", "frame_of"]

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
        if self.frame < 0:
            raise ValueError(f"frame index must be non-negative, got {self.frame}")
        if self.class_id < 0:
            raise ValueError(f"class id must be non-negative, got {self.class_id}")
        if not (0.0 <= self.score <= 1.0):  # also false for NaN
            raise ValueError(f"detection score must be in [0, 1], got {self.score!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def with_score(self, score: float) -> "Detection":
        return Detection(self.frame, self.class_id, score, self.box, self.track, self.provenance)


@dataclass(frozen=True, slots=True)
class TrackPrediction:
    """A tracked box for the next frame with its predicted overlap quality."""

    source: Detection
    predicted_box: Box
    quality: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.quality <= 1.0):  # also false for NaN
            raise ValueError(f"quality must be in [0, 1], got {self.quality!r}")


def frame_of(boxes: Sequence[Detection]) -> int:
    """The one frame of a tracker call's boxes (at least one); two frames raise ``ValueError``."""
    frames = {det.frame for det in boxes}
    if len(frames) != 1:
        raise ValueError(f"a tracker call takes the boxes of one frame, got frames {sorted(frames)}")
    return frames.pop()
