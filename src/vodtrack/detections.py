"""Per-frame detection records shared by the pipeline, linker, and evaluator."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .geometry import Box

__all__ = ["Detection", "PROVENANCE_DETECTED", "PROVENANCE_TRACKED"]

PROVENANCE_DETECTED = "detected"
PROVENANCE_TRACKED = "tracked"


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

    def with_score(self, score: float) -> "Detection":
        return replace(self, score=score)
