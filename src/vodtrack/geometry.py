"""Axis-aligned box algebra for tracking-by-regression.

Boxes are stored in corner form ``(x1, y1, x2, y2)`` in continuous pixel
units; the regression math works on the derived center form
``(cx, cy, w, h)``. Regression deltas follow the standard R-CNN
parameterization: center offsets normalized by the reference box size,
log-space scale ratios.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Box", "RegressionDelta", "iou", "encode", "decode", "expand"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with corner storage and center-form accessors.

    Zero-area boxes are representable (they occur in detection files);
    negative extent is rejected at construction.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box coordinate {name} is not finite: {v!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"negative box extent: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "Box":
        """Build a box from center coordinates and width/height."""
        return cls(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    @property
    def cx(self) -> float:
        return (self.x1 + self.x2) / 2.0

    @property
    def cy(self) -> float:
        return (self.y1 + self.y2) / 2.0

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class RegressionDelta:
    """Dimensionless box regression target/prediction.

    ``dx``/``dy`` are center offsets normalized by the reference box
    width/height; ``dw``/``dh`` are log-space size ratios.
    """

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dw", "dh"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"regression delta {name} is not finite: {v!r}")


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0.0 when the union has zero area."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _require_positive_extent(b: Box, role: str) -> None:
    if b.w <= 0.0 or b.h <= 0.0:
        raise ValueError(f"{role} box must have positive width and height: {b}")


def encode(b: Box, g: Box) -> RegressionDelta:
    """Regression target taking reference box ``b`` onto target box ``g``.

    Returns ``((g.cx - b.cx) / b.w, (g.cy - b.cy) / b.h,
    ln(g.w / b.w), ln(g.h / b.h))``. Both boxes must have positive extent.
    """
    _require_positive_extent(b, "reference")
    _require_positive_extent(g, "target")
    return RegressionDelta(
        dx=(g.cx - b.cx) / b.w,
        dy=(g.cy - b.cy) / b.h,
        dw=math.log(g.w / b.w),
        dh=math.log(g.h / b.h),
    )


def decode(b: Box, d: RegressionDelta) -> Box:
    """Apply a regression delta to reference box ``b``.

    Inverse of :func:`encode`: the decoded box has center
    ``(d.dx * b.w + b.cx, d.dy * b.h + b.cy)`` and size
    ``(exp(d.dw) * b.w, exp(d.dh) * b.h)``.
    """
    _require_positive_extent(b, "reference")
    # Corner-form evaluation (algebraically identical to the center form)
    # keeps the zero-delta decode bit-exact: decode(b, 0) == b.
    sx = b.w * (1.0 - math.exp(d.dw)) / 2.0
    sy = b.h * (1.0 - math.exp(d.dh)) / 2.0
    tx = d.dx * b.w
    ty = d.dy * b.h
    return Box(
        b.x1 + tx + sx,
        b.y1 + ty + sy,
        b.x2 + tx - sx,
        b.y2 + ty - sy,
    )


def expand(b: Box, k: float) -> Box:
    """Scale a box about its center by factor ``k`` >= 1, keeping the aspect ratio."""
    if not (k >= 1.0):
        raise ValueError(f"expansion factor must be >= 1, got {k!r}")
    mx = (k - 1.0) * b.w / 2.0
    my = (k - 1.0) * b.h / 2.0
    return Box(b.x1 - mx, b.y1 - my, b.x2 + mx, b.y2 + my)

