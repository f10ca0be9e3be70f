"""Axis-aligned box algebra for tracking-by-regression.

Boxes are stored in corner form ``(x1, y1, x2, y2)`` in continuous pixel
units; the regression math works on the derived center form
``(cx, cy, w, h)``. Regression deltas follow the standard R-CNN
parameterization: center offsets normalized by the reference box size,
log-space scale ratios.

All types are immutable and all operations are pure functions.

Box overlap has one kernel, :func:`iou`: it takes two sequences of boxes
and returns their whole ``(len(a), len(b))`` IoU matrix, each entry equal
bit for bit to the pairwise formula. Callers compute one matrix per frame
(or frame pair) and apply their own threshold and tie rule to it.
"""

from __future__ import annotations

import math
from math import isfinite
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MAX_COORDINATE", "Box", "RegressionDelta", "iou", "encode", "decode", "expand"]

# Largest box coordinate magnitude, in pixels, that loaded and generated boxes
# may reach. Past 2**53 a float64 no longer resolves one pixel; inside it the
# extent, area and overlap of a box, and the generator's and the renderer's
# sums, products and squares of coordinates, stay finite.
MAX_COORDINATE = 2.0**53


@dataclass(frozen=True, slots=True)
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
        # One chain on the common path; only a failure looks up which corner.
        if not (isfinite(self.x1) and isfinite(self.y1) and isfinite(self.x2) and isfinite(self.y2)):
            for name in ("x1", "y1", "x2", "y2"):
                v = getattr(self, name)
                if not isfinite(v):
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


@dataclass(frozen=True, slots=True)
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


def iou(a: Sequence[Box], b: Sequence[Box]) -> np.ndarray:
    """IoU matrix of two box sequences: entry ``(i, j)`` is the overlap of ``a[i]`` and ``b[j]``.

    Returns float64 of shape ``(len(a), len(b))``. The kernel is exact: each
    entry takes the pairwise formula's float operations in its order
    (``iw, ih = min - max`` of the corners, ``inter = iw * ih``, ``union =
    area(a[i]) + area(b[j]) - inter``, ``inter / union``), so it equals that
    formula bit for bit and ``iou(a, b) == iou(b, a).T``. An entry is 0.0
    when ``iw <= 0``, ``ih <= 0`` or ``union <= 0``. It raises no
    floating-point warning, even where a box's extent overflows. A call
    costs about ten pairwise evaluations up front, so call it per frame.
    """
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = _corner_array(a)[:, :, None], _corner_array(b)
    # In-place steps keep three (len(a), len(b)) float arrays alive at most.
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(ax2, bx2)
        iw -= np.maximum(ax1, bx1)
        ih = np.minimum(ay2, by2)
        ih -= np.maximum(ay1, by1)
        nonzero = (iw > 0.0) & (ih > 0.0)
        inter = np.multiply(iw, ih, out=iw)
        del ih
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1)
        union -= inter
        nonzero &= ~(union <= 0.0)
        return np.divide(inter, union, out=np.zeros(inter.shape), where=nonzero)


def _corner_array(boxes: Sequence[Box]) -> np.ndarray:
    """Corners as a ``(4, n)`` array: rows x1, y1, x2, y2."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).T


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

