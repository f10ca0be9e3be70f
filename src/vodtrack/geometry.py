"""Axis-aligned box algebra for tracking-by-regression.

A box is a row of an ``(n, 4)`` float64 array of corners ``(x1, y1, x2, y2)``
in continuous pixel units; every function here takes and returns such
arrays. The regression math works on the derived center form ``(cx, cy, w,
h)``. Regression deltas are ``(n, 4)`` rows ``(dx, dy, dw, dh)`` in the
standard R-CNN parameterization: center offsets normalized by the reference
box size, log-space scale ratios. All operations are pure functions.

Box overlap has one kernel, :func:`iou`: it takes two corner arrays and
returns their whole ``(len(a), len(b))`` IoU matrix, each entry equal bit
for bit to the pairwise formula. Callers compute one matrix per frame (or
frame pair) and apply their own threshold and tie rule to it.

Every box the package makes passes :func:`check_corners`, the rule the
record loaders apply, where it is made.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_COORDINATE", "check_corners", "iou", "encode", "decode", "expand"]

# Largest box coordinate magnitude, in pixels, that loaded and generated boxes
# may reach. Past 2**53 a float64 no longer resolves one pixel; inside it the
# extent, area and overlap of a box, and the generator's and the renderer's
# sums, products and squares of coordinates, stay finite.
MAX_COORDINATE = 2.0**53


def check_corners(boxes: np.ndarray) -> np.ndarray:
    """``boxes``, an ``(n, 4)`` corner array, if every row is a box the loaders accept.

    A row must be finite, lie within ``±MAX_COORDINATE`` and have
    non-negative extent; the first row that does not raises ``ValueError``.
    """
    x1, y1, x2, y2 = boxes.T
    with np.errstate(invalid="ignore"):
        inside = (np.abs(boxes) <= MAX_COORDINATE).all(axis=1)  # false for NaN
        good = inside & (x1 <= x2) & (y1 <= y2)
    if not good.all():
        i = int(np.argmin(good))
        if not inside[i]:
            raise ValueError(f"box corners must be finite and lie within ±2**53, got {boxes[i].tolist()}")
        raise ValueError(f"negative box extent: {boxes[i].tolist()}")
    return boxes


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix of two corner arrays: entry ``(i, j)`` is the overlap of ``a[i]`` and ``b[j]``.

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
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = a.T[:, :, None], b.T
    # In-place steps on two reused (len(a), len(b)) float arrays and one mask.
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(ax2, bx2)
        spare = np.maximum(ax1, bx1)
        iw -= spare
        ih = np.minimum(ay2, by2, out=spare)
        ih -= np.maximum(ay1, by1)
        nonzero = iw > 0.0
        nonzero &= ih > 0.0
        inter = np.multiply(iw, ih, out=iw)
        union = np.add((ax2 - ax1) * (ay2 - ay1), (bx2 - bx1) * (by2 - by1), out=ih)
        union -= inter
        nonzero &= ~(union <= 0.0)
        return np.divide(inter, union, out=np.zeros(inter.shape), where=nonzero)


def _sizes(boxes: np.ndarray, role: str) -> tuple[np.ndarray, np.ndarray]:
    """The widths and heights of ``boxes``, all of which must be positive."""
    w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    if not ((w > 0.0) & (h > 0.0)).all():
        raise ValueError(f"{role} boxes must have positive width and height")
    return w, h


def _each(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) of each value, which ``np.exp`` does not match
    bit for bit on every machine; an overflow raises ``ValueError``."""
    try:
        return np.array([fn(v) for v in values.tolist()], dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{fn.__name__} of box scale {max(values.tolist())!r} overflows") from None


def encode(boxes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Regression targets taking each reference box onto the target box of its row.

    Row ``i`` is ``((g.cx - b.cx) / b.w, (g.cy - b.cy) / b.h, ln(g.w / b.w),
    ln(g.h / b.h))`` for ``b = boxes[i]`` and ``g = targets[i]``. Every box
    must have positive extent.
    """
    bw, bh = _sizes(boxes, "reference")
    gw, gh = _sizes(targets, "target")
    dx = ((targets[:, 0] + targets[:, 2]) / 2.0 - (boxes[:, 0] + boxes[:, 2]) / 2.0) / bw
    dy = ((targets[:, 1] + targets[:, 3]) / 2.0 - (boxes[:, 1] + boxes[:, 3]) / 2.0) / bh
    return np.stack([dx, dy, _each(math.log, gw / bw), _each(math.log, gh / bh)], axis=1)


def _move_and_scale(boxes: np.ndarray, tx: np.ndarray, ty: np.ndarray, dw: np.ndarray,
                    dh: np.ndarray) -> np.ndarray:
    """Each box moved by ``(tx, ty)`` and its width and height scaled by ``exp(dw)`` and
    ``exp(dh)`` about its center, as checked corners (:func:`check_corners`).

    The corner-form evaluation (algebraically the center form) keeps a zero
    move and scale bit-exact.
    """
    x1, y1, x2, y2 = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        sx = (x2 - x1) * (1.0 - _each(math.exp, dw)) / 2.0
        sy = (y2 - y1) * (1.0 - _each(math.exp, dh)) / 2.0
        moved = np.stack([x1 + tx + sx, y1 + ty + sy, x2 + tx - sx, y2 + ty - sy], axis=1)
    return check_corners(moved)


def decode(boxes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Apply each row's regression delta to its reference box.

    Inverse of :func:`encode`: the decoded box has center ``(dx * w + cx,
    dy * h + cy)`` and size ``(exp(dw) * w, exp(dh) * h)``. Every reference
    box must have positive extent, and every decoded box must pass
    :func:`check_corners`.
    """
    w, h = _sizes(boxes, "reference")
    dx, dy, dw, dh = deltas.T
    with np.errstate(over="ignore"):  # an overflowing move fails the corner check
        return _move_and_scale(boxes, dx * w, dy * h, dw, dh)


def expand(boxes: np.ndarray, k: float) -> np.ndarray:
    """Scale each box about its center by factor ``k`` >= 1, keeping the aspect ratio."""
    if not (k >= 1.0):
        raise ValueError(f"expansion factor must be >= 1, got {k!r}")
    x1, y1, x2, y2 = boxes.T
    mx = (k - 1.0) * (x2 - x1) / 2.0
    my = (k - 1.0) * (y2 - y1) / 2.0
    return np.stack([x1 - mx, y1 - my, x2 + mx, y2 + my], axis=1)
