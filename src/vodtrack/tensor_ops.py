"""Dense numerical kernels: RoI pooling, depth-wise correlation, conv blocks, pyramid fusion.

Feature maps are channel-major float64 arrays of shape ``(C, H, W)``. A grid
value ``feat[c, iy, ix]`` sits at continuous feature-space coordinate
``(ix, iy)``; between grid points the map is interpreted as a bilinearly
interpolated field that decays linearly to zero over one cell beyond the
border and is zero everywhere outside. RoIs are given in image pixel units
and mapped to feature space by dividing by the level stride.

The head kernels work on batches: :func:`roi_align_full_avg` pools N RoIs
in one call and returns ``(N, C, H, W)``, and :func:`conv2d_same`,
:func:`conv_block` and :func:`depthwise_correlate` accept any leading axes
before ``(C, H, W)``. Each kernel sums in one fixed order that its docstring
states, so an entry of a batch gets the same bits as it would alone, in any
batch and in any order. Pooling, correlation and max-pool fusion never call
a BLAS library. The correlation is shift-equivariant bit for bit, and so is
pooling on bins that lie on whole cells. The convolutions contract channels
through one BLAS matrix product per tap, so they are shift-equivariant only
up to that product's rounding.

Everything here is deterministic and pure; callers may parallelize across
RoIs and frames freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Box

__all__ = [
    "Tensor3",
    "FeaturePyramid",
    "ConvBlockWeights",
    "as_tensor3",
    "roi_align_full_avg",
    "depthwise_correlate",
    "conv2d_same",
    "conv_block",
    "fuse_pyramid",
]

# Channel-major (C, H, W) float64 feature block.
Tensor3 = np.ndarray


def as_tensor3(data) -> Tensor3:
    """Validate and coerce ``data`` into a (C, H, W) float64 array."""
    return _as_maps(data, batched=False)


def _as_maps(data, batched: bool = True) -> np.ndarray:
    """Validate and coerce ``data`` into a float64 ``(..., C, H, W)`` array.

    Without ``batched`` the array must be exactly ``(C, H, W)``.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim < 3 or (arr.ndim > 3 and not batched):
        raise ValueError(
            f"expected a {'(..., C, H, W)' if batched else '(C, H, W)'} array, got shape {arr.shape}"
        )
    if min(arr.shape) < 1:
        raise ValueError(f"all tensor dimensions must be positive, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


@dataclass(frozen=True)
class FeaturePyramid:
    """Multi-stride feature maps for one image, ordered by increasing stride."""

    levels: tuple[tuple[int, Tensor3], ...]
    image_height: int
    image_width: int

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("feature pyramid must have at least one level")
        if self.image_height < 1 or self.image_width < 1:
            raise ValueError("image size must be positive")
        checked = []
        prev = 0
        for stride, fmap in self.levels:
            if stride <= prev:
                raise ValueError("pyramid strides must be positive and strictly increasing")
            prev = stride
            arr = as_tensor3(fmap)
            for size, dim in ((self.image_height, arr.shape[1]), (self.image_width, arr.shape[2])):
                expected = -(-size // stride)
                if abs(dim - expected) > 1:
                    raise ValueError(
                        f"level stride {stride}: map dim {dim} inconsistent with "
                        f"image size {size} (expected ~{expected})"
                    )
            checked.append((int(stride), arr))
        object.__setattr__(self, "levels", tuple(checked))

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.levels)

    def level(self, stride: int) -> Tensor3:
        for s, fmap in self.levels:
            if s == stride:
                return fmap
        raise ValueError(f"stride {stride} not present in pyramid (has {self.strides})")


@dataclass(frozen=True)
class ConvBlockWeights:
    """Convolution + inference-mode batch-norm + relu parameters.

    ``kernel`` has shape (C_out, C_in, kh, kw); the four batch-norm vectors
    have shape (C_out,). ``var`` holds running variances (non-negative).
    """

    kernel: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    bias: np.ndarray | None = None
    eps: float = field(default=1e-5)

    def __post_init__(self) -> None:
        kernel = np.asarray(self.kernel, dtype=np.float64)
        if kernel.ndim != 4:
            raise ValueError(f"kernel must be (C_out, C_in, kh, kw), got shape {kernel.shape}")
        object.__setattr__(self, "kernel", kernel)
        c_out = kernel.shape[0]
        for name in ("gamma", "beta", "mean", "var"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (c_out,):
                raise ValueError(f"{name} must have shape ({c_out},), got {vec.shape}")
            object.__setattr__(self, name, vec)
        if np.any(self.var < 0):
            raise ValueError("batch-norm variances must be non-negative")
        if self.bias is not None:
            bias = np.asarray(self.bias, dtype=np.float64)
            if bias.shape != (c_out,):
                raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")
            object.__setattr__(self, "bias", bias)


def _hat_band(lo: np.ndarray, hi: np.ndarray, n_bins: int, size: int):
    """Banded rows of the bin-mean matrix along one axis, one matrix per RoI.

    Row ``b`` for RoI ``n`` holds the integral of each grid point's hat
    function (the 1-D interpolation basis, ``max(0, 1 - |x - i|)``) over bin
    ``b`` of ``n_bins`` equal bins on ``[lo[n], hi[n]]``, divided by the bin
    width. Only points within one cell of a bin weigh anything, so each row
    is stored as ``taps`` consecutive weights from cell ``first[n, b]``; taps
    past the map or past the bin weigh exactly zero. Returns ``first``
    (N, n_bins) and the weights (N, n_bins, taps). A zero-width extent gives
    all-zero weights.
    """
    edges = np.linspace(lo, hi, n_bins + 1, axis=-1)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    first = np.clip(np.floor(a[..., 0]), 0, size - 1).astype(np.int64)
    last = np.clip(np.ceil(b[..., 0]), 0, size - 1).astype(np.int64)
    cells = first[..., None] + np.arange(int(np.max(last - first)) + 1)
    # The hat rises on [i - 1, i] and falls on [i, i + 1]; each half
    # integrates in closed form over its part of the bin.
    p, q = np.clip(a - cells, -1.0, 0.0), np.clip(b - cells, -1.0, 0.0)
    area = (q - p) * (1.0 + (p + q) / 2.0)
    p, q = np.clip(a - cells, 0.0, 1.0), np.clip(b - cells, 0.0, 1.0)
    area += (q - p) * (1.0 - (p + q) / 2.0)
    width = ((hi - lo) / n_bins)[:, None, None]
    keep = (cells < size) & (width > 0.0)
    return first, np.where(keep, area / np.where(width > 0.0, width, 1.0), 0.0)


def roi_align_full_avg(
    feat: Tensor3,
    rois: Box | Sequence[Box],
    out_h: int,
    out_w: int,
    stride: float,
) -> np.ndarray:
    """Pool RoIs into ``out_h x out_w`` bins of exact field averages.

    Each bin value is the mean of the bilinearly interpolated field over the
    bin rectangle, with regions outside the feature extent contributing
    zero. The field is a sum of separable hat functions, so the bin means of
    one RoI are ``Wy @ F @ Wx.T`` per channel, where ``Wy`` and ``Wx`` hold
    hat-function integrals (:func:`_hat_band`): exact up to rounding, with
    no sampling.

    ``rois`` is one :class:`Box`, giving a ``(C, out_h, out_w)`` result, or
    a sequence of N boxes, giving ``(N, C, out_h, out_w)``. All N are pooled
    in one pass. Both products are summed over the band of each matrix row
    in increasing cell order, one multiply and one add per tap, vectorised
    over RoIs, channels and bins. Every value therefore depends only on its
    own RoI: it is the same bit for bit whatever other RoIs share the call
    and in whatever order, and it does not depend on a BLAS library.

    A zero-area RoI yields all zeros.
    """
    feat = as_tensor3(feat)
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")

    single = isinstance(rois, Box)
    boxes = [rois] if single else list(rois)
    corners = np.array([r.corners() for r in boxes], dtype=np.float64).reshape(-1, 4) / stride
    c, h, w = feat.shape
    n = corners.shape[0]
    if n == 0:
        return np.zeros((0, c, out_h, out_w), dtype=np.float64)
    first_y, wy = _hat_band(corners[:, 1], corners[:, 3], out_h, h)
    first_x, wx = _hat_band(corners[:, 0], corners[:, 2], out_w, w)

    # Each RoI's band columns, counted from its first band column, and the
    # window of map columns they span.
    cols = np.minimum(first_x[..., None] + np.arange(wx.shape[-1]), w - 1)
    cols -= first_x[:, :1, None]
    span = int(cols.max()) + 1
    window = np.minimum(first_x[:, :1] + np.arange(span), w - 1)
    # Channels last, one row per map cell, so that each gather is one
    # ``np.take`` of whole channel vectors.
    cells = feat.transpose(1, 2, 0).reshape(h * w, c)
    # Wy @ F on the window: rows[n, y, k] sums map column window[n, k] over
    # the band of row bin y. Products go through one reused buffer per pass.
    rows = np.zeros((n, out_h, span, c), dtype=np.float64)
    taken = np.empty_like(rows)
    for t in range(wy.shape[-1]):
        at = np.minimum(first_y[..., None] + t, h - 1) * w + window[:, None, :]
        np.take(cells, at, axis=0, out=taken, mode="clip")
        taken *= wy[:, :, t, None, None]
        rows += taken
    # (Wy @ F) @ Wx.T over the band of each column bin.
    rows = rows.reshape(n * out_h * span, c)
    row_start = (np.arange(n)[:, None, None] * out_h + np.arange(out_h)[:, None]) * span
    out = np.zeros((n, out_h, out_w, c), dtype=np.float64)
    taken = np.empty_like(out)
    for t in range(wx.shape[-1]):
        np.take(rows, row_start + cols[:, None, :, t], axis=0, out=taken, mode="clip")
        taken *= wx[:, None, :, t, None]
        out += taken
    out = out.transpose(0, 3, 1, 2)
    return out[0] if single else out


def depthwise_correlate(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of each template channel over the same search channel.

    Inputs are ``(..., C, Ht, Wt)`` and ``(..., C, Hs, Ws)`` with leading
    axes that broadcast (a batch of N pairs is ``(N, C, ...)`` each). The
    output is ``(..., C, Hs - Ht + 1, Ws - Wt + 1)``.

    Every output cell sums its ``Ht * Wt`` products in one fixed order: the
    template taps in row-major order, starting from zero, one multiply and
    one add per tap. The order does not depend on where a window sits in the
    search map or on the other pairs of a batch, so the result is
    shift-equivariant bit for bit (a search map moved by whole cells gives
    an output moved by the same cells, exactly), each pair's output is the
    same bit for bit alone or in any batch, it equals the dense per-cell
    loop in that same order bit for bit, and it does not depend on a BLAS
    library, its thread count or an einsum path. The loop runs over taps
    only; each step is vectorised over pairs, channels and output cells.
    """
    template = _as_maps(template)
    search = _as_maps(search)
    if template.shape[-3] != search.shape[-3]:
        raise ValueError(
            f"channel mismatch: template {template.shape[-3]} vs search {search.shape[-3]}"
        )
    ht, wt = template.shape[-2:]
    if ht > search.shape[-2] or wt > search.shape[-1]:
        raise ValueError(
            f"template {template.shape[-2:]} larger than search {search.shape[-2:]}"
        )
    oh, ow = search.shape[-2] - ht + 1, search.shape[-1] - wt + 1
    lead = np.broadcast_shapes(template.shape[:-2], search.shape[:-2])
    out = np.zeros(lead + (oh, ow), dtype=np.float64)
    for i in range(ht):
        for j in range(wt):
            out += template[..., i, j, None, None] * search[..., i : i + oh, j : j + ow]
    return out


def conv2d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 2-D convolution with zero same-padding.

    ``x`` is ``(..., C_in, H, W)`` with any leading axes; ``kernel`` has
    shape (C_out, C_in, kh, kw). The output is ``(..., C_out, H, W)``.

    The taps are summed in one fixed order, row-major, starting from zero:
    for each tap, one channel contraction (a ``(C_out, C_in)`` by
    ``(C_in, H * W)`` matrix product per leading index) is added to the
    running sum; the bias is added last. Each leading index runs the same
    products as it would alone, so an entry's result does not depend on the
    rest of the batch. Within one tap the channel sum is the BLAS library's,
    which may round an output cell by where its column sits in the product:
    a one-cell shift of the input moves the output by one cell only up to
    that rounding (about 1e-15 here), and bit for bit when ``C_in`` is 1,
    where each tap adds a single product.
    """
    x = _as_maps(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ValueError(f"kernel must be (C_out, C_in, kh, kw), got shape {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if x.shape[-3] != c_in:
        raise ValueError(f"input has {x.shape[-3]} channels, kernel expects {c_in}")

    lead, (h, w) = x.shape[:-3], x.shape[-2:]
    pad = [(0, 0)] * (x.ndim - 2) + [((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2)]
    padded = np.pad(x, pad)
    out = np.zeros(lead + (c_out, h * w), dtype=np.float64)
    product = np.empty_like(out)
    for i in range(kh):
        for j in range(kw):
            window = padded[..., i : i + h, j : j + w].reshape(lead + (c_in, h * w))
            out += np.matmul(kernel[:, :, i, j], window, out=product)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None]
    return out.reshape(lead + (c_out, h, w))


def conv_block(x: np.ndarray, w: ConvBlockWeights) -> np.ndarray:
    """Same-padded stride-1 convolution, inference batch-norm, then relu.

    ``x`` is ``(..., C_in, H, W)``; the normalisation and relu act on each
    value alone, so a batch gives each entry its result alone bit for bit.
    """
    out = conv2d_same(x, w.kernel, w.bias)
    out -= w.mean[:, None, None]
    out *= (w.gamma / np.sqrt(w.var + w.eps))[:, None, None]
    out += w.beta[:, None, None]
    return np.maximum(out, 0.0, out=out)


def _max_pool_to(arr: Tensor3, out_h: int, out_w: int, ratio: int) -> Tensor3:
    """Max over each ``ratio x ratio`` block, one output cell per block.

    The map is cut or edge-padded to ``out * ratio`` cells per axis, so a
    block cut short by the map's edge, or lying wholly past it, takes its
    max over the map's last row or column. The max is then taken over the
    ``ratio`` strided row views and then the column views. A max is exact,
    so the result equals the per-cell loop bit for bit.
    """
    _, h, w = arr.shape
    th, tw = out_h * ratio, out_w * ratio
    padded = np.pad(arr[:, :th, :tw], ((0, 0), (0, max(th - h, 0)), (0, max(tw - w, 0))), mode="edge")
    rows = functools.reduce(np.maximum, (padded[:, i::ratio] for i in range(ratio)))
    return functools.reduce(np.maximum, (rows[:, :, j::ratio] for j in range(ratio)))


def _bilinear_resize(arr: Tensor3, out_h: int, out_w: int) -> Tensor3:
    """Resize with edge-clamped bilinear interpolation (half-pixel centers)."""
    _, h, w = arr.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    tl = arr[:, y0[:, None], x0[None, :]]
    tr = arr[:, y0[:, None], x1[None, :]]
    bl = arr[:, y1[:, None], x0[None, :]]
    br = arr[:, y1[:, None], x1[None, :]]
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    return top * (1 - fy) + bot * fy


def fuse_pyramid(pyr: FeaturePyramid, target_stride: int) -> Tensor3:
    """Resize every pyramid level to the target level's size and concatenate channels.

    Finer levels are max-pooled down; coarser levels are bilinearly
    interpolated up. Levels are concatenated in increasing stride order.
    """
    target = pyr.level(target_stride)
    _, th, tw = target.shape
    parts = []
    for stride, fmap in pyr.levels:
        if stride == target_stride:
            parts.append(fmap)
        elif stride < target_stride:
            ratio = target_stride // stride
            if stride * ratio != target_stride:
                raise ValueError(
                    f"stride {stride} does not divide target stride {target_stride}"
                )
            parts.append(_max_pool_to(fmap, th, tw, ratio))
        else:
            parts.append(_bilinear_resize(fmap, th, tw))
    return np.concatenate(parts, axis=0)
