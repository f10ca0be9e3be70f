"""Dense numerical kernels: RoI pooling, depth-wise correlation, conv blocks, pyramid fusion.

Feature maps are channel-major float64 arrays of shape ``(C, H, W)``. A grid
value ``feat[c, iy, ix]`` sits at continuous feature-space coordinate
``(ix, iy)``; between grid points the map is interpreted as a bilinearly
interpolated field that decays linearly to zero over one cell beyond the
border and is zero everywhere outside. RoIs are given in image pixel units
and mapped to feature space by dividing by the level stride.

Everything here is deterministic and pure; callers may parallelize across
RoIs and frames freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a (C, H, W) array, got shape {arr.shape}")
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


def _bilinear_sample(feat: Tensor3, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample the zero-extended bilinear field of ``feat`` at continuous points.

    Returns an array of shape ``(C,) + xs.shape``; points whose entire
    bilinear neighborhood lies outside the grid evaluate to zero.
    """
    _, h, w = feat.shape
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)

    out = np.zeros((feat.shape[0],) + xs.shape, dtype=np.float64)
    for dy, dx, wgt in (
        (0, 0, (1.0 - fx) * (1.0 - fy)),
        (0, 1, fx * (1.0 - fy)),
        (1, 0, (1.0 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xc = np.clip(xi, 0, w - 1)
        yc = np.clip(yi, 0, h - 1)
        vals = feat[:, yc, xc]
        out += vals * (wgt * valid)
    return out


def _axis_segments(lo: float, hi: float, n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``n_bins`` equal bins over [lo, hi] at integer cell boundaries.

    Returns (segment centers, segment lengths, owning bin index per segment).
    """
    edges = np.linspace(lo, hi, n_bins + 1)
    interior = np.arange(np.ceil(lo), np.floor(hi) + 1.0)
    interior = interior[(interior > lo) & (interior < hi)]
    cuts = np.unique(np.concatenate([edges, interior]))
    lengths = np.diff(cuts)
    keep = lengths > 0
    lengths = lengths[keep]
    centers = (cuts[:-1] + cuts[1:])[keep] / 2.0
    bin_w = (hi - lo) / n_bins
    owner = np.clip(((centers - lo) / bin_w).astype(np.int64), 0, n_bins - 1)
    return centers, lengths, owner


def roi_align_full_avg(
    feat: Tensor3,
    roi: Box,
    out_h: int,
    out_w: int,
    stride: float,
) -> Tensor3:
    """Pool an RoI into ``out_h x out_w`` bins of exact field averages.

    Each bin value is the mean of the bilinearly interpolated field over the
    bin rectangle, with regions outside the feature extent contributing
    zero. The mean is the exact integral: the field is piecewise bilinear,
    so each cell-aligned piece integrates in closed form.

    A zero-area RoI yields an all-zero output.
    """
    feat = as_tensor3(feat)
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")

    c = feat.shape[0]
    x1, y1, x2, y2 = (v / stride for v in roi.corners())
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        return np.zeros((c, out_h, out_w), dtype=np.float64)

    cx, lx, ox = _axis_segments(x1, x2, out_w)
    cy, ly, oy = _axis_segments(y1, y2, out_h)
    values = _bilinear_sample(feat, *np.meshgrid(cx, cy))
    weights = np.outer(ly, lx)
    acc = np.zeros((c, out_h, out_w), dtype=np.float64)
    np.add.at(acc, (slice(None), oy[:, None], ox[None, :]), values * weights)
    bin_area = ((x2 - x1) / out_w) * ((y2 - y1) / out_h)
    return acc / bin_area


def depthwise_correlate(template: Tensor3, search: Tensor3) -> Tensor3:
    """Valid cross-correlation of each template channel over the same search channel.

    Output shape is ``(C, Hs - Ht + 1, Ws - Wt + 1)``.

    Every output cell sums its ``Ht * Wt`` products in one fixed order: the
    template taps in row-major order, starting from zero, one multiply and
    one add per tap. The order does not depend on where a window sits in the
    search map, so the result is shift-equivariant bit for bit (a search map
    moved by whole cells gives an output moved by the same cells, exactly),
    it equals the dense per-cell loop in that same order bit for bit, and it
    does not depend on a BLAS library, its thread count or an einsum path.
    The loop runs over taps only; each step is vectorised over channels and
    output cells.
    """
    template = as_tensor3(template)
    search = as_tensor3(search)
    if template.shape[0] != search.shape[0]:
        raise ValueError(
            f"channel mismatch: template {template.shape[0]} vs search {search.shape[0]}"
        )
    if template.shape[1] > search.shape[1] or template.shape[2] > search.shape[2]:
        raise ValueError(
            f"template {template.shape[1:]} larger than search {search.shape[1:]}"
        )
    c, ht, wt = template.shape
    oh, ow = search.shape[1] - ht + 1, search.shape[2] - wt + 1
    out = np.zeros((c, oh, ow), dtype=np.float64)
    for i in range(ht):
        for j in range(wt):
            out += template[:, i, j, None, None] * search[:, i : i + oh, j : j + ow]
    return out


def conv2d_same(x: Tensor3, kernel: np.ndarray, bias: np.ndarray | None = None) -> Tensor3:
    """Stride-1 2-D convolution with zero same-padding.

    ``kernel`` has shape (C_out, C_in, kh, kw); output keeps the input's
    spatial size.
    """
    x = as_tensor3(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ValueError(f"kernel must be (C_out, C_in, kh, kw), got shape {kernel.shape}")
    _, c_in, kh, kw = kernel.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, kernel expects {c_in}")

    pad_t, pad_b = (kh - 1) // 2, kh // 2
    pad_l, pad_r = (kw - 1) // 2, kw // 2
    padded = np.pad(x, ((0, 0), (pad_t, pad_b), (pad_l, pad_r)))
    windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))
    out = np.einsum("cyxij,ocij->oyx", windows, kernel, optimize=True)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def conv_block(x: Tensor3, w: ConvBlockWeights) -> Tensor3:
    """Same-padded stride-1 convolution, inference batch-norm, then relu."""
    out = conv2d_same(x, w.kernel, w.bias)
    scale = w.gamma / np.sqrt(w.var + w.eps)
    out = scale[:, None, None] * (out - w.mean[:, None, None]) + w.beta[:, None, None]
    return np.maximum(out, 0.0)


def _max_pool_to(arr: Tensor3, out_h: int, out_w: int, ratio: int) -> Tensor3:
    c, h, w = arr.shape
    out = np.empty((c, out_h, out_w), dtype=np.float64)
    for y in range(out_h):
        y0 = min(y * ratio, h - 1)
        y1 = max(y0 + 1, min((y + 1) * ratio, h))
        rows = arr[:, y0:y1, :]
        for x in range(out_w):
            x0 = min(x * ratio, w - 1)
            x1 = max(x0 + 1, min((x + 1) * ratio, w))
            out[:, y, x] = rows[:, :, x0:x1].max(axis=(1, 2))
    return out


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
