"""Dense numerical kernels: RoI pooling, depth-wise correlation, conv blocks, pyramid fusion.

Feature maps are float64 arrays, channels last: ``(H, W, C)``. A grid value
``feat[iy, ix, c]`` sits at continuous feature-space coordinate ``(ix, iy)``;
between grid points the map is interpreted as a bilinearly interpolated
field that decays linearly to zero over one cell beyond the border and is
zero everywhere outside. RoIs are given in image pixel units and mapped to
feature space by dividing by the level stride.

The kernels work on batches: :func:`conv2d_same` and :func:`conv_block`
accept any leading axes before ``(H, W, C)``, as does
:func:`depthwise_correlate` when template and search share them, and
:func:`roi_align_full_avg` pools N RoIs, given as ``(N, 4)`` corners, in
one call. Each kernel sums in one fixed order that its docstring states, so
an entry of a batch gets the same bits as it would alone, in any batch and
in any order. Pooling, correlation and max-pool fusion never call a BLAS
library. The correlation is shift-equivariant bit for bit, and so is
pooling on bins that lie on whole cells. The convolutions contract channels
through one BLAS matrix product per tap, so they are shift-equivariant only
up to that product's rounding.

Everything here is deterministic and pure, and no kernel keeps state from
one call to the next; callers may parallelize across RoIs and frames freely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FeaturePyramid",
    "ConvBlockWeights",
    "roi_align_full_avg",
    "depthwise_correlate",
    "conv2d_same",
    "conv_block",
    "fuse_pyramid",
]


def _as_maps(data, batched: bool = True) -> np.ndarray:
    """Validate and coerce ``data`` into a float64 ``(..., H, W, C)`` array.

    Without ``batched`` the array must be exactly one map, ``(H, W, C)``.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim < 3 or (arr.ndim > 3 and not batched):
        raise ValueError(
            f"expected a channels-last {'(..., H, W, C)' if batched else '(H, W, C)'} array, got {arr.shape}"
        )
    if min(arr.shape) < 1:
        raise ValueError(f"all tensor dimensions must be positive, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


def _all_finite(**arrays) -> None:
    """Raise ``ValueError`` naming the first of ``arrays`` that holds a NaN or an infinity."""
    for name, value in arrays.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} holds non-finite values")


@dataclass(frozen=True)
class FeaturePyramid:
    """Multi-stride ``(H, W, C)`` feature maps for one image, ordered by increasing stride."""

    levels: tuple[tuple[int, np.ndarray], ...]
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
            arr = _as_maps(fmap, batched=False)
            for size, dim in zip((self.image_height, self.image_width), arr.shape):
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

    def level(self, stride: int) -> np.ndarray:
        for s, fmap in self.levels:
            if s == stride:
                return fmap
        raise ValueError(f"stride {stride} not present in pyramid (has {self.strides})")


@dataclass(frozen=True)
class ConvBlockWeights:
    """Convolution + inference-mode batch-norm + relu parameters.

    ``kernel`` has shape (C_out, C_in, kh, kw); the four batch-norm vectors
    have shape (C_out,). ``var`` holds running variances (non-negative).
    Every value must be finite.
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
        if self.bias is not None:
            bias = np.asarray(self.bias, dtype=np.float64)
            if bias.shape != (c_out,):
                raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")
            object.__setattr__(self, "bias", bias)
        _all_finite(kernel=kernel, gamma=self.gamma, beta=self.beta, mean=self.mean,
                    var=self.var, bias=self.bias, eps=self.eps)
        if np.any(self.var < 0):
            raise ValueError("batch-norm variances must be non-negative")


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

    Bin edge ``k`` of RoI ``n`` is ``k * step[n] + lo[n]``, the last edge
    ``hi[n]``: each RoI's own arithmetic, whatever other extents share the
    call. (``np.linspace`` switches every row to another formula when one
    row has a zero step.)
    """
    step = (hi - lo) / n_bins
    edges = np.arange(n_bins + 1) * step[:, None] + lo[:, None]
    edges[:, -1] = hi
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
    width = step[:, None, None]
    keep = (cells < size) & (width > 0.0)
    return first, np.where(keep, area / np.where(width > 0.0, width, 1.0), 0.0)


def roi_align_full_avg(feat: np.ndarray, rois: np.ndarray, out_h: int, out_w: int, stride: float) -> np.ndarray:
    """Pool RoIs of an ``(H, W, C)`` map into ``out_h x out_w`` bins of exact field averages.

    Each bin value is the mean of the bilinearly interpolated field over the
    bin rectangle, with regions outside the feature extent contributing
    zero. The field is a sum of separable hat functions, so the bin means of
    one RoI are ``Wy @ F @ Wx.T`` per channel, where ``Wy`` and ``Wx`` hold
    hat-function integrals (:func:`_hat_band`): exact up to rounding, with
    no sampling.

    ``rois`` holds N boxes as ``(N, 4)`` image-pixel corners, and the result
    is ``(N, out_h, out_w, C)``. All N are pooled in one pass. Both products
    are summed over the band of each matrix row in increasing cell order,
    one multiply and one add per tap, vectorised over RoIs, channels and
    bins. Every value therefore depends only on its own RoI: it is the same
    bit for bit whatever other RoIs share the call and in whatever order,
    and it does not depend on a BLAS library.

    A zero-area RoI yields all zeros.
    """
    feat = _as_maps(feat, batched=False)
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")

    corners = np.asarray(rois, dtype=np.float64).reshape(-1, 4) / stride
    h, w, c = feat.shape
    n = corners.shape[0]
    if n == 0:
        return np.zeros((0, out_h, out_w, c), dtype=np.float64)
    first_y, wy = _hat_band(corners[:, 1], corners[:, 3], out_h, h)
    first_x, wx = _hat_band(corners[:, 0], corners[:, 2], out_w, w)

    # Each RoI's band columns, counted from its first band column, and the
    # window of map columns they span.
    cols = np.minimum(first_x[..., None] + np.arange(wx.shape[-1]), w - 1)
    cols -= first_x[:, :1, None]
    span = int(cols.max()) + 1
    window = np.minimum(first_x[:, :1] + np.arange(span), w - 1)
    # One row per map cell, so that each gather is one ``np.take`` of whole
    # channel vectors.
    cells = feat.reshape(h * w, c)
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
    return out


def depthwise_correlate(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of each template channel over the same search channel.

    Inputs are channels-last, ``(..., Ht, Wt, C)`` and ``(..., Hs, Ws, C)``,
    with the same leading axes (a batch of N pairs is ``(N, ...)`` each);
    leading axes that differ raise ``ValueError``. The output is
    ``(..., Hs - Ht + 1, Ws - Wt + 1, C)``.

    Every output cell sums its ``Ht * Wt`` products in one fixed order: the
    template taps in row-major order, starting from zero, one multiply and
    one add per tap. The order does not depend on where a window sits in the
    search map or on the other pairs of a batch, so the result is
    shift-equivariant bit for bit (a search map moved by whole cells gives
    an output moved by the same cells, exactly), each pair's output is the
    same bit for bit alone or in any batch, it equals the dense per-cell
    loop in that same order bit for bit, and it does not depend on a BLAS
    library, its thread count or an einsum path.

    The loop runs over taps only. The pairs and channels are laid side by
    side on the last axis, ``(H, W, N * C)``, and each template tap is
    repeated along an output row, one template row at a time, so each tap
    is one product of whole rows of the search map.
    """
    template = _as_maps(template)
    search = _as_maps(search)
    lead = template.shape[:-3]
    if search.shape[:-3] != lead:
        raise ValueError(f"leading axes differ: template {lead} vs search {search.shape[:-3]}")
    if template.shape[-1] != search.shape[-1]:
        raise ValueError(
            f"channel mismatch: template {template.shape[-1]} vs search {search.shape[-1]}"
        )
    ht, wt = template.shape[-3:-1]
    hs, ws = search.shape[-3:-1]
    if ht > hs or wt > ws:
        raise ValueError(f"template {(ht, wt)} larger than search {(hs, ws)}")
    oh, ow = hs - ht + 1, ws - wt + 1
    c = template.shape[-1]
    m = math.prod(lead) * c
    side = len(lead)

    def side_by_side(maps: np.ndarray) -> np.ndarray:
        """``maps`` as ``(H, W, N * C)``: the batch axes moved after H and W."""
        return np.moveaxis(maps, range(side), range(2, 2 + side)).reshape(maps.shape[-3:-1] + (m,))

    template, rows = side_by_side(template), side_by_side(search)
    out = np.zeros((oh, ow, m), dtype=np.float64)
    product = np.empty_like(out)
    for i in range(ht):
        taps = np.repeat(template[i, :, None], ow, axis=1)
        for j in range(wt):
            np.multiply(taps[j], rows[i : i + oh, j : j + ow], out=product)
            out += product
    return np.moveaxis(out.reshape((oh, ow) + lead + (c,)), range(2, 2 + side), range(side))


def conv2d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 2-D convolution with zero same-padding, channels last.

    ``x`` is ``(..., H, W, C_in)`` with any leading axes; ``kernel`` has
    shape (C_out, C_in, kh, kw). The output is ``(..., H, W, C_out)``.

    The taps are summed in one fixed order, row-major: the first tap's
    channel contraction (an ``(H * W, C_in)`` by ``(C_in, C_out)`` matrix
    product per leading index), plus each later tap's in turn; the bias is
    added last. Each leading index runs the same products as it would alone,
    so an entry's result does not depend on the rest of the batch. Within
    one tap the channel sum is the BLAS library's, which may round an output
    cell by where its row sits in the product: a one-cell shift of the input
    moves the output by one cell only up to that rounding (about 1e-15
    here), and bit for bit when ``C_in`` is 1, where each tap adds a single
    product.
    """
    x = _as_maps(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ValueError(f"kernel must be (C_out, C_in, kh, kw), got shape {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"input has {x.shape[-1]} channels, kernel expects {c_in}")

    lead, (h, w) = x.shape[:-3], x.shape[-3:-1]
    # Each tap's (C_in, C_out) matrix, contiguous for the matrix product.
    kernel_t = np.ascontiguousarray(kernel.transpose(2, 3, 1, 0))

    def windows():
        """Each tap's window rows, ``(..., H * W, C_in)``, in row-major tap order."""
        if kh == kw == 1:  # the one tap's window is the input itself
            yield x.reshape(lead + (h * w, c_in))
        else:
            pad = [(0, 0)] * len(lead) + [((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2), (0, 0)]
            padded = np.pad(x, pad)
            window = np.empty(lead + (h, w, c_in), dtype=np.float64)
            for i in range(kh):
                for j in range(kw):
                    np.copyto(window, padded[..., i : i + h, j : j + w, :])
                    yield window.reshape(lead + (h * w, c_in))

    taps = zip(kernel_t.reshape(kh * kw, c_in, c_out), windows())
    tap, rows = next(taps)
    out = np.matmul(rows, tap)
    product = np.empty_like(out)
    for tap, rows in taps:
        out += np.matmul(rows, tap, out=product)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)
    return out.reshape(lead + (h, w, c_out))


def conv_block(x: np.ndarray, w: ConvBlockWeights) -> np.ndarray:
    """Same-padded stride-1 convolution, inference batch-norm, then relu.

    ``x`` is ``(..., H, W, C_in)``; the normalisation and relu act on each
    value alone, so a batch gives each entry its result alone bit for bit.
    """
    out = conv2d_same(x, w.kernel, w.bias)
    out -= w.mean
    out *= w.gamma / np.sqrt(w.var + w.eps)
    out += w.beta
    return np.maximum(out, 0.0, out=out)


def _max_pool_to(arr: np.ndarray, out_h: int, out_w: int, ratio: int) -> np.ndarray:
    """Max over each ``ratio x ratio`` block, one output cell per block.

    The map is cut or edge-padded to ``out * ratio`` cells per axis, so a
    block cut short by the map's edge, or lying wholly past it, takes its
    max over the map's last row or column; a map that needs no padding is
    read in place. The max is then taken over the ``ratio`` strided row views
    and then the column views. A max is exact, so the result equals the
    per-cell loop bit for bit.
    """
    h, w, _ = arr.shape
    th, tw = out_h * ratio, out_w * ratio
    padded = arr[:th, :tw]
    if th > h or tw > w:
        padded = np.pad(padded, ((0, max(th - h, 0)), (0, max(tw - w, 0)), (0, 0)), mode="edge")
    rows = functools.reduce(np.maximum, (padded[i::ratio] for i in range(ratio)))
    return functools.reduce(np.maximum, (rows[:, j::ratio] for j in range(ratio)))


def _bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize with edge-clamped bilinear interpolation (half-pixel centers).

    The two neighbour rows of each output row are gathered whole (one
    ``take`` along the row axis each), then the two neighbour columns of
    those; each blend ``a * (1 - f) + b * f`` runs in place in its gathers.
    """
    h, w, _ = arr.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[:, None]

    def blend(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        a *= 1 - f
        b *= f
        a += b
        return a

    top, bot = (blend(rows.take(x0, axis=1), rows.take(x1, axis=1), fx)
                for rows in (arr.take(y0, axis=0), arr.take(y1, axis=0)))
    return blend(top, bot, fy)


def fuse_pyramid(pyr: FeaturePyramid, target_stride: int) -> np.ndarray:
    """Resize every pyramid level to the target level's size and concatenate channels.

    Finer levels are max-pooled down; coarser levels are bilinearly
    interpolated up. Levels are concatenated in increasing stride order.
    """
    target = pyr.level(target_stride)
    th, tw, _ = target.shape
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
    return np.concatenate(parts, axis=-1)
