"""Scale-adaptive convolutional regression tracker head.

The head pools a template patch at each object box and a search patch at the
box expanded ``k`` times, runs both through conv blocks, correlates them
channel by channel, and regresses a box delta plus an overlap-quality score
from the correlation map. Pool sizes scale with the expansion factor
(7x7 template against 21x21 search for k=3), so correlation operates in
object-relative coordinates regardless of object size.

An oracle tracker backed by ground truth is included so the detection-merge
pipeline can run and be tested without trained weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detections import Detection
from .geometry import Box, RegressionDelta, decode, expand, iou
from .tensor_ops import (
    ConvBlockWeights,
    FeaturePyramid,
    Tensor3,
    conv2d_same,
    conv_block,
    depthwise_correlate,
    fuse_pyramid,
    roi_align_full_avg,
)

__all__ = [
    "TrackerConfig",
    "TrackerWeights",
    "TrackPrediction",
    "NoiseParams",
    "track",
    "head_forward",
    "smooth_l1",
    "smooth_l1_grad",
    "oracle_track",
    "make_oracle_track_fn",
    "synthesize_weights",
    "save_weights",
    "load_weights",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Pooling geometry of the tracker head.

    ``search_pool`` must equal ``k * template_pool`` so template and search
    features share one object-relative scale.
    """

    k: float = 3.0
    template_pool: int = 7
    search_pool: int = 21
    tau: int = 1
    fuse_stride: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1.0:
            raise ValueError(f"search expansion k must be >= 1, got {self.k}")
        if self.template_pool < 1 or self.search_pool < 1:
            raise ValueError("pool sizes must be positive")
        if abs(self.search_pool - self.k * self.template_pool) > 1e-9:
            raise ValueError(
                f"search_pool ({self.search_pool}) must equal k * template_pool "
                f"({self.k} * {self.template_pool})"
            )
        if self.tau < 1:
            raise ValueError(f"frame gap tau must be >= 1, got {self.tau}")

    @property
    def corr_size(self) -> int:
        return self.search_pool - self.template_pool + 1


@dataclass(frozen=True)
class TrackPrediction:
    """A tracked box for the next frame with its predicted overlap quality."""

    source: Detection
    predicted_box: Box
    quality: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.quality) or not (0.0 <= self.quality <= 1.0):
            raise ValueError(f"quality must be in [0, 1], got {self.quality!r}")


@dataclass(frozen=True)
class TrackerWeights:
    """All learnable parameters of the head, with explicit shapes.

    ``pre_template`` (and ``pre_search`` when the branches are not shared)
    adjust the pooled features before correlation; ``post`` adjusts the
    correlation map. ``head_kernel``/``head_bias`` form the shared
    convolution feeding both fully connected heads: ``box_weight`` maps the
    flattened shared output to the 4 regression components, ``score_weight``
    to the single overlap logit.
    """

    pre_template: ConvBlockWeights
    post: ConvBlockWeights
    head_kernel: np.ndarray
    head_bias: np.ndarray
    box_weight: np.ndarray
    box_bias: np.ndarray
    score_weight: np.ndarray
    score_bias: np.ndarray
    pre_search: ConvBlockWeights | None = None

    def __post_init__(self) -> None:
        for name in ("head_kernel", "head_bias", "box_weight", "box_bias",
                     "score_weight", "score_bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.head_kernel.ndim != 4:
            raise ValueError("head_kernel must be (C_out, C_in, kh, kw)")
        n_shared = self.head_kernel.shape[0]
        if self.head_bias.shape != (n_shared,):
            raise ValueError(f"head_bias must have shape ({n_shared},)")
        if self.box_weight.ndim != 2 or self.box_weight.shape[0] != 4:
            raise ValueError("box_weight must have shape (4, n_flat)")
        if self.box_bias.shape != (4,):
            raise ValueError("box_bias must have shape (4,)")
        if self.score_weight.ndim != 2 or self.score_weight.shape[0] != 1:
            raise ValueError("score_weight must have shape (1, n_flat)")
        if self.score_bias.shape != (1,):
            raise ValueError("score_bias must have shape (1,)")
        if self.score_weight.shape[1] != self.box_weight.shape[1]:
            raise ValueError("box and score heads must consume the same flattened input")

    @property
    def pre_for_search(self) -> ConvBlockWeights:
        return self.pre_search if self.pre_search is not None else self.pre_template


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def head_forward(
    template: Tensor3,
    search: Tensor3,
    w: TrackerWeights,
    *,
    return_intermediates: bool = False,
):
    """Run the correlation head on one pooled template/search pair.

    Returns ``(delta, quality)``; with ``return_intermediates=True`` a dict
    of the intermediate tensors is appended for shape inspection.
    """
    t = conv_block(template, w.pre_template)
    s = conv_block(search, w.pre_for_search)
    corr = depthwise_correlate(t, s)
    adjusted = conv_block(corr, w.post)
    shared = conv2d_same(adjusted, w.head_kernel, w.head_bias)
    flat = shared.ravel()
    if flat.shape[0] != w.box_weight.shape[1]:
        raise ValueError(
            f"flattened head input has {flat.shape[0]} values, "
            f"FC heads expect {w.box_weight.shape[1]}"
        )
    box_out = w.box_weight @ flat + w.box_bias
    logit = float((w.score_weight @ flat)[0] + w.score_bias[0])
    delta = RegressionDelta(*box_out)
    quality = _sigmoid(logit)
    if return_intermediates:
        inter = {
            "template": template,
            "search": search,
            "correlation": corr,
            "adjusted": adjusted,
            "shared": shared,
        }
        return delta, quality, inter
    return delta, quality


def default_fuse_stride(pyr: FeaturePyramid) -> int:
    """Fusion target when none is configured: the second-finest level if present."""
    strides = pyr.strides
    return strides[1] if len(strides) > 1 else strides[0]


def track(
    feat_t: FeaturePyramid,
    feat_t1: FeaturePyramid,
    boxes: list[Detection],
    w: TrackerWeights,
    cfg: TrackerConfig = TrackerConfig(),
) -> list[TrackPrediction]:
    """Predict each box's next-frame location from two frames' feature pyramids.

    Output is order-preserving, one prediction per input detection.
    """
    if (feat_t.image_height, feat_t.image_width) != (feat_t1.image_height, feat_t1.image_width):
        raise ValueError("feature pyramids must come from frames of equal image size")
    if not boxes:
        return []
    stride = cfg.fuse_stride if cfg.fuse_stride is not None else default_fuse_stride(feat_t)
    fused_t = fuse_pyramid(feat_t, stride)
    fused_t1 = fuse_pyramid(feat_t1, stride)

    preds = []
    for det in boxes:
        template = roi_align_full_avg(
            fused_t, det.box, cfg.template_pool, cfg.template_pool, stride
        )
        search = roi_align_full_avg(
            fused_t1, expand(det.box, cfg.k), cfg.search_pool, cfg.search_pool, stride
        )
        delta, quality = head_forward(template, search, w)
        preds.append(TrackPrediction(det, decode(det.box, delta), quality))
    return preds


def smooth_l1(x: float) -> float:
    """Huber-style loss: quadratic inside the unit interval, linear outside."""
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * x * x
    return ax - 0.5


def smooth_l1_grad(x: float) -> float:
    """Analytic derivative of :func:`smooth_l1` (undefined exactly at |x| = 1)."""
    if abs(x) < 1.0:
        return x
    return math.copysign(1.0, x)


@dataclass(frozen=True)
class NoiseParams:
    """Perturbation model of the oracle tracker.

    ``center_sigma`` jitters the predicted center (pixels), ``size_sigma``
    the log width/height. ``failure_prob`` is the chance a matched object
    still comes back with a below-threshold quality, simulating a lost
    track.
    """

    center_sigma: float = 0.0
    size_sigma: float = 0.0
    failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.center_sigma < 0 or self.size_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not (0.0 <= self.failure_prob <= 1.0):
            raise ValueError("failure_prob must be in [0, 1]")


def _det_rng(seed: int, det: Detection) -> np.random.Generator:
    # Keyed on the detection's own identity so results do not depend on how
    # calls are batched.
    coords = np.array(det.box.corners(), dtype=np.float64).view(np.uint64)
    entropy = [seed, det.frame, det.class_id] + [int(c) for c in coords]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _perturb_box(b: Box, noise: NoiseParams, rng: np.random.Generator) -> Box:
    tx = noise.center_sigma * rng.standard_normal()
    ty = noise.center_sigma * rng.standard_normal()
    sx = b.w * (1.0 - math.exp(noise.size_sigma * rng.standard_normal())) / 2.0
    sy = b.h * (1.0 - math.exp(noise.size_sigma * rng.standard_normal())) / 2.0
    return Box(b.x1 + tx + sx, b.y1 + ty + sy, b.x2 + tx - sx, b.y2 + ty - sy)


def oracle_track(
    boxes: list[Detection],
    gt,
    noise: NoiseParams,
    seed: int,
    *,
    tau: int = 1,
    match_iou: float = 0.5,
) -> list[TrackPrediction]:
    """Ground-truth-backed stand-in for the learned head.

    Each input box is matched to the ground-truth object it overlaps most
    (at ``match_iou`` or better); matched boxes predict that object's
    next-frame box perturbed by ``noise``, with quality equal to the true
    overlap of the perturbed box. Unmatched boxes, objects absent from the
    next frame, and simulated failures return quality below 0.5.

    ``gt`` is a :class:`~vodtrack.evalio.VideoDetectionSet` whose records
    carry track ids. Deterministic for a fixed seed.
    """
    preds = []
    for det in boxes:
        rng = _det_rng(seed, det)
        matched = None
        best = match_iou
        if det.frame < gt.n_frames:
            for g in gt.frames[det.frame]:
                v = iou(det.box, g.box)
                if v >= best:
                    matched, best = g, v
        nxt = None
        if matched is not None and det.frame + tau < gt.n_frames:
            for g in gt.frames[det.frame + tau]:
                if g.track == matched.track:
                    nxt = g
                    break
        if nxt is None:
            preds.append(TrackPrediction(det, det.box, rng.uniform(0.0, 0.5)))
            continue
        predicted = _perturb_box(nxt.box, noise, rng)
        if rng.uniform() < noise.failure_prob:
            quality = rng.uniform(0.0, 0.5)
        else:
            quality = iou(predicted, nxt.box)
        preds.append(TrackPrediction(det, predicted, quality))
    return preds


def make_oracle_track_fn(gt, noise: NoiseParams, seed: int, *, tau: int = 1):
    """Bind the oracle tracker into the single-argument interface the pipeline calls."""

    def track_fn(boxes: list[Detection]) -> list[TrackPrediction]:
        return oracle_track(boxes, gt, noise, seed, tau=tau)

    return track_fn


def _block_arrays(prefix: str, block: ConvBlockWeights) -> dict[str, np.ndarray]:
    arrays = {
        f"{prefix}.kernel": block.kernel,
        f"{prefix}.gamma": block.gamma,
        f"{prefix}.beta": block.beta,
        f"{prefix}.mean": block.mean,
        f"{prefix}.var": block.var,
        f"{prefix}.eps": np.array([block.eps]),
    }
    if block.bias is not None:
        arrays[f"{prefix}.bias"] = block.bias
    return arrays


def _block_from_arrays(prefix: str, arrays: dict[str, np.ndarray]) -> ConvBlockWeights:
    return ConvBlockWeights(
        kernel=arrays[f"{prefix}.kernel"],
        gamma=arrays[f"{prefix}.gamma"],
        beta=arrays[f"{prefix}.beta"],
        mean=arrays[f"{prefix}.mean"],
        var=arrays[f"{prefix}.var"],
        bias=arrays.get(f"{prefix}.bias"),
        eps=float(np.asarray(arrays[f"{prefix}.eps"]).reshape(-1)[0]),
    )


def save_weights(w: TrackerWeights, path) -> None:
    """Write tracker weights as a named-tensor container (bit-exact round trip)."""
    from .evalio import save_named_arrays

    arrays = _block_arrays("pre_template", w.pre_template)
    if w.pre_search is not None:
        arrays.update(_block_arrays("pre_search", w.pre_search))
    arrays.update(_block_arrays("post", w.post))
    arrays.update(
        head_kernel=w.head_kernel,
        head_bias=w.head_bias,
        box_weight=w.box_weight,
        box_bias=w.box_bias,
        score_weight=w.score_weight,
        score_bias=w.score_bias,
    )
    save_named_arrays(arrays, path)


def load_weights(path) -> TrackerWeights:
    """Read tracker weights written by :func:`save_weights`."""
    from .evalio import load_named_arrays

    arrays = load_named_arrays(path)
    try:
        return TrackerWeights(
            pre_template=_block_from_arrays("pre_template", arrays),
            pre_search=(
                _block_from_arrays("pre_search", arrays)
                if "pre_search.kernel" in arrays
                else None
            ),
            post=_block_from_arrays("post", arrays),
            head_kernel=arrays["head_kernel"],
            head_bias=arrays["head_bias"],
            box_weight=arrays["box_weight"],
            box_bias=arrays["box_bias"],
            score_weight=arrays["score_weight"],
            score_bias=arrays["score_bias"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing weight array {exc}") from exc


def synthesize_weights(
    in_channels: int,
    cfg: TrackerConfig = TrackerConfig(),
    seed: int = 0,
    *,
    shared_head_channels: int = 256,
    share_pre: bool = True,
) -> TrackerWeights:
    """Seeded random weights (uniform in [-0.05, 0.05]) with consistent shapes.

    The head is never trained here; synthetic weights drive fixtures and
    end-to-end runs of the learned pathway.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.05, 0.05, size=shape)

    def block(c_out, c_in, ksize):
        # Batch-norm offsets sit slightly above zero so the relu does not
        # silence the tiny random convolutions.
        return ConvBlockWeights(
            kernel=u(c_out, c_in, ksize, ksize),
            gamma=rng.uniform(0.9, 1.1, size=c_out),
            beta=rng.uniform(0.05, 0.15, size=c_out),
            mean=u(c_out),
            var=rng.uniform(0.9, 1.1, size=c_out),
        )

    c = in_channels
    n_flat = shared_head_channels * cfg.corr_size * cfg.corr_size
    pre_template = block(c, c, 1)
    pre_search = None if share_pre else block(c, c, 1)
    return TrackerWeights(
        pre_template=pre_template,
        pre_search=pre_search,
        post=block(c, c, 3),
        head_kernel=u(shared_head_channels, c, 3, 3),
        head_bias=u(shared_head_channels),
        box_weight=u(4, n_flat),
        box_bias=u(4),
        score_weight=u(1, n_flat),
        score_bias=u(1),
    )
