"""Scale-adaptive convolutional regression tracker head.

The head pools a template patch at each object box and a search patch at the
box expanded ``k`` times, runs both through conv blocks, correlates them
channel by channel, and regresses a box delta plus an overlap-quality score
from the correlation map. Pool sizes scale with the expansion factor
(7x7 template against 21x21 search for k=3), so correlation operates in
object-relative coordinates regardless of object size. Feature maps are
channels-last, ``(H, W, C)``; the head takes N boxes as ``(N, H, W, C)``.
Boxes and regression deltas are ``(n, 4)`` arrays: a track call takes one
frame's corners and returns the predicted corners, each passing the
loaders' corner rule, and the qualities, in input order.

The shared head convolution feeds both fully connected heads with no
nonlinearity in between, so the head runs the two as one folded linear map (a
:class:`FoldedHead`, which holds its own copies): one matrix-vector product per
box instead of a 256-channel convolution. A nonlinearity between them would end the fold.

An oracle tracker backed by ground truth is included so the detection-merge
pipeline can run and be tested without trained weights.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .evalio import load_named_arrays, save_named_arrays
from .geometry import _move_and_scale, decode, expand, iou
from .tensor_ops import (
    ConvBlockWeights,
    FeaturePyramid,
    _all_finite,
    conv2d_same,
    conv_block,
    depthwise_correlate,
    fuse_pyramid,
    roi_align_full_avg,
)

__all__ = [
    "TrackerConfig",
    "TrackerWeights",
    "FoldedHead",
    "NoiseParams",
    "track",
    "fuse_for_head",
    "head_forward",
    "smooth_l1",
    "smooth_l1_grad",
    "MATCH_IOU",
    "best_match",
    "oracle_track",
    "make_oracle_track_fn",
    "synthesize_weights",
    "save_weights",
    "load_weights",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Pooling geometry of the tracker head.

    The search box is the object box expanded ``k = search_pool /
    template_pool`` times, so template and search features share one
    object-relative scale.
    """

    template_pool: int = 7
    search_pool: int = 21
    fuse_stride: int | None = None

    def __post_init__(self) -> None:
        if self.template_pool < 1 or self.search_pool < 1:
            raise ValueError(f"pool sizes must be positive, got {self.template_pool} and {self.search_pool}")
        if self.fuse_stride is not None and self.fuse_stride < 1:
            raise ValueError(f"fuse_stride must be positive, got {self.fuse_stride}")
        if self.search_pool < self.template_pool:
            raise ValueError(
                f"search_pool ({self.search_pool}) must be at least template_pool ({self.template_pool})"
            )

    @property
    def k(self) -> float:
        """Search expansion factor."""
        return self.search_pool / self.template_pool

    @property
    def corr_size(self) -> int:
        return self.search_pool - self.template_pool + 1


# The weights file layout, in file order: each conv block's arrays named
# "<block>.<field>", then the head arrays. ``pre_search`` is stored only when
# the branches are not shared and ``bias`` only when a block has one;
# ``eps`` is stored as one value.
_WEIGHT_BLOCKS = ("pre_template", "pre_search", "post")
_BLOCK_FIELDS = ("kernel", "gamma", "beta", "mean", "var", "eps", "bias")
_HEAD_ARRAYS = ("head_kernel", "head_bias", "box_weight", "box_bias", "score_weight", "score_bias")
_OPTIONAL = ("pre_search", "bias")


@dataclass(frozen=True)
class TrackerWeights:
    """All learnable parameters of the head, with explicit shapes, as the weights file stores them.

    ``pre_template`` (and ``pre_search`` when the branches are not shared)
    adjust the pooled features before correlation; ``post`` adjusts the
    correlation map. ``head_kernel``/``head_bias`` form the shared
    convolution feeding both fully connected heads: ``box_weight`` maps the
    flattened shared output to the 4 regression components, ``score_weight``
    to the single overlap logit. Every value must be finite.

    Nothing nonlinear sits between the shared convolution and the FC heads,
    so :meth:`fold` composes them into the :class:`FoldedHead` that the head
    runs on. Loaded arrays view the whole file's payload.
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
        for name in _HEAD_ARRAYS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _all_finite(**{name: getattr(self, name) for name in _HEAD_ARRAYS})
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
        # The channel chain: features -> pre blocks -> correlation -> post -> head conv.
        pre = self.pre_template.kernel.shape[:2]
        if self.pre_search is not None and self.pre_search.kernel.shape[:2] != pre:
            raise ValueError(f"pre_search has (out, in) channels {self.pre_search.kernel.shape[:2]}, "
                             f"pre_template {pre}; they must agree")
        for name, takes, given in (("post", self.post.kernel.shape[1], pre[0]),
                                   ("head_kernel", self.head_kernel.shape[1], self.post.kernel.shape[0])):
            if takes != given:
                raise ValueError(f"{name} takes {takes} channels, the block before it gives {given}")

    @property
    def pre_for_search(self) -> ConvBlockWeights:
        return self.pre_search if self.pre_search is not None else self.pre_template

    def fold(self, h: int, w: int, *, keep_conv: bool = False) -> FoldedHead:
        """The head for an ``h x w`` post-block map, viewing none of this object's arrays.

        Each FC row, read as a ``(C_shared, h, w)`` map, is pulled back
        through the same-padded convolution: each tap adds its transposed
        channel matrix times the row at the tap's offset, and the window the
        padding keeps is the folded row, in the map's channels-last order.
        ``keep_conv`` copies the shared convolution too.
        """
        c_shared, c_in, kh, kw = self.head_kernel.shape
        n_flat = c_shared * h * w
        if n_flat != self.box_weight.shape[1]:
            raise ValueError(f"flattened head input has {n_flat} values, FC heads expect {self.box_weight.shape[1]}")
        rows = [row.reshape(c_shared, h * w) for row in (*self.box_weight, *self.score_weight)]
        full = np.zeros((len(rows), c_in, h + kh - 1, w + kw - 1))
        for i in range(kh):
            for j in range(kw):
                tap = np.ascontiguousarray(self.head_kernel[:, :, i, j].T)
                for out, fc in zip(full, rows):
                    out[:, i : i + h, j : j + w] += (tap @ fc).reshape(c_in, h, w)
        top, left = (kh - 1) // 2, (kw - 1) // 2
        matrix = full[:, :, top : top + h, left : left + w].transpose(0, 2, 3, 1).reshape(len(rows), -1)
        bias = np.concatenate([self.box_bias, self.score_bias]) + [self.head_bias @ fc.sum(axis=1) for fc in rows]
        blocks = copy.deepcopy((self.pre_template, self.pre_for_search, self.post))
        conv = (self.head_kernel.copy(), self.head_bias.copy()) if keep_conv else (None, None)
        return FoldedHead(*blocks, (h, w), matrix, bias, *conv)


@dataclass(frozen=True)
class FoldedHead:
    """The head as :func:`head_forward` runs it on ``size = (h, w)`` post-block maps; all arrays its own.

    A channels-last ``(h, w, C)`` map ``x`` gives the 4 regression components
    and the logit as ``matrix @ x.ravel() + bias``. ``head_kernel`` and
    ``head_bias`` are kept only for the ``shared`` intermediate.
    """

    pre_template: ConvBlockWeights
    pre_search: ConvBlockWeights
    post: ConvBlockWeights
    size: tuple[int, int]
    matrix: np.ndarray
    bias: np.ndarray
    head_kernel: np.ndarray | None = None
    head_bias: np.ndarray | None = None


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def head_forward(
    templates: np.ndarray,
    searches: np.ndarray,
    head: FoldedHead,
    *,
    return_intermediates: bool = False,
):
    """Run the correlation head on pooled template/search pairs.

    ``templates`` and ``searches`` are channels-last ``(N, H, W, C)``
    batches of N pairs; the result is the ``(N, 4)`` regression deltas
    ``(dx, dy, dw, dh)`` and the N qualities. One ``(H, W, C)`` pair gives
    one delta row and one quality. The pre blocks, the correlation and the
    post block run on the whole batch. The shared head convolution and the
    FC heads run as ``head``'s fold, for its map size only: one
    matrix-vector product per pair, so each pair's result is the same bit
    for bit in any batch. With ``return_intermediates=True`` a dict of the
    intermediate tensors is appended for shape inspection, with ``shared``
    (of the last pair, by the convolution) if ``head`` kept its kernel.
    """
    single = np.ndim(templates) == 3
    if single:
        templates, searches = templates[None], searches[None]
    t = conv_block(templates, head.pre_template)
    s = conv_block(searches, head.pre_search)
    corr = depthwise_correlate(t, s)
    adjusted = conv_block(corr, head.post)
    if adjusted.shape[-3:-1] != head.size:
        raise ValueError(f"post-block map of size {adjusted.shape[-3:-1]}, but the head is folded for {head.size}")
    out = np.array([head.matrix @ pair.ravel() + head.bias for pair in adjusted])
    deltas, quality = out[:, :4], np.array([_sigmoid(v) for v in out[:, 4].tolist()])
    if single:
        templates, searches, corr, adjusted = templates[0], searches[0], corr[0], adjusted[0]
        deltas, quality = deltas[0], quality[0]
    if return_intermediates:
        inter = {"template": templates, "search": searches, "correlation": corr, "adjusted": adjusted}
        if head.head_kernel is not None:
            inter["shared"] = conv2d_same(adjusted if single else adjusted[-1], head.head_kernel, head.head_bias)
        return deltas, quality, inter
    return deltas, quality


def fuse_for_head(pyr: FeaturePyramid, cfg: TrackerConfig = TrackerConfig()) -> FeaturePyramid:
    """``pyr`` fused at the head's stride, as the one-level pyramid :func:`track` takes: ``cfg.fuse_stride``
    if set, else the stride of ``pyr``'s second-finest level (its only level if it has one)."""
    stride = cfg.fuse_stride if cfg.fuse_stride is not None else pyr.strides[min(1, len(pyr.levels) - 1)]
    return FeaturePyramid(((stride, fuse_pyramid(pyr, stride)),), pyr.image_height, pyr.image_width)


def track(
    feat_t: FeaturePyramid,
    feat_t1: FeaturePyramid,
    boxes: np.ndarray,
    head: FoldedHead,
    cfg: TrackerConfig = TrackerConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Predict each box's next-frame location from two frames' fused feature maps.

    ``feat_t`` and ``feat_t1`` are one-level pyramids at one stride, as
    :func:`fuse_for_head` makes them, ``boxes`` one frame's ``(n, 4)``
    corners and ``head`` the weights folded for ``cfg``'s correlation size.
    Returns the ``(n, 4)`` predicted corners and the ``n`` qualities, in
    input order. All boxes are pooled and run through the head in one batch;
    each box's prediction is the same bit for bit whatever other boxes it is
    tracked with. Only boxes of positive width and height are decoded: a
    flat box has no scale to regress against, so it comes back as itself at
    quality 0.0. Other pyramids, or a decoded box that
    :func:`~vodtrack.geometry.check_corners` rejects, raise ``ValueError``.
    """
    if (feat_t.image_height, feat_t.image_width) != (feat_t1.image_height, feat_t1.image_width):
        raise ValueError("feature pyramids must come from frames of equal image size")
    if len(feat_t.levels) != 1 or feat_t.strides != feat_t1.strides:
        raise ValueError(f"pyramids must be fused at one stride, got strides {feat_t.strides} and {feat_t1.strides}")
    if not len(boxes):
        return np.zeros((0, 4)), np.zeros(0)
    ((stride, fused_t),), ((_, fused_t1),) = feat_t.levels, feat_t1.levels
    boxes = np.asarray(boxes, np.float64)
    templates = roi_align_full_avg(fused_t, boxes, cfg.template_pool, cfg.template_pool, stride)
    searches = roi_align_full_avg(fused_t1, expand(boxes, cfg.k), cfg.search_pool, cfg.search_pool, stride)
    deltas, quality = head_forward(templates, searches, head)
    sized = ((boxes[:, 2:] - boxes[:, :2]) > 0.0).all(axis=1)
    predicted = boxes.copy()
    predicted[sized] = decode(boxes[sized], deltas[sized])
    return predicted, np.where(sized, quality, 0.0)


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
        if not (0.0 <= self.center_sigma < math.inf and 0.0 <= self.size_sigma < math.inf):
            raise ValueError("noise sigmas must be non-negative and finite")
        if not (0.0 <= self.failure_prob <= 1.0):
            raise ValueError("failure_prob must be in [0, 1]")


# The oracle seeds one PCG64 stream per box, keyed on the box's own identity
# so that results do not depend on how calls are batched. The entropy is the
# int list [seed, frame, class_id, *bits of each float64 corner], as
# ``SeedSequence`` takes it: numpy splits each int into its little-endian
# 32-bit words without high zero words (at least one word, so 0 and a 0.0
# corner give [0]). ``_frame_states`` runs numpy's ``SeedSequence`` hash
# (a pool of 4 words) and PCG64's seeding for every box of a frame at once,
# on uint32 lanes: the hash constants depend only on the call count, so each
# step is one operation on all boxes. Constants are numpy's
# (``numpy/random/bit_generator.pyx``, ``pcg64.h``).
_WORD = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n_calls: int) -> tuple[np.ndarray, np.ndarray]:
    """What call ``k`` of a hash xors in and multiplies by: ``h_k`` and ``h_(k+1)``,
    where ``h_0 = init`` and ``h_(k+1) = h_k * mult`` mod 2**32."""
    h = [init]
    for _ in range(n_calls):
        h.append(h[-1] * mult & _WORD)
    h = np.array(h, np.uint32)
    return h[:-1], h[1:]


@functools.cache
def _pool_constants(n_words: int):
    """The mixing constants of ``n_words`` entropy words, shaped per step: filling
    the pool ``(4, 1)``, mixing it (one ``(4, 1)`` per source word, a zero row at
    the source) and adding each further word ``(n_words - 4, 4, 1)``."""
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (n_words - _POOL))
    mixing = np.zeros((2, _POOL, _POOL, 1), np.uint32)
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                mixing[:, src, dst, 0] = xor[k], mult[k]
                k += 1
    fill = xor[:_POOL, None], mult[:_POOL, None]
    rest = xor[k:].reshape(-1, _POOL, 1), mult[k:].reshape(-1, _POOL, 1)
    return fill, mixing, rest


# generate_state(4, uint64) reads the pool twice over, 8 uint32 words.
_OUT_XOR, _OUT_MULT = (c.reshape(2, _POOL, 1) for c in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mult
    out ^= out >> 16
    return out


def _words(n: int) -> list[int]:
    """``n``'s little-endian 32-bit words without high zero words, as SeedSequence splits it."""
    if n < 0:  # a negative int has no words: n >>= 32 never reaches 0
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _WORD]
    while n := n >> 32:
        words.append(n & _WORD)
    return words


def _frame_states(seed: int, frame: int, class_ids, corners) -> list[dict]:
    """The PCG64 state of the stream of each box of one frame.

    ``class_ids`` holds the boxes' non-negative class ids and ``corners``
    their ``(n, 4)`` float64 corners. Entry ``i`` equals
    ``PCG64(SeedSequence([seed, frame, class_ids[i], *corner bits])).state``.
    """
    prefix = _words(seed) + _words(frame)
    n = len(class_ids)
    # Each box's fields as (low, high) word pairs. A zero high word is
    # dropped: the words after it move up one row, and it goes to a spare
    # last row that is never read.
    fields = np.empty((5, n), np.uint64)
    fields[0] = class_ids
    fields[1:] = np.asarray(corners, np.float64).reshape(n, 4).view(np.uint64).T
    pairs = np.empty((10, n), np.uint32)
    pairs[0::2] = fields
    pairs[1::2] = fields >> np.uint64(32)
    kept = np.ones((10, n), bool)
    kept[1::2] = pairs[1::2] != 0
    rows = np.cumsum(kept, axis=0)
    rows += len(prefix) - 1
    length = rows[-1] + 1
    words = np.zeros((len(prefix) + 11, n), np.uint32)  # rows past an entropy's end stay 0
    words[: len(prefix)] = np.array(prefix, np.uint32)[:, None]
    words[np.where(kept, rows, len(words) - 1), np.arange(n)] = pairs
    shortest, longest = (int(length.min()), int(length.max())) if n else (0, 0)

    (fill_xor, fill_mult), mixing, (rest_xor, rest_mult) = _pool_constants(len(words) - 1)
    pool = _hashmix(words[:_POOL], fill_xor, fill_mult)
    for src in range(_POOL):
        h = _hashmix(pool[src], mixing[0, src], mixing[1, src])
        h *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= h
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    rest = words[_POOL:longest, None]
    h = _hashmix(rest, rest_xor[: len(rest)], rest_mult[: len(rest)])
    h *= _MIX_R
    for row, h_row in enumerate(h, start=_POOL):
        mixed = pool * _MIX_L
        mixed -= h_row
        mixed ^= mixed >> 16
        pool = mixed if row < shortest else np.where(row < length, mixed, pool)

    out = _hashmix(pool, _OUT_XOR, _OUT_MULT).reshape(2 * _POOL, n).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_set_seed: inc = 2 * initseq + 1, then two LCG steps from 0
        # with the initial state added in between.
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# Smallest overlap at which a tracked box claims an object (oracle and replay).
MATCH_IOU = 0.5


def best_match(overlaps: np.ndarray, floor: float) -> np.ndarray:
    """Per row of an overlap matrix, the column of its largest value at or above ``floor``.

    When several columns hold that value the last one wins. Rows with no
    value at or above ``floor`` give -1.
    """
    n, m = overlaps.shape
    if m == 0:
        return np.full(n, -1)
    eligible = np.where(overlaps >= floor, overlaps, -np.inf)
    last = m - 1 - np.argmax(eligible[:, ::-1], axis=1)
    return np.where(eligible[np.arange(n), last] >= floor, last, -1)


@functools.cache
def _oracle_rng() -> np.random.Generator:
    """The oracle's one generator, made on first use; each box sets the state of
    its own stream before it draws."""
    return np.random.Generator(np.random.PCG64(0))


def oracle_track(
    boxes: np.ndarray,
    frame: int,
    class_id: np.ndarray,
    gt,
    noise: NoiseParams,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth-backed stand-in for the learned head.

    ``boxes`` are frame ``frame``'s ``(n, 4)`` corners and ``class_id``
    their class ids. Returns the ``(n, 4)`` predicted corners and the ``n``
    qualities, in input order. Each box is matched to the ground-truth
    object it overlaps most (at ``MATCH_IOU`` or better; the last such
    object on a tie); a matched box predicts that object's next-frame box
    perturbed by ``noise``, with quality equal to the true overlap of the
    perturbed box. Unmatched boxes, objects absent from the next frame, and
    simulated failures return quality below 0.5.

    ``gt`` is a :class:`~vodtrack.evalio.VideoDetectionSet` whose records
    carry track ids. Each box draws from its own stream, seeded from
    ``seed`` and the box's frame, class and corners (see ``_frame_states``),
    so the result is deterministic and does not depend on the other boxes
    of the call. An unmatched box draws one uniform in ``[0, 0.5)``; a
    matched one draws 4 normals and a uniform, and on failure one more
    uniform in ``[0, 0.5)``. Then ``decode``'s corner transform perturbs the
    matched boxes at once; one that the corner rule rejects raises ``ValueError``.
    """
    if not len(boxes):
        return np.zeros((0, 4)), np.zeros(0)
    here, after = gt.rows(frame), gt.rows(frame + 1)
    here_tracks, after_boxes = gt.track_ids(here), gt.boxes[after]
    first_of_track = {g: j for j, g in reversed(list(enumerate(gt.track_ids(after))))}
    predicted = np.array(boxes, np.float64)
    quality = np.empty(len(predicted))
    matches = best_match(iou(predicted, gt.boxes[here]), MATCH_IOU)
    rng = _oracle_rng()
    # Each box's next-frame column (-1 if unmatched), noise draws and whether its
    # quality is the true overlap of its prediction, in arrays: small objects held
    # across the loop in lists fragmented the heap (0.9 MB more peak RSS later).
    cols, draws, scored = np.full(len(boxes), -1), np.empty((len(boxes), 4)), np.zeros(len(boxes), bool)
    for k, (m, state) in enumerate(zip(matches.tolist(), _frame_states(seed, frame, class_id, predicted))):
        rng.bit_generator.state = state
        col = first_of_track.get(here_tracks[m]) if m >= 0 else None
        if col is None:
            quality[k] = 0.5 * rng.random()
            continue
        cols[k], draws[k] = col, rng.standard_normal(4)
        scored[k] = rng.random() >= noise.failure_prob
        if not scored[k]:
            quality[k] = 0.5 * rng.random()
    rows = np.flatnonzero(cols >= 0)
    (dx, dy, dw, dh), center, size = draws[rows].T, noise.center_sigma, noise.size_sigma
    with np.errstate(over="ignore"):  # an overflowing move fails the corner check
        moves = center * dx, center * dy, size * dw, size * dh
    predicted[rows] = _move_and_scale(after_boxes[cols[rows]], *moves)
    rows = np.flatnonzero(scored)
    quality[rows] = iou(predicted[rows], after_boxes)[np.arange(len(rows)), cols[rows]]
    return predicted, quality


def make_oracle_track_fn(gt, noise: NoiseParams, seed: int):
    """Bind the oracle tracker into the ``track_fn(boxes, frame, class_id)`` the pipeline calls."""

    def track_fn(boxes: np.ndarray, frame: int, class_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return oracle_track(boxes, frame, class_id, gt, noise, seed)

    return track_fn


def save_weights(w: TrackerWeights, path) -> None:
    """Write tracker weights as a named-tensor container (bit-exact round trip)."""
    blocks = {name: getattr(w, name) for name in _WEIGHT_BLOCKS if getattr(w, name) is not None}
    arrays = {f"{name}.{f}": np.atleast_1d(getattr(block, f)) for name, block in blocks.items()
              for f in _BLOCK_FIELDS if getattr(block, f) is not None}
    arrays.update((name, getattr(w, name)) for name in _HEAD_ARRAYS)
    save_named_arrays(arrays, path)


def load_weights(path) -> TrackerWeights:
    """Read tracker weights written by :func:`save_weights`; any fault names ``path``."""
    arrays = load_named_arrays(path)

    def array(name: str, optional: bool):
        if name not in arrays and not optional:
            raise ValueError(f"missing weight array {name!r}")
        return arrays.get(name)

    def block(name: str) -> ConvBlockWeights | None:
        if name in _OPTIONAL and not any(key.startswith(f"{name}.") for key in arrays):
            return None
        values = {f: array(f"{name}.{f}", f in _OPTIONAL) for f in _BLOCK_FIELDS}
        eps = values["eps"]
        if eps.size != 1:
            raise ValueError(f"{name}.eps must hold exactly one value, got shape {eps.shape}")
        values["eps"] = eps.item()
        try:
            return ConvBlockWeights(**values)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    try:
        return TrackerWeights(**{name: block(name) for name in _WEIGHT_BLOCKS},
                              **{name: array(name, False) for name in _HEAD_ARRAYS})
    except ValueError as exc:
        raise ValueError(f"{path}: invalid weights: {exc}") from exc


def synthesize_weights(
    in_channels: int,
    cfg: TrackerConfig = TrackerConfig(),
    seed: int = 0,
    *,
    shared_head_channels: int = 256,
) -> TrackerWeights:
    """Seeded random weights (uniform in [-0.05, 0.05]) with consistent shapes and one shared pre block.

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
    return TrackerWeights(
        pre_template=block(c, c, 1),
        post=block(c, c, 3),
        head_kernel=u(shared_head_channels, c, 3, 3),
        head_bias=u(shared_head_channels),
        box_weight=u(4, n_flat),
        box_bias=u(4),
        score_weight=u(1, n_flat),
        score_bias=u(1),
    )
