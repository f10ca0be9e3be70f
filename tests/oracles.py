"""Independent brute-force oracles used to cross-check the library kernels.

Everything here is deliberately written as plain loops over scalars, sharing
no code with the implementations under test. ``decode_reference``,
``expand_reference`` and ``perturb_reference`` are the per-box box algebra
that the package's ``(n, 4)`` array forms must equal bit for bit. Near the
end, a test-side ``Box`` and record types state a set or its predictions
one record at a time (they build and read the package's columns only
through ``VideoDetectionSet.from_rows`` and the column attributes), and
``reference_merge`` runs the tracking-first merge on them as per-object
loops.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from vodtrack.evalio import PROVENANCES, VideoDetectionSet, VideoPredictions, check_detection


def channels_last(a) -> np.ndarray:
    """A channel-first ``(..., C, H, W)`` array as the head kernels take it, ``(..., H, W, C)``.

    The oracles here work channel-first; tests move axes at the boundary.
    """
    return np.moveaxis(np.asarray(a), -3, -1)


def channels_first(a) -> np.ndarray:
    """A channels-last ``(..., H, W, C)`` kernel result as the oracles give it, ``(..., C, H, W)``."""
    return np.moveaxis(np.asarray(a), -1, -3)


def bilinear_at(feat: np.ndarray, c: int, x: float, y: float) -> float:
    """Scalar bilinear sample of the zero-extended field at (x, y)."""
    _, h, w = feat.shape
    x0 = math.floor(x)
    y0 = math.floor(y)
    fx = x - x0
    fy = y - y0
    total = 0.0
    for dy in (0, 1):
        for dx in (0, 1):
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                wx = fx if dx else 1.0 - fx
                wy = fy if dy else 1.0 - fy
                total += feat[c, yi, xi] * wx * wy
    return total


def oversampled_roi_align(
    feat: np.ndarray, corners, out_h: int, out_w: int, stride: float, samples: int = 64
) -> np.ndarray:
    """Bin means via dense midpoint sampling, sub-dividing at feature-cell edges.

    Splitting each bin at integer cell boundaries keeps every sample patch
    inside a single bilinear piece, where midpoint sampling is exact, so at
    any density this equals the true integral mean up to rounding.
    """
    x1, y1, x2, y2 = (v / stride for v in corners)
    c = feat.shape[0]
    out = np.zeros((c, out_h, out_w))
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return out
    bin_w = (x2 - x1) / out_w
    bin_h = (y2 - y1) / out_h
    for by in range(out_h):
        for bx in range(out_w):
            bx0, bx1 = x1 + bx * bin_w, x1 + (bx + 1) * bin_w
            by0, by1 = y1 + by * bin_h, y1 + (by + 1) * bin_h
            xcuts = sorted({bx0, bx1} | {v for v in range(math.ceil(bx0), math.floor(bx1) + 1) if bx0 < v < bx1})
            ycuts = sorted({by0, by1} | {v for v in range(math.ceil(by0), math.floor(by1) + 1) if by0 < v < by1})
            total = np.zeros(c)
            for i in range(len(xcuts) - 1):
                for j in range(len(ycuts) - 1):
                    pw = xcuts[i + 1] - xcuts[i]
                    ph = ycuts[j + 1] - ycuts[j]
                    if pw <= 0 or ph <= 0:
                        continue
                    sx = xcuts[i] + pw * (np.arange(samples) + 0.5) / samples
                    sy = ycuts[j] + ph * (np.arange(samples) + 0.5) / samples
                    for ch in range(c):
                        acc = 0.0
                        for yv in sy:
                            for xv in sx:
                                acc += bilinear_at(feat, ch, xv, yv)
                        total[ch] += acc / (samples * samples) * pw * ph
            out[:, by, bx] = total / (bin_w * bin_h)
    return out


def naive_depthwise_correlate(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    ct, ht, wt = template.shape
    cs, hs, ws = search.shape
    assert ct == cs
    out = np.zeros((ct, hs - ht + 1, ws - wt + 1))
    for c in range(ct):
        for y in range(out.shape[1]):
            for x in range(out.shape[2]):
                acc = 0.0
                for i in range(ht):
                    for j in range(wt):
                        acc += template[c, i, j] * search[c, y + i, x + j]
                out[c, y, x] = acc
    return out


def naive_conv_block(
    x: np.ndarray,
    kernel: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    pad_t, pad_l = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for ci in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            yi = y + i - pad_t
                            xi = xx + j - pad_l
                            if 0 <= yi < h and 0 <= xi < w:
                                acc += kernel[o, ci, i, j] * x[ci, yi, xi]
                if bias is not None:
                    acc += bias[o]
                v = gamma[o] * (acc - mean[o]) / math.sqrt(var[o] + eps) + beta[o]
                out[o, y, xx] = max(0.0, v)
    return out


def enumerate_paths(n_per_frame: list[int], edges: dict[tuple[int, int], list[int]]):
    """Yield every consecutive-frame path as a list of (frame, index) pairs."""
    n_frames = len(n_per_frame)
    for start in range(n_frames):
        stack = [[(start, i)] for i in range(n_per_frame[start])]
        while stack:
            path = stack.pop()
            yield path
            t, i = path[-1]
            if t + 1 < n_frames:
                for j in edges.get((t, i), []):
                    stack.append(path + [(t + 1, j)])


def brute_force_best_path(scores: list[list[float]], edges: dict[tuple[int, int], list[int]]):
    """Max-total-score path; ties prefer earliest start frame, then lexicographically smaller indices."""
    best = None
    best_key = None
    for path in enumerate_paths([len(s) for s in scores], edges):
        total = sum(scores[t][i] for t, i in path)
        key = (-total, path[0][0], tuple(i for _, i in path))
        if best_key is None or key < best_key:
            best, best_key = path, key
    return best, (None if best is None else sum(scores[t][i] for t, i in best))


def naive_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Plain same-padded stride-1 convolution by explicit loops."""
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    pad_t, pad_l = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for ci in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            yi = y + i - pad_t
                            xi = xx + j - pad_l
                            if 0 <= yi < h and 0 <= xi < w:
                                acc += kernel[o, ci, i, j] * x[ci, yi, xi]
                if bias is not None:
                    acc += bias[o]
                out[o, y, xx] = acc
    return out


def naive_head(adjusted: np.ndarray, w) -> list[float]:
    """The unfolded head on one ``(C, H, W)`` post-block map: 4 regression components, then the logit.

    ``w`` is a ``TrackerWeights``. The shared convolution runs as
    :func:`naive_conv2d` and its flattened output feeds both FC heads.
    """
    flat = naive_conv2d(adjusted, w.head_kernel, w.head_bias).ravel()
    rows = [*w.box_weight, *w.score_weight]
    biases = [*w.box_bias, *w.score_bias]
    return [math.fsum(row * flat) + b for row, b in zip(rows, biases)]


def naive_max_pool_to(arr: np.ndarray, out_h: int, out_w: int, ratio: int) -> np.ndarray:
    """Per-cell max over ``ratio x ratio`` blocks, clamped onto the map at its edges."""
    c, h, w = arr.shape
    out = np.empty((c, out_h, out_w))
    for y in range(out_h):
        y0 = min(y * ratio, h - 1)
        y1 = max(y0 + 1, min((y + 1) * ratio, h))
        for x in range(out_w):
            x0 = min(x * ratio, w - 1)
            x1 = max(x0 + 1, min((x + 1) * ratio, w))
            out[:, y, x] = arr[:, y0:y1, x0:x1].max(axis=(1, 2))
    return out


def naive_bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-cell edge-clamped bilinear resize with half-pixel centres."""
    c, h, w = arr.shape
    out = np.empty((c, out_h, out_w))
    for y in range(out_h):
        sy = min(max((y + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1, fy = min(y0 + 1, h - 1), sy - y0
        for x in range(out_w):
            sx = min(max((x + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1, fx = min(x0 + 1, w - 1), sx - x0
            for ch in range(c):
                top = arr[ch, y0, x0] * (1 - fx) + arr[ch, y0, x1] * fx
                bot = arr[ch, y1, x0] * (1 - fx) + arr[ch, y1, x1] * fx
                out[ch, y, x] = top * (1 - fy) + bot * fy
    return out


def box_iou(a, b) -> float:
    """The pairwise IoU formula on one pair: the reference for ``geometry.iou``.

    ``a`` and ``b`` are ``Box`` objects or ``(x1, y1, x2, y2)`` tuples. The
    result is 0.0 when the intersection is empty or the union is not
    positive; otherwise ``inter / union`` with ``union = area(a) + area(b) -
    inter``.
    """
    ax1, ay1, ax2, ay2 = a.corners() if hasattr(a, "corners") else a
    bx1, by1, bx2, by2 = b.corners() if hasattr(b, "corners") else b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def decode_reference(box, delta) -> tuple[float, float, float, float]:
    """One box's regression decode in corner form, as the per-box ``geometry.decode`` computed it.

    ``box`` has positive width and height; ``delta`` is ``(dx, dy, dw, dh)``.
    """
    x1, y1, x2, y2 = box
    dx, dy, dw, dh = delta
    w, h = x2 - x1, y2 - y1
    sx = w * (1.0 - math.exp(dw)) / 2.0
    sy = h * (1.0 - math.exp(dh)) / 2.0
    tx = dx * w
    ty = dy * h
    return (x1 + tx + sx, y1 + ty + sy, x2 + tx - sx, y2 + ty - sy)


def expand_reference(box, k: float) -> tuple[float, float, float, float]:
    """One box scaled ``k`` times about its center, as the per-box ``geometry.expand`` computed it."""
    x1, y1, x2, y2 = box
    mx = (k - 1.0) * (x2 - x1) / 2.0
    my = (k - 1.0) * (y2 - y1) / 2.0
    return (x1 - mx, y1 - my, x2 + mx, y2 + my)


def perturb_reference(box, center_sigma: float, size_sigma: float, normals) -> tuple[float, float, float, float]:
    """One box perturbed by the oracle tracker's noise from its four standard normals
    ``(dx, dy, dw, dh)``, as the oracle's per-box perturbation computed it."""
    x1, y1, x2, y2 = box
    dx, dy, dw, dh = normals
    tx = center_sigma * dx
    ty = center_sigma * dy
    sx = (x2 - x1) * (1.0 - math.exp(size_sigma * dw)) / 2.0
    sy = (y2 - y1) * (1.0 - math.exp(size_sigma * dh)) / 2.0
    return (x1 + tx + sx, y1 + ty + sy, x2 + tx - sx, y2 + ty - sy)


def reference_rescore(video, edges, nms_iou: float):
    """Brute-force extract/average/suppress loop over (class, score, corners) records.

    ``video`` is a list of frames, each a list of ``(class_id, score, corners)``;
    ``edges`` maps ``(t, i)`` to successor indices in frame ``t+1``. Returns
    ``{(t, i): rescored_score}`` for the surviving detections.
    """
    alive = [set(range(len(f))) for f in video]
    scores = [[r[1] for r in f] for f in video]
    result = {}
    while any(alive):
        live_edges = {
            (t, i): [j for j in succ if j in alive[t + 1]]
            for (t, i), succ in edges.items()
            if i in alive[t]
        }
        live_scores = [
            [scores[t][i] if i in alive[t] else None for i in range(len(video[t]))]
            for t in range(len(video))
        ]
        best, total = _best_alive_path(live_scores, live_edges, alive)
        mean = total / len(best)
        for t, i in best:
            result[(t, i)] = mean
            alive[t].discard(i)
        for t, i in best:
            cls, _, corners = video[t][i]
            for j in list(alive[t]):
                ocls, _, ocorners = video[t][j]
                if ocls == cls and box_iou(corners, ocorners) > nms_iou:
                    alive[t].discard(j)
    return result


def _best_alive_path(scores, edges, alive):
    best = None
    best_key = None
    n_frames = len(scores)
    for start in range(n_frames):
        stack = [[(start, i)] for i in sorted(alive[start])]
        while stack:
            path = stack.pop()
            total = sum(scores[t][i] for t, i in path)
            key = (-total, path[0][0], tuple(i for _, i in path))
            if best_key is None or key < best_key:
                best, best_key = path, key
            t, i = path[-1]
            if t + 1 < n_frames:
                for j in edges.get((t, i), []):
                    stack.append(path + [(t + 1, j)])
    return best, sum(scores[t][i] for t, i in best)


def json_detection_fields(det) -> dict:
    """A detection record's fields after ``video``, as a dict in file order."""
    return {
        "frame": det.frame,
        "class": det.class_id,
        "score": float(det.score),
        "box": [float(v) for v in det.box.corners()],
        "track": det.track,
        "provenance": det.provenance,
    }


def json_detection_lines(sets) -> str:
    """A detection file as ``json.dumps`` writes each record."""
    return "".join(json.dumps({"video": vds.video, **json_detection_fields(det)}) + "\n"
                   for vds in sets for frame in frames_of(vds) for det in frame)


def json_prediction_lines(preds_per_frame, video: str) -> str:
    """A prediction file as ``json.dumps`` writes it, from one list per frame of a video whose
    detections are the lists' sources: each record of every frame before the last that holds one,
    where a detection file of the video ends."""
    last = max((t for t, preds in enumerate(preds_per_frame) if preds), default=0)
    return "".join(
        json.dumps({"video": video, "frame": t, "det": i,
                    "box": [float(v) for v in p.predicted_box.corners()],
                    "quality": float(p.quality), "source": json_detection_fields(p.source)}) + "\n"
        for t, preds in enumerate(preds_per_frame[:last]) for i, p in enumerate(preds))


def list_seeded_rng(seed: int, det) -> np.random.Generator:
    """The oracle tracker's per-box generator, seeded from a list of Python ints."""
    bits = np.array(det.box.corners(), dtype=np.float64).view(np.uint64)
    entropy = [seed, det.frame, det.class_id] + [int(c) for c in bits]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# -- Test-side records -------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """One box's corners with center-form accessors; finite, of non-negative extent."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.corners()):
            raise ValueError(f"box corners are not finite: {self.corners()}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"negative box extent: {self.corners()}")

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "Box":
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

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def corner_array(boxes) -> np.ndarray:
    """Boxes (test-side ``Box`` objects or 4-tuples) as the package's ``(n, 4)`` corner array."""
    return np.array([b.corners() if isinstance(b, Box) else b for b in boxes], np.float64).reshape(-1, 4)


@dataclass(frozen=True)
class Detection:
    """One detection record, held to the loaders' rules (``check_detection``)."""

    frame: int
    class_id: int
    score: float
    box: Box
    track: int | None = None
    provenance: str | None = None

    def __post_init__(self) -> None:
        check_detection(self.frame, self.class_id, self.score, self.provenance)


@dataclass(frozen=True)
class TrackPrediction:
    """One track prediction: the detection it was made from, its box and its quality."""

    source: Detection
    predicted_box: Box
    quality: float


def records_set(video: str, records, n_frames: int | None = None) -> VideoDetectionSet:
    """A set of ``records`` in any frame order; ``n_frames`` defaults to one past the last frame."""
    return VideoDetectionSet.from_rows(video, [
        (d.frame, d.class_id, d.score, *d.box.corners(), d.track, PROVENANCES.index(d.provenance))
        for d in records], n_frames)


def video_set(video: str, frames) -> VideoDetectionSet:
    """A set of per-frame record lists; each record must lie in its frame."""
    frames = [list(frame) for frame in frames]
    for t, frame in enumerate(frames):
        for det in frame:
            if det.frame != t:
                raise ValueError(f"detection with frame {det.frame} stored under frame {t}")
    return records_set(video, [det for frame in frames for det in frame], len(frames))


# Each set's records, read once, so a set gives the same record objects on every read.
_RECORDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def frames_of(vds: VideoDetectionSet) -> tuple[tuple[Detection, ...], ...]:
    """A set's records as per-frame tuples."""
    if vds not in _RECORDS:
        bounds = vds.offsets.tolist()
        dets = [Detection(t, c, s, Box(*b), k if h else None, PROVENANCES[p])
                for t, c, s, b, k, h, p in zip(
                    vds.frame_index().tolist(), vds.class_id.tolist(), vds.score.tolist(), vds.boxes.tolist(),
                    vds.track.tolist(), vds.has_track.tolist(), vds.provenance.tolist())]
        _RECORDS[vds] = tuple(tuple(dets[a:b]) for a, b in zip(bounds, bounds[1:]))
    return _RECORDS[vds]


def predictions(dets: VideoDetectionSet, preds_per_frame) -> VideoPredictions:
    """Per-frame prediction lists as columns on ``dets``' rows.

    The lists cover every frame but the last, and each holds one prediction
    per detection of its frame, in row order. A list may follow for the
    last frame, as the property tests draw one list per frame and give it to
    ``json_prediction_lines`` too; it is dropped, as that frame has no next
    frame to predict, and its rows hold NaN, as the producers leave them.
    """
    n, sizes = dets.n_frames, np.diff(dets.offsets).tolist()
    if len(preds_per_frame) not in (n, max(n - 1, 0)):
        raise ValueError(f"predictions cover {len(preds_per_frame)} frames, video has {n}")
    for t, frame in enumerate(preds_per_frame):
        if len(frame) != sizes[t]:
            raise ValueError(f"frame {t}: {len(frame)} predictions for {sizes[t]} detections")
    predicted = [p for frame in preds_per_frame[: max(n - 1, 0)] for p in frame]
    boxes, quality = np.full((len(dets.score), 4), np.nan), np.full(len(dets.score), np.nan)
    boxes[: len(predicted)] = np.reshape([p.predicted_box.corners() for p in predicted], (-1, 4))
    quality[: len(predicted)] = [p.quality for p in predicted]
    return VideoPredictions(dets, boxes, quality)


def prediction_lists(preds: VideoPredictions) -> list[list[TrackPrediction]]:
    """A ``VideoPredictions`` read back as per-frame ``TrackPrediction`` lists on its
    detections' records, for assertions made per prediction; the last frame,
    which is not predicted, is empty."""
    out, row = [], 0
    for t, frame in enumerate(frames_of(preds.dets)):
        out.append([])
        for det in frame:
            if t < preds.dets.n_frames - 1:
                out[t].append(TrackPrediction(det, Box(*preds.boxes[row].tolist()), float(preds.quality[row])))
            row += 1
    return out


def track_records(track_fn, dets) -> list[TrackPrediction]:
    """``track_fn(boxes, frame, class_id)`` on one frame's records, its result read back
    as one prediction per record; no records are called as frame -1, as ``run_video``
    calls for frame 0."""
    dets = list(dets)
    boxes = np.array([d.box.corners() for d in dets], np.float64).reshape(-1, 4)
    predicted, quality = track_fn(boxes, dets[0].frame if dets else -1, np.array([d.class_id for d in dets], np.int64))
    assert np.shape(predicted) == (len(dets), 4) and np.shape(quality) == (len(dets),)
    return [TrackPrediction(d, Box(*b), q) for d, b, q in zip(dets, np.asarray(predicted).tolist(),
                                                             np.asarray(quality).tolist())]


# -- The per-object merge ----------------------------------------------------


def nms_reference(items, thresh, key, box=lambda item: item.box):
    """Classic removal-loop NMS: take the highest key left (the earlier item on a tie),
    drop every item overlapping it above ``thresh``, repeat."""
    remaining = list(range(len(items)))
    kept = []
    while remaining:
        best = max(remaining, key=lambda i: (key(items[i]), -i))
        kept.append(items[best])
        remaining = [i for i in remaining if i != best and box_iou(box(items[i]), box(items[best])) <= thresh]
    return kept


def reference_merge(frames, track, cfg):
    """The tracking-first merge as plain loops over records: per-frame merged
    :class:`Detection` lists and the prediction lists of every frame but the last.

    ``frames`` are per-frame record lists; ``track(records)`` returns one
    :class:`TrackPrediction` per record of one frame. Each frame tracks the
    last frame's score-gated output, keeps predictions at or above
    ``track_quality_min`` that survive ``nms_reference`` on quality, and
    admits each gated detection whose overlap with every kept box is below
    ``t_merge``, under the next fresh track id.
    """
    emitted, next_id, merged, preds = [], 0, [], []
    for t, dets in enumerate(frames):
        candidates = [d for d in emitted if d.score >= cfg.detect_to_track_score]
        frame_preds = track(candidates)
        confident = [p for p in frame_preds if p.quality >= cfg.track_quality_min]
        kept = nms_reference(confident, cfg.track_nms_iou, key=lambda p: p.quality, box=lambda p: p.predicted_box)
        emitted = [Detection(t, p.source.class_id, p.source.score, p.predicted_box, p.source.track, "tracked")
                   for p in kept]
        for d in dets:
            if d.score >= cfg.detect_to_track_score and all(
                    box_iou(d.box, x.predicted_box) < cfg.t_merge for x in kept):
                emitted.append(Detection(t, d.class_id, d.score, d.box, next_id, "detected"))
                next_id += 1
        if t > 0:
            preds.append(frame_preds)
        merged.append(emitted)
    return merged, preds
