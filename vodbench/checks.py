"""Correctness checks of the chain's output files, written apart from the program.

Nothing here calls vodtrack code: files are read as raw JSON lines or raw
binary, overlaps come from a numpy overlap matrix, the evaluator is a plain
all-point AP, and the reference head forward uses separable pooling
matrices and tensordot convolutions. Each check returns a list of error
strings; an empty list means the check passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict

import numpy as np

# Thresholds of the default PipelineConfig and of ``link``'s defaults.
TRACK_NMS_IOU = 0.7
T_MERGE = 0.7
FINAL_NMS_IOU = 0.45
EVAL_IOU = 0.5

# Largest difference allowed between a learned-head prediction and the
# reference forward pass (pixels for box corners, absolute for quality).
HEAD_TOLERANCE = 1e-9


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_frame(records: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = defaultdict(list)
    for r in records:
        out[r["frame"]].append(r)
    return out


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise overlap of (N, 4) against (M, 4) corner boxes."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((inter > 0) & (union > 0), inter / union, 0.0)


def _boxes(records: list[dict]) -> np.ndarray:
    return np.array([r["box"] for r in records], dtype=np.float64).reshape(-1, 4)


# -- evaluator --------------------------------------------------------------


def average_precision(hits: list[bool], n_gt: int) -> float:
    """All-point interpolated AP of ranked hit flags against ``n_gt`` positives."""
    if n_gt == 0 or not hits:
        return 0.0
    tp = fp = 0
    recall, precision = [], []
    for hit in hits:
        tp += hit
        fp += not hit
        recall.append(tp / n_gt)
        precision.append(tp / (tp + fp))
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap, prev = 0.0, 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev) * p
        prev = r
    return ap


def mean_ap(preds: list[dict], gt: list[dict], thresh: float = EVAL_IOU) -> float:
    """mAP over classes with ground truth: rank each class by score (ties in
    file order), match each prediction to the unmatched same-frame ground
    truth box it overlaps most, and count it a hit at ``thresh`` or better."""
    gt_cells: dict[tuple, list[dict]] = defaultdict(list)
    for g in gt:
        gt_cells[(g["video"], g["frame"], g["class"])].append(g)
    n_gt = Counter(g["class"] for g in gt)
    aps = []
    for c in sorted(n_gt):
        ranked = sorted((p for p in preds if p["class"] == c), key=lambda p: -p["score"])
        used: dict[tuple, np.ndarray] = {}
        hits = []
        for p in ranked:
            cell = (p["video"], p["frame"], c)
            cands = gt_cells.get(cell, [])
            if not cands:
                hits.append(False)
                continue
            taken = used.setdefault(cell, np.zeros(len(cands), dtype=bool))
            ov = np.where(taken, 0.0, iou_matrix([p["box"]], _boxes(cands))[0])
            best = int(np.argmax(ov))
            if ov[best] > 0.0 and ov[best] >= thresh:
                taken[best] = True
                hits.append(True)
            else:
                hits.append(False)
        aps.append(average_precision(hits, n_gt[c]))
    return sum(aps) / len(aps) if aps else 0.0


# -- merge and linking properties -------------------------------------------


def _key(r: dict) -> tuple:
    return (r["frame"], r["class"], tuple(r["box"]))


def check_merged(merged: list[dict], dets: list[dict]) -> list[str]:
    """Tracking-first merge: tracked boxes are mutually suppressed, admitted
    detections are detector boxes clear of every tracked box, ids are unique."""
    errors = []
    det_pool = Counter(_key(d) + (d["score"],) for d in dets)
    for t, frame in sorted(by_frame(merged).items()):
        ids = [r["track"] for r in frame]
        if None in ids or len(ids) != len(set(ids)):
            errors.append(f"merged frame {t}: track ids not unique: {ids}")
        tracked = [r for r in frame if r["provenance"] == "tracked"]
        admitted = [r for r in frame if r["provenance"] == "detected"]
        if len(tracked) + len(admitted) != len(frame):
            errors.append(f"merged frame {t}: record without provenance")
        if len(tracked) > 1:
            ov = iou_matrix(_boxes(tracked), _boxes(tracked))
            np.fill_diagonal(ov, 0.0)
            if ov.max() > TRACK_NMS_IOU:
                errors.append(f"merged frame {t}: tracked boxes overlap at {ov.max():.4f}")
        for r in admitted:
            key = _key(r) + (r["score"],)
            if det_pool[key] <= 0:
                errors.append(f"merged frame {t}: admitted box {r['box']} is not a detector box")
            det_pool[key] -= 1
        if tracked and admitted:
            ov = iou_matrix(_boxes(admitted), _boxes(tracked))
            if ov.max() >= T_MERGE:
                errors.append(f"merged frame {t}: admitted box overlaps a track at {ov.max():.4f}")
    return errors


def check_final(final: list[dict], merged: list[dict]) -> list[str]:
    """Re-scoring keeps geometry, leaves no same-class overlap above the NMS
    threshold, and drops a merged box only next to a final box that covers it."""
    errors = []
    remaining = Counter(_key(r) for r in merged)
    for r in final:
        if remaining[_key(r)] <= 0:
            errors.append(f"final frame {r['frame']}: box {r['box']} is not a merged box")
        remaining[_key(r)] -= 1
    dropped = defaultdict(list)
    for key, n in remaining.items():
        for _ in range(max(n, 0)):
            dropped[key[0]].append(key)
    final_by_frame = by_frame(final)
    for t in sorted(set(final_by_frame) | set(dropped)):
        by_class = defaultdict(list)
        for r in final_by_frame.get(t, []):
            by_class[r["class"]].append(r["box"])
        for c, boxes in by_class.items():
            if len(boxes) > 1:
                ov = iou_matrix(boxes, boxes)
                np.fill_diagonal(ov, 0.0)
                if ov.max() > FINAL_NMS_IOU:
                    errors.append(f"final frame {t} class {c}: boxes overlap at {ov.max():.4f}")
        for _, c, box in dropped.get(t, []):
            cover = iou_matrix([box], by_class.get(c, []))
            if cover.size == 0 or cover.max() <= FINAL_NMS_IOU:
                errors.append(f"final frame {t}: dropped box {list(box)} has no covering box")
    return errors


def check_map(reported: float, final: list[dict], gt: list[dict]) -> list[str]:
    expected = mean_ap(final, gt)
    if not abs(reported - expected) <= 1e-12:
        return [f"mAP {reported!r} differs from the reference evaluator's {expected!r}"]
    return []


# -- learned head -----------------------------------------------------------


def check_track_preds(preds: list[dict], dets: list[dict], n_frames: int) -> list[str]:
    """One prediction per detector box in every frame that has a successor."""
    errors = []
    det_frames = by_frame(dets)
    pred_frames = by_frame(preds)
    for t in range(n_frames - 1):
        frame_dets = det_frames.get(t, [])
        frame_preds = sorted(pred_frames.get(t, []), key=lambda p: p["det"])
        if [p["det"] for p in frame_preds] != list(range(len(frame_dets))):
            errors.append(f"track frame {t}: {len(frame_preds)} predictions "
                          f"for {len(frame_dets)} detector boxes")
            continue
        for p, d in zip(frame_preds, frame_dets):
            src = p["source"]
            if (src["box"], src["class"], src["score"]) != (d["box"], d["class"], d["score"]):
                errors.append(f"track frame {t}: prediction {p['det']} has another source box")
    if set(pred_frames) - set(range(n_frames - 1)):
        errors.append("track: predictions for a frame without a successor")
    return errors


def read_pyramid(path) -> dict[int, np.ndarray]:
    """Read a feature-pyramid file: JSON header line, then float payloads."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    dtype = np.dtype(header["dtype"])
    levels, offset = {}, 0
    for lv in header["levels"]:
        shape = (lv["channels"], lv["height"], lv["width"])
        n = shape[0] * shape[1] * shape[2]
        levels[lv["stride"]] = np.frombuffer(payload, dtype, n, offset).reshape(shape).astype(np.float64)
        offset += n * dtype.itemsize
    return levels


def _resize_matrix(size: int, out: int) -> np.ndarray:
    """Rows of edge-clamped linear interpolation weights, half-pixel centres."""
    m = np.zeros((out, size))
    for i in range(out):
        src = min(max((i + 0.5) * size / out - 0.5, 0.0), size - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, size - 1)
        m[i, lo] += 1.0 - (src - lo)
        m[i, hi] += src - lo
    return m


def fuse(levels: dict[int, np.ndarray], target: int) -> np.ndarray:
    """Max-pool finer levels, interpolate coarser ones, stack in stride order."""
    _, th, tw = levels[target].shape
    parts = []
    for stride in sorted(levels):
        f = levels[stride]
        c, h, w = f.shape
        if stride == target:
            parts.append(f)
        elif stride < target:
            r = target // stride
            if (h, w) != (th * r, tw * r):
                raise ValueError("reference fuse needs level sizes that divide evenly")
            parts.append(f.reshape(c, th, r, tw, r).max(axis=(2, 4)))
        else:
            parts.append(_resize_matrix(h, th) @ f @ _resize_matrix(w, tw).T)
    return np.concatenate(parts, axis=0)


def _hat_integral(u: np.ndarray) -> np.ndarray:
    """Antiderivative of the unit hat max(0, 1 - |u|), from -inf."""
    return np.where(
        u <= -1.0, 0.0,
        np.where(u <= 0.0, (u + 1.0) ** 2 / 2.0,
                 np.where(u <= 1.0, 1.0 - (1.0 - u) ** 2 / 2.0, 1.0)))


def _bin_weights(lo: float, hi: float, n_bins: int, size: int) -> np.ndarray:
    """(n_bins, size): mean over each bin of each grid point's hat function."""
    edges = lo + (hi - lo) * np.arange(n_bins + 1) / n_bins
    grid = np.arange(size)[None, :]
    integral = _hat_integral(edges[1:, None] - grid) - _hat_integral(edges[:-1, None] - grid)
    return integral / ((hi - lo) / n_bins)


def roi_pool(feat: np.ndarray, box, out: int, stride: float) -> np.ndarray:
    """Exact bin means of the zero-extended bilinear field: the field is a sum
    of separable hat functions, so each bin mean is ``Wy @ F @ Wx.T``."""
    x1, y1, x2, y2 = (v / stride for v in box)
    c, h, w = feat.shape
    if x2 <= x1 or y2 <= y1:
        return np.zeros((c, out, out))
    return _bin_weights(y1, y2, out, h) @ feat @ _bin_weights(x1, x2, out, w).T


def conv_same(x: np.ndarray, kernel: np.ndarray, bias=None) -> np.ndarray:
    _, _, kh, kw = kernel.shape
    _, h, w = x.shape
    padded = np.pad(x, ((0, 0), ((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2)))
    out = sum(np.tensordot(kernel[:, :, i, j], padded[:, i:i + h, j:j + w], axes=1)
              for i in range(kh) for j in range(kw))
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def conv_bn_relu(x: np.ndarray, block) -> np.ndarray:
    out = conv_same(x, block.kernel, block.bias)
    out = (out - block.mean[:, None, None]) * (block.gamma / np.sqrt(block.var + block.eps))[:, None, None]
    return np.maximum(out + block.beta[:, None, None], 0.0)


def correlate(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(search, template.shape[1:], axis=(1, 2))
    return np.einsum("cyxij,cij->cyx", windows, template)


def expand(box, k: float):
    x1, y1, x2, y2 = box
    cx, cy, w, h = (x1 + x2) / 2, (y1 + y2) / 2, (x2 - x1) * k, (y2 - y1) * k
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def head_reference(fused_t, fused_t1, box, weights, *, stride, k=3.0, template=7, search=21):
    """Reference box and quality of the regression head for one source box."""
    t = conv_bn_relu(roi_pool(fused_t, box, template, stride), weights.pre_template)
    s = conv_bn_relu(roi_pool(fused_t1, expand(box, k), search, stride), weights.pre_for_search)
    adjusted = conv_bn_relu(correlate(t, s), weights.post)
    flat = conv_same(adjusted, weights.head_kernel, weights.head_bias).ravel()
    dx, dy, dw, dh = weights.box_weight @ flat + weights.box_bias
    logit = float(weights.score_weight[0] @ flat + weights.score_bias[0])
    x1, y1, x2, y2 = box
    bw, bh = x2 - x1, y2 - y1
    cx, cy = (x1 + x2) / 2 + dx * bw, (y1 + y2) / 2 + dy * bh
    w, h = bw * math.exp(dw), bh * math.exp(dh)
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), 1.0 / (1.0 + math.exp(-logit))


def sample_positions(n: int, k: int = 4) -> list[int]:
    """``k`` fixed positions spread evenly over ``n`` records."""
    if n == 0:
        return []
    return sorted({round(i * (n - 1) / max(k - 1, 1)) for i in range(k)})


def check_head_sample(preds: list[dict], feature_path, weights, *, stride: int) -> list[str]:
    """Recompute a fixed sample of learned-head predictions with the reference forward."""
    errors = []
    preds = sorted(preds, key=lambda p: (p["frame"], p["det"]))
    fused = {}
    for pos in sample_positions(len(preds)):
        p = preds[pos]
        t = p["frame"]
        for f in (t, t + 1):
            if f not in fused:
                fused[f] = fuse(read_pyramid(feature_path(f)), stride)
        box, quality = head_reference(fused[t], fused[t + 1], p["source"]["box"], weights,
                                      stride=stride)
        err = max(max(abs(a - b) for a, b in zip(box, p["box"])), abs(quality - p["quality"]))
        if not err <= HEAD_TOLERANCE:
            errors.append(f"head frame {t} det {p['det']}: differs from the reference by {err:.3e}")
    return errors
