"""Independent brute-force oracles used to cross-check the library kernels.

Everything here is deliberately written as plain loops over scalars, sharing
no code with the implementations under test.
"""

from __future__ import annotations

import math

import numpy as np


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


def box_iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


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
