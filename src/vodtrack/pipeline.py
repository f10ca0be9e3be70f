"""Per-frame fusion of detector output and tracked boxes (tracking-first merge).

For each frame, :func:`run_video` tracks the previous frame's emitted
objects into the frame, keeps the confident tracks, and admits a new
detection only where it does not collide with a tracked box. Tracked boxes
win collisions because the tracker localizes a known object better than a
fresh detection ranked by class score alone.

Every function here works on :mod:`~vodtrack.evalio` columns: whole videos
as sets, one frame as its row slices, and the track functions on one
frame's ``(n, 4)`` corners.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, PROVENANCES, check_quality
from .evalio import VideoDetectionSet, VideoPredictions
from .geometry import iou

__all__ = [
    "PipelineConfig",
    "filter_tracks",
    "tfd_merge",
    "run_video",
    "final_detections",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Score and overlap thresholds of the detection/tracking merge.

    detect_to_track_score: minimum class score for a box to be tracked or admitted.
    track_quality_min: minimum predicted overlap quality for a track to survive.
    track_nms_iou: overlap suppression among tracked boxes, keyed on quality.
    t_merge: a detection overlapping any tracked box at or above this is dropped.
    final_score_min / final_nms_iou: the output's score gate and suppression, read by the
    detector filter and the link stage (which gates scores only without the merge).
    """

    detect_to_track_score: float = 0.03
    track_quality_min: float = 0.5
    track_nms_iou: float = 0.7
    t_merge: float = 0.7
    final_score_min: float = 0.03
    final_nms_iou: float = 0.45

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{f.name} must be in [0, 1], got {v}")


def _greedy_keep(order: Sequence[int], clash: np.ndarray) -> list[int]:
    """Walk ``order`` and keep each index that clashes with no index kept before it.

    ``clash`` is a symmetric boolean matrix over the indices. Returns the
    kept indices in ``order``'s order.
    """
    suppressed = np.zeros(len(clash), dtype=bool)
    kept = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= clash[i]
    return kept


def filter_tracks(boxes: np.ndarray, quality: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """The rows of one frame's track predictions that survive, highest quality first.

    ``boxes`` are the ``(n, 4)`` predicted corners and ``quality`` their
    qualities. A row survives the gate at ``track_quality_min``, then greedy
    suppression by descending quality (ties keep the earlier row): it is
    kept only if its overlap with every row kept before it is at or below
    ``track_nms_iou``.
    """
    confident = np.flatnonzero(quality >= cfg.track_quality_min)
    order = np.argsort(-quality[confident], kind="stable")
    candidates = boxes[confident]
    return confident[_greedy_keep(order.tolist(), ~(iou(candidates, candidates) <= cfg.track_nms_iou))]


def tfd_merge(tracked: np.ndarray, detected: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Keep every tracked box; admit detected boxes clear of all of them.

    ``tracked`` and ``detected`` are one frame's ``(k, 4)`` and ``(m, 4)``
    corners. A detected box is admitted only if its overlap with every
    tracked box is below ``t_merge`` (the tracked one wins when both see the
    same object). Returns the merged frame as rows of ``tracked`` followed by
    ``detected``, counted over the two stacked: ``0`` to ``k - 1``, then
    ``k + j`` for each admitted row ``j`` of ``detected``, in order.
    """
    clear = (iou(detected, tracked) < cfg.t_merge).all(axis=1)
    return np.concatenate([np.arange(len(tracked)), len(tracked) + np.flatnonzero(clear)])


# Each merged frame's provenance codes: its tracked rows, then its admitted detections.
_MERGED_CODES = np.array([PROVENANCES.index(PROVENANCE_TRACKED), PROVENANCES.index(PROVENANCE_DETECTED)],
                         np.int8)


def run_video(
    video: VideoDetectionSet,
    track_fn: Callable[[np.ndarray, int, np.ndarray], tuple[np.ndarray, np.ndarray]],
    cfg: PipelineConfig,
) -> tuple[VideoDetectionSet, VideoPredictions]:
    """Run the tracking-first merge over a whole video, frame by frame.

    The previous frame's emitted rows are tracked into frame ``t``,
    filtered, and merged with frame ``t``'s detector output at or above
    ``detect_to_track_score``. A tracked row keeps its source's class,
    score and track id; admitted detections take fresh track ids, counting
    up from 0 over the video. Every emitted row has passed the score gate
    (a tracked one through its source), so all of them are tracked.

    ``track_fn(boxes, frame, class_id)`` is called once per frame, in frame
    order, with frame ``t - 1``'s emitted ``(n, 4)`` corners, ``t - 1`` and
    their class ids (no rows, and frame -1, for frame 0). It returns the
    ``(n, 4)`` predicted corners and the ``n`` qualities in input order, and
    keeps no state between calls. A result of another length, or a quality
    outside [0, 1], raises ``ValueError``.

    Returns the merged set and the track predictions made from its rows
    (every frame but the last is predicted).
    """
    boxes, class_id, score, track = np.zeros((0, 4)), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64)
    # Per merged frame: its class, score, corner, track and provenance columns.
    frames = [(class_id, score, boxes, track, np.zeros(0, np.int8))]
    predicted_frames = [(boxes, score)]
    next_id = 0
    bounds = video.offsets.tolist()
    for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
        predicted, quality = (np.asarray(out, np.float64) for out in track_fn(boxes, t - 1, class_id))
        if predicted.shape != boxes.shape or quality.shape != (len(boxes),):
            raise ValueError(f"tracker returned {len(quality)} predictions for {len(boxes)} boxes")
        outside = ~((quality >= 0.0) & (quality <= 1.0))  # also true for NaN
        if outside.any():
            check_quality(quality[outside][0].item())
        if t > 0:
            predicted_frames.append((predicted, quality))
        kept = filter_tracks(predicted, quality, cfg)
        gated = np.flatnonzero(video.score[a:b] >= cfg.detect_to_track_score) + a
        merged = tfd_merge(predicted[kept], video.boxes[gated], cfg)
        admitted = gated[merged[len(kept):] - len(kept)]
        class_id = np.concatenate([class_id[kept], video.class_id[admitted]])
        score = np.concatenate([score[kept], video.score[admitted]])
        boxes = np.concatenate([predicted[kept], video.boxes[admitted]])
        track = np.concatenate([track[kept], np.arange(next_id, next_id + len(admitted))])
        next_id += len(admitted)
        frames.append((class_id, score, boxes, track, _MERGED_CODES.repeat([len(kept), len(admitted)])))

    class_id, score, boxes, track, provenance = (np.concatenate(column) for column in zip(*frames))
    offsets = np.cumsum([0, *(len(f[0]) for f in frames[1:])], dtype=np.int64)
    merged_set = VideoDetectionSet(video.video, offsets, class_id, score, boxes, track,
                                   np.ones(len(score), bool), provenance)
    n_predicted = max(video.n_frames - 1, 0)
    predicted, quality = np.full((len(score), 4), np.nan), np.full(len(score), np.nan)
    predicted[: offsets[n_predicted]], quality[: offsets[n_predicted]] = (
        np.concatenate(column) for column in zip(*predicted_frames))
    return merged_set, VideoPredictions(merged_set, predicted, quality, n_predicted)


def final_detections(video: VideoDetectionSet, cfg: PipelineConfig) -> VideoDetectionSet:
    """Detector-only output: score threshold then per-class suppression."""
    keep = np.zeros(len(video.score), bool)
    bounds = video.offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        strong = np.flatnonzero(video.score[a:b] >= cfg.final_score_min) + a
        boxes, classes = video.boxes[strong], video.class_id[strong]
        # Suppression runs per class: boxes of different classes never clash.
        clash = ~(iou(boxes, boxes) <= cfg.final_nms_iou) & (classes[:, None] == classes)
        order = np.argsort(-video.score[strong], kind="stable")
        keep[strong[_greedy_keep(order.tolist(), clash)]] = True
    return video.select(keep)
