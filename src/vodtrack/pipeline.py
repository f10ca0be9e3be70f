"""Per-frame fusion of detector output and tracked boxes (tracking-first merge).

For each frame, :func:`run_video` tracks the previous frame's emitted
objects into the frame, keeps the confident tracks, and admits a new
detection only where it does not collide with a tracked box. Tracked boxes
win collisions because the tracker localizes a known object better than a
fresh detection ranked by class score alone.

:func:`run_video` and :func:`final_detections` take and return whole videos
as :mod:`~vodtrack.evalio` columns; ``Detection`` and ``TrackPrediction``
objects exist only inside the per-frame merge and the track functions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, Detection, TrackPrediction
from .evalio import VideoDetectionSet, VideoPredictions
from .geometry import iou

__all__ = [
    "PipelineConfig",
    "nms",
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
    final_score_min / final_nms_iou: detector-only output filtering.
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

    @classmethod
    def file_values(cls, path) -> dict[str, float]:
        """Parse a ``key = value`` config file into the values it sets, by field name.

        Unknown keys and values out of range are rejected; every fault raises
        a ``ValueError`` naming ``path`` and the line.
        """
        values = {}
        known = {f.name for f in fields(cls)}
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode splits
        for lineno, line in enumerate(lines, start=1):
            try:
                line = line.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = float(raw.strip())
                cls(**{key: values[key]})  # the value's own range check
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return values


def nms(dets: Sequence, iou_thresh: float, key: Callable | None = None, *, box: Callable | None = None) -> list:
    """Greedy non-maximum suppression, highest key first.

    Ties keep the earlier input item. A box survives only if its overlap
    with every already-kept box is at or below ``iou_thresh``; kept order is
    by descending key.
    """
    key = key if key is not None else (lambda d: d.score)
    box = box if box is not None else (lambda d: d.box)
    order = sorted(range(len(dets)), key=lambda i: -key(dets[i]))
    boxes = [box(d) for d in dets]
    return [dets[i] for i in _greedy_keep(order, ~(iou(boxes, boxes) <= iou_thresh))]


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


def filter_tracks(
    preds: Sequence[TrackPrediction],
    cfg: PipelineConfig,
    *,
    frame: int | None = None,
) -> list[Detection]:
    """Quality-gate and suppress track predictions, then emit them as detections.

    Survivors carry the source's class, score, and track id with tracked
    provenance. ``frame`` defaults to one past the source frame.
    """
    confident = [p for p in preds if p.quality >= cfg.track_quality_min]
    kept = nms(confident, cfg.track_nms_iou, key=lambda p: p.quality, box=lambda p: p.predicted_box)
    return [Detection(p.source.frame + 1 if frame is None else frame, p.source.class_id, p.source.score,
                      p.predicted_box, p.source.track, PROVENANCE_TRACKED) for p in kept]


def tfd_merge(
    tracked: Sequence[Detection],
    detected: Sequence[Detection],
    cfg: PipelineConfig,
    *,
    id_start: int = 0,
) -> list[Detection]:
    """Keep every tracked box; admit detections clear of all of them.

    A detected box survives only if its overlap with every tracked box is
    below ``t_merge`` (the tracked one wins when both see the same object).
    Surviving detections are new objects and get fresh track ids from
    ``id_start``.
    """
    merged = list(tracked)
    next_id = id_start
    clear = (iou([d.box for d in detected], [t.box for t in tracked]) < cfg.t_merge).all(axis=1)
    for det, admit in zip(detected, clear):
        if admit:
            merged.append(Detection(det.frame, det.class_id, det.score, det.box, next_id,
                                    PROVENANCE_DETECTED))
            next_id += 1
    return merged


def run_video(
    video: VideoDetectionSet,
    track_fn: Callable[[list[Detection]], list[TrackPrediction]],
    cfg: PipelineConfig,
) -> tuple[VideoDetectionSet, VideoPredictions]:
    """Run the tracking-first merge over a whole video, frame by frame.

    The previous frame's emitted detections (score-gated) are tracked into
    frame ``t``, filtered, and merged with frame ``t``'s score-gated
    detector output; admitted detections take fresh track ids, counting up
    from 0 over the video.

    ``track_fn`` is called once per frame, in frame order, with boxes of
    exactly one frame (frame ``t - 1``; none for frame 0). It returns one
    prediction per box in input order and keeps no state between calls.
    The oracle and replay track functions raise ``ValueError`` for boxes
    from two frames in one call.

    Returns the merged set and the track predictions made from its rows
    (every frame but the last is predicted). Predictions align row for row
    with the merged set because every emitted detection passes the
    tracking score gate by construction.
    """
    emitted: list[Detection] = []
    next_id = 0
    merged: list[list[Detection]] = []
    preds: list[list[TrackPrediction]] = []
    for t, dets in enumerate(video.frames):
        candidates = [d for d in emitted if d.score >= cfg.detect_to_track_score]
        frame_preds = track_fn(candidates)
        if len(frame_preds) != len(candidates):
            raise ValueError(
                f"tracker returned {len(frame_preds)} predictions for {len(candidates)} boxes"
            )
        tracked = filter_tracks(frame_preds, cfg, frame=t)
        detected = [d for d in dets if d.score >= cfg.detect_to_track_score]
        emitted = tfd_merge(tracked, detected, cfg, id_start=next_id)
        next_id += len(emitted) - len(tracked)
        ids = [d.track for d in emitted if d.track is not None]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids in frame {t}: {sorted(ids)}")
        if t > 0:
            preds.append(frame_preds)
        merged.append(emitted)
    merged_set = VideoDetectionSet(video.video, merged)
    return merged_set, VideoPredictions.aligned(merged_set, preds)


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
