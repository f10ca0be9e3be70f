"""Per-frame fusion of detector output and tracked boxes (tracking-first merge).

Each step tracks the previous frame's emitted objects into the current
frame, keeps the confident tracks, and admits a new detection only where it
does not collide with a tracked box. Tracked boxes win collisions because
the tracker localizes a known object better than a fresh detection ranked
by class score alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

from .detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, Detection
from .geometry import iou
from .tracker import TrackPrediction

__all__ = [
    "PipelineConfig",
    "FrameState",
    "nms",
    "filter_tracks",
    "tfd_merge",
    "step",
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
    def from_file(cls, path) -> "PipelineConfig":
        """Parse a ``key = value`` config file; unknown keys are rejected."""
        values = {}
        known = {f.name for f in fields(cls)}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
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
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return cls(**values)


@dataclass(frozen=True)
class FrameState:
    """Emitted detections of one processed frame plus the track id allocator.

    ``preds_from_prev`` records the track predictions (aligned with the
    previous state's emitted list) that produced this frame, for downstream
    linking.
    """

    frame: int
    emitted: tuple[Detection, ...]
    next_track_id: int
    preds_from_prev: tuple[TrackPrediction, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "emitted", tuple(self.emitted))
        object.__setattr__(self, "preds_from_prev", tuple(self.preds_from_prev))
        ids = [d.track for d in self.emitted if d.track is not None]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids in frame {self.frame}: {sorted(ids)}")
        for d in self.emitted:
            if d.provenance not in (PROVENANCE_DETECTED, PROVENANCE_TRACKED):
                raise ValueError(f"emitted detection without provenance: {d}")

    @classmethod
    def empty(cls) -> "FrameState":
        return cls(frame=-1, emitted=(), next_track_id=0)


def nms(dets: Sequence, iou_thresh: float, key: Callable | None = None, *, box: Callable | None = None) -> list:
    """Greedy non-maximum suppression, highest key first.

    Ties keep the earlier input item. A box survives only if its overlap
    with every already-kept box is at or below ``iou_thresh``; kept order is
    by descending key.
    """
    key = key if key is not None else (lambda d: d.score)
    box = box if box is not None else (lambda d: d.box)
    order = sorted(range(len(dets)), key=lambda i: -key(dets[i]))
    kept: list = []
    for i in order:
        cand = dets[i]
        if all(iou(box(cand), box(k)) <= iou_thresh for k in kept):
            kept.append(cand)
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
    kept = nms(
        confident,
        cfg.track_nms_iou,
        key=lambda p: p.quality,
        box=lambda p: p.predicted_box,
    )
    out = []
    for p in kept:
        out.append(
            Detection(
                frame=p.source.frame + 1 if frame is None else frame,
                class_id=p.source.class_id,
                score=p.source.score,
                box=p.predicted_box,
                track=p.source.track,
                provenance=PROVENANCE_TRACKED,
            )
        )
    return out


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
    for det in detected:
        if all(iou(det.box, t.box) < cfg.t_merge for t in tracked):
            merged.append(replace(det, track=next_id, provenance=PROVENANCE_DETECTED))
            next_id += 1
    return merged


def step(
    state: FrameState,
    detections_t1: Sequence[Detection],
    track_fn: Callable[[list[Detection]], list[TrackPrediction]],
    cfg: PipelineConfig,
) -> FrameState:
    """Advance the merge pipeline by one frame.

    The previous frame's emitted detections (score-gated) are tracked into
    this frame, filtered, and merged with this frame's score-gated detector
    output.
    """
    frame = detections_t1[0].frame if detections_t1 else state.frame + 1
    candidates = [d for d in state.emitted if d.score >= cfg.detect_to_track_score]
    preds = track_fn(candidates)
    if len(preds) != len(candidates):
        raise ValueError(
            f"tracker returned {len(preds)} predictions for {len(candidates)} boxes"
        )
    tracked = filter_tracks(preds, cfg, frame=frame)
    detected = [d for d in detections_t1 if d.score >= cfg.detect_to_track_score]
    merged = tfd_merge(tracked, detected, cfg, id_start=state.next_track_id)
    top_id = max((d.track for d in merged if d.track is not None), default=state.next_track_id - 1)
    return FrameState(
        frame=frame,
        emitted=tuple(merged),
        next_track_id=max(state.next_track_id, top_id + 1),
        preds_from_prev=tuple(preds),
    )


def run_video(
    frames: Sequence[Sequence[Detection]],
    track_fn: Callable[[list[Detection]], list[TrackPrediction]],
    cfg: PipelineConfig,
) -> tuple[list[list[Detection]], list[list[TrackPrediction]]]:
    """Run :func:`step` over a whole video.

    Returns the per-frame merged detections and, aligned with each merged
    frame, the track predictions made from it (empty for the last frame).
    Predictions align index for index with the merged lists because every
    emitted detection passes the tracking score gate by construction.
    """
    state = FrameState.empty()
    merged: list[list[Detection]] = []
    preds: list[list[TrackPrediction]] = []
    for dets in frames:
        state = step(state, list(dets), track_fn, cfg)
        if merged:
            preds.append(list(state.preds_from_prev))
        merged.append(list(state.emitted))
    preds.append([])
    return merged, preds


def final_detections(frames: Sequence[Sequence[Detection]], cfg: PipelineConfig) -> list[list[Detection]]:
    """Detector-only output: score threshold then per-class suppression."""
    out: list[list[Detection]] = []
    for dets in frames:
        strong = [d for d in dets if d.score >= cfg.final_score_min]
        pos = {id(d): i for i, d in enumerate(strong)}
        kept: list[Detection] = []
        for cls in sorted({d.class_id for d in strong}):
            kept.extend(nms([d for d in strong if d.class_id == cls], cfg.final_nms_iou))
        kept.sort(key=lambda d: pos[id(d)])
        out.append(kept)
    return out
