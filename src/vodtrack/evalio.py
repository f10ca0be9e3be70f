"""Detection, prediction, feature, and weight file formats plus the mAP evaluator.

Detection files are JSON lines, one object per detection::

    {"video": "v0", "frame": 3, "class": 7, "score": 0.91,
     "box": [x1, y1, x2, y2], "track": 4, "provenance": "detected"}

``track`` and ``provenance`` may be null; ``provenance`` is otherwise
``"detected"`` or ``"tracked"``. Keys are written in the order above with
repr-exact floats, so saving a loaded file reproduces it byte for byte.

Prediction files are JSON lines, one object per track prediction::

    {"video": "v0", "frame": 3, "det": 0, "box": [x1, y1, x2, y2],
     "quality": 0.87, "source": {"frame": 3, "class": 7, ...}}

``det`` indexes the source detection within its frame. ``source`` is a
detection record without ``video``: it is written and read by the same
code as a detection file's lines. Every loader rejects a malformed line
with a ``ValueError`` naming ``path:line``; a detection frame index above
``MAX_FRAME_INDEX`` counts as malformed.

Feature pyramids and named weight tensors use the same binary layout: a
single UTF-8 JSON header line declaring shapes and element width, followed
by the raw little-endian row-major payloads in header order, which must be
exactly the declared size.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, Detection
from .geometry import Box, iou
from .tensor_ops import FeaturePyramid

__all__ = [
    "VideoDetectionSet",
    "EvalResult",
    "MAX_FRAME_INDEX",
    "load_detections",
    "save_detections",
    "load_predictions",
    "save_predictions",
    "load_features",
    "save_features",
    "load_named_arrays",
    "save_named_arrays",
    "evaluate_map",
]

@dataclass(frozen=True)
class VideoDetectionSet:
    """All detections of one video, grouped per frame (indices contiguous from 0)."""

    video: str
    frames: tuple[tuple[Detection, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(tuple(f) for f in self.frames))
        for t, frame in enumerate(self.frames):
            for det in frame:
                if det.frame != t:
                    raise ValueError(
                        f"detection with frame {det.frame} stored under frame {t}"
                    )

    @classmethod
    def from_records(
        cls, video: str, records: Iterable[Detection], n_frames: int | None = None
    ) -> "VideoDetectionSet":
        records = list(records)
        if n_frames is None:
            n_frames = max((d.frame for d in records), default=-1) + 1
        frames: list[list[Detection]] = [[] for _ in range(n_frames)]
        for det in records:
            if det.frame >= n_frames:
                raise ValueError(f"frame {det.frame} out of range (n_frames={n_frames})")
            frames[det.frame].append(det)
        return cls(video, tuple(tuple(f) for f in frames))

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def all_detections(self) -> list[Detection]:
        return [d for frame in self.frames for d in frame]


_PROVENANCES = (None, PROVENANCE_DETECTED, PROVENANCE_TRACKED)

# Largest frame index a detection record may carry. A loaded video holds one
# entry per frame up to its largest index, so one hostile record could
# otherwise exhaust memory; at this bound the frame table costs about 9 MB
# and 0.1 s. At 30 frames a second it allows videos of over 55 minutes.
MAX_FRAME_INDEX = 100_000


def _detection_fields(det: Detection) -> dict:
    """A detection's record fields in file order, without its video."""
    return {
        "frame": det.frame,
        "class": det.class_id,
        "score": float(det.score),
        "box": [float(v) for v in det.box.corners()],
        "track": det.track,
        "provenance": det.provenance,
    }


# Exact types as ``json.loads`` returns them; ``bool`` is no number here.
_JSON_TYPES = {"an integer": {int}, "a number": {int, float}, "a string": {str},
               "an object": {dict}, "a list": {list}}


def _value(obj: dict, key: str, kind: str):
    """``obj[key]``, which must be present and of JSON type ``kind``."""
    try:
        value = obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _box(obj: dict) -> Box:
    corners = _value(obj, "box", "a list")
    if len(corners) != 4 or not set(map(type, corners)) <= _JSON_TYPES["a number"]:
        raise ValueError(f"'box' must be a list of 4 numbers, got {corners!r}")
    return Box(*map(float, corners))


def _parse_detection_fields(obj: dict) -> Detection:
    """Inverse of :func:`_detection_fields`; any malformed field raises ``ValueError``."""
    provenance = obj.get("provenance")
    if provenance not in _PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    frame = _value(obj, "frame", "an integer")
    if frame > MAX_FRAME_INDEX:
        raise ValueError(f"frame {frame} is above the largest frame index {MAX_FRAME_INDEX}")
    return Detection(
        frame=frame,
        class_id=_value(obj, "class", "an integer"),
        score=float(_value(obj, "score", "a number")),
        box=_box(obj),
        track=None if obj.get("track") is None else _value(obj, "track", "an integer"),
        provenance=provenance,
    )


def _json_objects(path):
    """Yield ``(lineno, object)`` for each non-blank line of a JSON-lines file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also integers past Python's digit limit
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {obj!r}")
            yield lineno, obj


def save_detections(sets: VideoDetectionSet | Sequence[VideoDetectionSet], path) -> None:
    """Write one or more videos' detections as JSON lines."""
    if isinstance(sets, VideoDetectionSet):
        sets = [sets]
    with open(path, "w", encoding="utf-8") as fh:
        for vds in sets:
            for frame in vds.frames:
                for det in frame:
                    fh.write(json.dumps({"video": vds.video, **_detection_fields(det)}) + "\n")


def load_detections(path) -> list[VideoDetectionSet]:
    """Read a detection file; videos are returned in order of first appearance."""
    per_video: dict[str, list[Detection]] = {}
    for lineno, obj in _json_objects(path):
        try:
            video, det = _value(obj, "video", "a string"), _parse_detection_fields(obj)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: invalid detection record: {exc}") from exc
        per_video.setdefault(video, []).append(det)
    return [VideoDetectionSet.from_records(v, dets) for v, dets in per_video.items()]


def load_single_video(path) -> VideoDetectionSet:
    """Read a detection file that must contain exactly one video."""
    sets = load_detections(path)
    if len(sets) != 1:
        raise ValueError(f"{path}: expected exactly one video, found {len(sets)}")
    return sets[0]


def save_predictions(preds_per_frame, video: str, path) -> None:
    """Write per-frame track predictions as JSON lines.

    ``preds_per_frame`` is a sequence over frames of prediction lists, each
    aligned by index with the detections they were computed from.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for t, preds in enumerate(preds_per_frame):
            for i, p in enumerate(preds):
                record = {
                    "video": video,
                    "frame": t,
                    "det": i,
                    "box": [float(v) for v in p.predicted_box.corners()],
                    "quality": float(p.quality),
                    "source": _detection_fields(p.source),
                }
                fh.write(json.dumps(record) + "\n")


def load_predictions(path) -> dict[str, dict[int, list]]:
    """Read a prediction file into ``{video: {frame: [(det_index, TrackPrediction)]}}``."""
    from .tracker import TrackPrediction

    out: dict[str, dict[int, list]] = {}
    for lineno, obj in _json_objects(path):
        try:
            pred = TrackPrediction(
                source=_parse_detection_fields(_value(obj, "source", "an object")),
                predicted_box=_box(obj),
                quality=float(_value(obj, "quality", "a number")),
            )
            video = _value(obj, "video", "a string")
            frame, det = _value(obj, "frame", "an integer"), _value(obj, "det", "an integer")
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: invalid prediction record: {exc}") from exc
        out.setdefault(video, {}).setdefault(frame, []).append((det, pred))
    for frames in out.values():
        for preds in frames.values():
            preds.sort(key=lambda item: item[0])
    return out


def align_predictions(vds: VideoDetectionSet, loaded: dict[int, list]) -> list[list]:
    """Expand loaded predictions into per-frame lists aligned with ``vds``.

    Every frame with detections must carry predictions for indices
    ``0..len(frame)-1`` or none at all (missing frames get empty lists).
    """
    aligned: list[list] = []
    for t, frame in enumerate(vds.frames):
        entries = loaded.get(t, [])
        if not entries:
            aligned.append([])
            continue
        indices = [i for i, _ in entries]
        if indices != list(range(len(frame))):
            raise ValueError(
                f"frame {t}: prediction indices {indices} do not cover the "
                f"{len(frame)} detections"
            )
        aligned.append([p for _, p in entries])
    return aligned


_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
# A feature pyramid header's image size and per-level keys, in file order.
_IMAGE_KEYS = ("image_height", "image_width")
_LEVEL_KEYS = ("stride", "channels", "height", "width")


def _write_container(path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write a binary container: the JSON header line, then each array's raw bytes."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for a in arrays:
            fh.write(a.tobytes())


def _read_header(path, fmt: str, what: str) -> tuple[dict, bytes]:
    """Split a binary container into its JSON header object and its payload."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past the digit limit
        raise ValueError(f"{path}: malformed {what} header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: {what} header is not a JSON object")
    if header.get("format") != fmt:
        raise ValueError(f"{path}: not a {what} file")
    return header, payload


def _split_payload(path, payload: bytes, shapes: list, dtype: np.dtype) -> list[np.ndarray]:
    """The payload, which must be exactly the declared size, as float64 arrays of ``shapes``."""
    counts = [math.prod(shape) for shape in shapes]
    expected = sum(counts) * dtype.itemsize
    if len(payload) != expected:
        fault = "truncated" if len(payload) < expected else f"{len(payload) - expected} trailing bytes"
        raise ValueError(
            f"{path}: payload size mismatch: header declares {expected} bytes, "
            f"file has {len(payload)} ({fault})"
        )
    offsets = itertools.accumulate(counts, initial=0)
    return [
        np.frombuffer(payload, dtype, count, offset * dtype.itemsize).reshape(shape).astype(np.float64)
        for shape, count, offset in zip(shapes, counts, offsets)
    ]


def save_features(pyr: FeaturePyramid, path, dtype: str = "<f8") -> None:
    """Write a feature pyramid: JSON header line, then raw level payloads."""
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    header = {"format": "feature-pyramid", "version": 1,
              **dict(zip(_IMAGE_KEYS, (pyr.image_height, pyr.image_width))), "dtype": dtype,
              "levels": [dict(zip(_LEVEL_KEYS, (s, *m.shape))) for s, m in pyr.levels]}
    _write_container(path, header, [np.ascontiguousarray(m, dtype=_DTYPES[dtype]) for _, m in pyr.levels])


def _is_count(value, minimum: int) -> bool:
    return type(value) is int and value >= minimum


def _header_counts(entry, keys: tuple[str, ...], path) -> list[int]:
    """The positive integers stored under ``keys`` in one header object."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: header entry is not a JSON object: {entry!r}")
    for key in keys:
        if not _is_count(entry.get(key), 1):
            raise ValueError(
                f"{path}: header field {key!r} must be a positive integer, got {entry.get(key)!r}"
            )
    return [entry[key] for key in keys]


def load_features(path) -> FeaturePyramid:
    """Read a feature pyramid file, verifying the header and the payload size."""
    header, payload = _read_header(path, "feature-pyramid", "feature pyramid")
    if not header.get("levels"):
        raise ValueError(f"{path}: empty pyramid (no levels declared)")
    if not isinstance(header["levels"], list):
        raise ValueError(f"{path}: 'levels' must be a list")
    dtype = header.get("dtype")
    dtype = _DTYPES.get(dtype) if isinstance(dtype, str) else None
    if dtype is None:
        raise ValueError(f"{path}: unsupported element dtype {header.get('dtype')!r}")
    image_size = _header_counts(header, _IMAGE_KEYS, path)
    levels = [_header_counts(lv, _LEVEL_KEYS, path) for lv in header["levels"]]
    maps = _split_payload(path, payload, [shape for _, *shape in levels], dtype)
    try:
        return FeaturePyramid(tuple(zip([s for s, *_ in levels], maps)), *image_size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_named_arrays(arrays: dict[str, np.ndarray], path) -> None:
    """Write named float64 arrays: JSON header line, then raw payloads in order."""
    items = [(name, np.ascontiguousarray(a, dtype="<f8")) for name, a in arrays.items()]
    header = {
        "format": "named-tensors",
        "version": 1,
        "arrays": [{"name": n, "shape": list(a.shape), "dtype": "<f8"} for n, a in items],
    }
    _write_container(path, header, [a for _, a in items])


def load_named_arrays(path) -> dict[str, np.ndarray]:
    """Read a named-tensor container written by :func:`save_named_arrays`."""
    header, payload = _read_header(path, "named-tensors", "named-tensor")
    if not isinstance(header.get("arrays"), list):
        raise ValueError(f"{path}: header has no 'arrays' list")
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ValueError(f"{path}: array entry without a string 'name': {entry!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and all(_is_count(d, 0) for d in shape)):
            raise ValueError(
                f"{path}: array {entry['name']!r} has a negative or non-integer shape {shape!r}"
            )
        if entry.get("dtype") != "<f8":
            raise ValueError(f"{path}: array {entry['name']!r} is not '<f8': {entry.get('dtype')!r}")
    arrays = _split_payload(path, payload, [e["shape"] for e in header["arrays"]], np.dtype("<f8"))
    return {e["name"]: a for e, a in zip(header["arrays"], arrays)}


@dataclass(frozen=True)
class EvalResult:
    """Per-class average precision and their mean over classes with ground truth."""

    per_class_ap: dict[int, float]
    mean_ap: float
    iou_thresh: float


def _average_precision(matches: list[tuple[float, bool]], n_gt: int) -> float:
    """All-point interpolated AP from (score, is_tp) pairs in ranked order."""
    if n_gt == 0 or not matches:
        return 0.0
    tp = np.cumsum([1.0 if m else 0.0 for _, m in matches])
    fp = np.cumsum([0.0 if m else 1.0 for _, m in matches])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # Precision envelope, then area under it over recall.
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def evaluate_map(
    preds: VideoDetectionSet | Sequence[VideoDetectionSet],
    gt: VideoDetectionSet | Sequence[VideoDetectionSet],
    iou_thresh: float = 0.5,
) -> EvalResult:
    """Mean average precision of predictions against ground truth.

    Predictions are ranked per class by score (ties keep file order) and
    greedily matched to the highest-overlap unmatched ground-truth box in
    the same video and frame at ``iou_thresh`` or better. AP uses all-point
    interpolation; the mean runs over classes with at least one ground-truth
    instance.
    """
    if isinstance(preds, VideoDetectionSet):
        preds = [preds]
    if isinstance(gt, VideoDetectionSet):
        gt = [gt]
    gt_by_video = {v.video: v for v in gt}
    if len(gt_by_video) != len(gt):
        raise ValueError("duplicate video ids in ground truth")
    for p in preds:
        if p.video not in gt_by_video:
            raise ValueError(f"predictions reference unknown video {p.video!r}")

    gt_counts = Counter(det.class_id for v in gt for det in v.all_detections())
    classes = sorted(gt_counts)

    # (video, frame, class) -> list of (gt Detection, matched flag holder)
    gt_index: dict[tuple[str, int, int], list[list]] = {}
    for v in gt:
        for det in v.all_detections():
            gt_index.setdefault((v.video, det.frame, det.class_id), []).append([det, False])

    ranked: dict[int, list[tuple[float, str, Detection]]] = {c: [] for c in classes}
    for v in preds:
        for det in v.all_detections():
            if det.class_id in ranked:
                ranked[det.class_id].append((det.score, v.video, det))

    per_class_ap: dict[int, float] = {}
    for c in classes:
        entries = ranked[c]
        order = sorted(range(len(entries)), key=lambda i: -entries[i][0])
        matches: list[tuple[float, bool]] = []
        for i in order:
            score, video, det = entries[i]
            candidates = gt_index.get((video, det.frame, c), [])
            best_iou = 0.0
            best_slot = None
            for slot in candidates:
                if slot[1]:
                    continue
                v = iou(det.box, slot[0].box)
                if v > best_iou:
                    best_iou, best_slot = v, slot
            if best_slot is not None and best_iou >= iou_thresh:
                best_slot[1] = True
                matches.append((score, True))
            else:
                matches.append((score, False))
        per_class_ap[c] = _average_precision(matches, gt_counts[c])

    mean_ap = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return EvalResult(per_class_ap=per_class_ap, mean_ap=mean_ap, iou_thresh=iou_thresh)
