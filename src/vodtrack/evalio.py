"""Detection, prediction, feature, and weight file formats plus the mAP evaluator.

Detection files are JSON lines, one object per detection::

    {"video": "v0", "frame": 3, "class": 7, "score": 0.91,
     "box": [x1, y1, x2, y2], "track": 4, "provenance": "detected"}

``track`` and ``provenance`` may be null; ``provenance`` is otherwise
``"detected"`` or ``"tracked"``. Keys are written in the order above with
repr-exact floats, so saving a loaded file reproduces it byte for byte.
The writers fill one ``%``-format string per line instead of calling
``json.dumps`` on a dict: ``json.dumps`` writes a finite float as its
``repr`` (and every stored float is finite), an int as ``%d`` and a string
escaped, so the text is the same and the video id is escaped once per video.

Prediction files are JSON lines, one object per track prediction::

    {"video": "v0", "frame": 3, "det": 0, "box": [x1, y1, x2, y2],
     "quality": 0.87, "source": {"frame": 3, "class": 7, ...}}

``det`` indexes the source detection within its frame. ``source`` is a
detection record without ``video``: it is written and read by the same
code as a detection file's lines. A prediction file is read against the
detections it was computed from: each record's ``source`` must equal the
detection at its ``(video, frame, det)``, and the loaded prediction holds
that detection itself. Every loader rejects a malformed line
with a ``ValueError`` naming ``path:line``; a detection frame index above
``MAX_FRAME_INDEX`` and a box corner beyond ``geometry.MAX_COORDINATE``
count as malformed; the record types check the values they hold. Every
JSON text the package reads, these lines and the headers below included,
is decoded by :func:`read_json_object`, which names the file (and line).

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

from .detections import PROVENANCES, Detection, TrackPrediction
from .geometry import MAX_COORDINATE, Box, iou
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
    "read_json_object",
    "write_json_object",
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


# Largest frame index a detection record may carry. A loaded video holds one
# entry per frame up to its largest index, so one hostile record could
# otherwise exhaust memory; at this bound the frame table costs about 9 MB
# and 0.1 s. At 30 frames a second it allows videos of over 55 minutes.
MAX_FRAME_INDEX = 100_000


# A detection record's fields after ``video``, in file order, and the two
# record lines built on them; each line is the ``json.dumps`` text of its
# record (see the module docstring).
_DETECTION_FIELDS = ('"frame": %d, "class": %d, "score": %r, "box": [%r, %r, %r, %r], '
                     '"track": %s, "provenance": %s')
_DETECTION_LINE = '{"video": %s, ' + _DETECTION_FIELDS + '}\n'
_PREDICTION_LINE = ('{"video": %s, "frame": %d, "det": %d, "box": [%r, %r, %r, %r], '
                    '"quality": %r, "source": {' + _DETECTION_FIELDS + '}}\n')
_PROVENANCE_JSON = {p: json.dumps(p) for p in PROVENANCES}


def _detection_values(det: Detection) -> tuple:
    """A detection's values for ``_DETECTION_FIELDS``."""
    b, track = det.box, det.track
    return (det.frame, det.class_id, float(det.score),
            float(b.x1), float(b.y1), float(b.x2), float(b.y2),
            "null" if track is None else "%d" % track,
            _PROVENANCE_JSON[det.provenance])


# Exact types as ``json.loads`` returns them; ``bool`` is no number here.
_NUMBER = (int, float)
_JSON_TYPES = {"an integer": (int,), "a number": _NUMBER, "a string": (str,),
               "an object": (dict,), "a list": (list,)}


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
    if len(corners) != 4:
        raise ValueError(f"'box' must be a list of 4 numbers, got {corners!r}")
    x1, y1, x2, y2 = corners
    if not (type(x1) in _NUMBER and type(y1) in _NUMBER and type(x2) in _NUMBER
            and type(y2) in _NUMBER):
        raise ValueError(f"'box' must be a list of 4 numbers, got {corners!r}")
    if not (abs(x1) <= MAX_COORDINATE and abs(y1) <= MAX_COORDINATE
            and abs(x2) <= MAX_COORDINATE and abs(y2) <= MAX_COORDINATE):
        raise ValueError(f"'box' corners must lie within ±2**53, got {corners!r}")
    return Box(float(x1), float(y1), float(x2), float(y2))


def _parse_detection_fields(obj: dict) -> Detection:
    """A detection from its record fields; a fault raises ``ValueError``."""
    frame = _value(obj, "frame", "an integer")
    if frame > MAX_FRAME_INDEX:
        raise ValueError(f"frame {frame} is above the largest frame index {MAX_FRAME_INDEX}")
    class_id = _value(obj, "class", "an integer")
    score = float(_value(obj, "score", "a number"))
    box = _box(obj)
    track = obj.get("track")
    if track is not None and type(track) is not int:
        raise ValueError(f"'track' must be an integer, got {track!r}")
    return Detection(frame, class_id, score, box, track, obj.get("provenance"))


def _parse_detection(obj: dict) -> tuple[str, Detection]:
    """A detection record's video and detection."""
    return _value(obj, "video", "a string"), _parse_detection_fields(obj)


def read_json_object(data: bytes, where, what: str) -> dict:
    """UTF-8 ``data`` as one JSON object; a fault raises ``ValueError`` naming ``where``.

    Bad UTF-8 or JSON, an integer past Python's digit limit and nesting too
    deep for the decoder are ``malformed <what>``.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: malformed {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: {what} is not a JSON object")
    return obj


def write_json_object(obj: dict, path) -> None:
    """Write ``obj`` to ``path`` as indent-2 JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ``json.loads`` less its per-call wrapper, which costs about as much as the
# scan of a record: the decoder's scanner returns a value and where it ends.
_scan_json = json.JSONDecoder().scan_once


def _records(path, kind: str, parse):
    """Yield ``parse(obj)`` per non-blank line; what ``parse`` rejects is an invalid ``kind`` record."""
    # Bad UTF-8 reads as lone surrogates, which valid UTF-8 never decodes
    # to; a line that is not plain ASCII goes to the reader as its bytes.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan_json(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line) or type(obj) is not dict or not line.isascii():
                obj = read_json_object(line.encode("utf-8", "surrogateescape"), f"{path}:{lineno}",
                                       "JSON line")
            try:
                record = parse(obj)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid {kind} record: {exc}") from exc
            yield record


def save_detections(sets: VideoDetectionSet | Sequence[VideoDetectionSet], path) -> None:
    """Write one or more videos' detections as JSON lines."""
    if isinstance(sets, VideoDetectionSet):
        sets = [sets]
    with open(path, "w", encoding="utf-8") as fh:
        for vds in sets:
            video = json.dumps(vds.video)
            fh.writelines(_DETECTION_LINE % (video, *_detection_values(det))
                          for frame in vds.frames for det in frame)


def load_detections(path) -> list[VideoDetectionSet]:
    """Read a detection file; videos are returned in order of first appearance."""
    per_video: dict[str, list[Detection]] = {}
    for video, det in _records(path, "detection", _parse_detection):
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
    video = json.dumps(video)
    with open(path, "w", encoding="utf-8") as fh:
        for t, preds in enumerate(preds_per_frame):
            for i, p in enumerate(preds):
                b = p.predicted_box
                fh.write(_PREDICTION_LINE % (video, t, i, float(b.x1), float(b.y1), float(b.x2),
                                             float(b.y2), float(p.quality),
                                             *_detection_values(p.source)))


def load_predictions(path, sets: Sequence[VideoDetectionSet]) -> dict[str, list[list[TrackPrediction]]]:
    """Read a prediction file into ``{video: per-frame lists}``, aligned with ``sets``' frames.

    Each record's ``(video, frame, det)`` names a detection of ``sets`` at
    most once, its ``source`` must equal that detection, and the prediction
    is built on that detection. Every frame but a video's last holds one
    prediction per detection; the last may hold none. A fault names ``path``.
    """
    frames = {vds.video: vds.frames for vds in sets}
    out = {vds.video: [[None] * len(frame) for frame in vds.frames] for vds in sets}

    def parse(obj: dict) -> None:
        video, t, i = (_value(obj, "video", "a string"), _value(obj, "frame", "an integer"),
                       _value(obj, "det", "an integer"))
        box, quality = _box(obj), float(_value(obj, "quality", "a number"))
        source = _parse_detection_fields(_value(obj, "source", "an object"))
        if video not in frames:
            raise ValueError(f"video {video!r} is not in the detections")
        if not (0 <= t < len(frames[video]) and 0 <= i < len(frames[video][t])):
            raise ValueError(f"video {video!r} has no detection {i} in frame {t}")
        det, slots = frames[video][t][i], out[video][t]
        if source != det:
            raise ValueError(f"'source' differs from detection {i} of video {video!r} frame {t}")
        if slots[i] is not None:
            raise ValueError(f"detection {i} of video {video!r} frame {t} is predicted twice")
        slots[i] = TrackPrediction(det, box, quality)

    for _ in _records(path, "prediction", parse):
        pass
    for video, preds in out.items():
        if preds and not any(preds[-1]):
            preds[-1] = []
        for t, slots in enumerate(preds):
            if None in slots:
                raise ValueError(f"{path}: video {video!r} frame {t}: no prediction for detection "
                                 f"{slots.index(None)} of {len(slots)}")
    return out


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
        header = read_json_object(fh.readline(), path, f"{what} header")
        payload = fh.read()
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


def _average_precision(hits: Sequence[bool], n_gt: int) -> float:
    """All-point interpolated AP from the hits of ranked predictions."""
    if n_gt == 0 or not hits:
        return 0.0
    tp = np.cumsum(hits, dtype=np.float64)
    # Area under the precision envelope over recall. ``cumsum`` adds the terms
    # one at a time in rank order (``np.sum`` would pair them), as a loop would.
    envelope = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    return float(np.cumsum(np.diff(tp / n_gt, prepend=0.0) * envelope)[-1])


def evaluate_map(
    preds: VideoDetectionSet | Sequence[VideoDetectionSet],
    gt: VideoDetectionSet | Sequence[VideoDetectionSet],
    iou_thresh: float = 0.5,
) -> EvalResult:
    """Mean average precision of predictions against ground truth.

    Predictions are ranked per class by score (ties keep file order) and
    greedily matched to the highest-overlap unmatched ground-truth box of
    their class in the same video and frame (the first such box on a tie),
    at ``iou_thresh`` or better. AP uses all-point
    interpolation; the mean runs over classes with at least one ground-truth
    instance. Predictions and ground truth each name a video once at most.
    """
    if isinstance(preds, VideoDetectionSet):
        preds = [preds]
    if isinstance(gt, VideoDetectionSet):
        gt = [gt]
    for sets, what in ((gt, "ground truth"), (preds, "predictions")):
        if len({v.video for v in sets}) != len(sets):
            raise ValueError(f"duplicate video ids in {what}")
    gt_by_video = {v.video: v for v in gt}
    gt_counts = Counter(det.class_id for v in gt for det in v.all_detections())
    ranked: dict[int, list[tuple[float, bool]]] = {c: [] for c in gt_counts}
    # Greedy matching per (video, frame, class): in descending score order (ties
    # keep file order) each prediction takes the first unmatched box of largest
    # positive overlap. Each frame is matched on its own overlap matrix.
    for p in preds:
        if p.video not in gt_by_video:
            raise ValueError(f"predictions reference unknown video {p.video!r}")
        truth_frames = gt_by_video[p.video].frames
        for t, frame in enumerate(p.frames):
            dets = [det for det in frame if det.class_id in gt_counts]
            if not dets:
                continue
            truth = truth_frames[t] if t < len(truth_frames) else ()
            overlaps = iou([det.box for det in dets], [g.box for g in truth])
            columns: dict[int, list[int]] = {}
            for j, g in enumerate(truth):
                columns.setdefault(g.class_id, []).append(j)
            taken = [False] * len(truth)
            for det, row in sorted(zip(dets, overlaps), key=lambda pair: -pair[0].score):
                cols = columns.get(det.class_id, [])
                best_iou, best_j = 0.0, None
                for j, overlap in zip(cols, row[cols].tolist()):
                    if overlap > best_iou and not taken[j]:
                        best_iou, best_j = overlap, j
                hit = best_j is not None and best_iou >= iou_thresh
                if hit:
                    taken[best_j] = True
                ranked[det.class_id].append((det.score, hit))

    per_class_ap = {c: _average_precision([hit for _, hit in sorted(ranked[c], key=lambda m: -m[0])], gt_counts[c])
                    for c in sorted(gt_counts)}
    mean_ap = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return EvalResult(per_class_ap=per_class_ap, mean_ap=mean_ap, iou_thresh=iou_thresh)
