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

A loaded file is one :class:`VideoDetectionSet` of columns per video,
filled in one pass over the lines; no object is built per record. A line
as the writers write it passes one combined test, and any other line goes
through the field checks one at a time, so a fault names its first bad
field. Class and track ids are int64 columns, so a record's ids must fit
int64. The writers format each line from columns. Columns are the one form
of a record in the package: every stage, the per-frame merge and the track
functions included, reads and writes set columns or their frame slices.

Prediction files are JSON lines, one object per track prediction::

    {"video": "v0", "frame": 3, "det": 0, "box": [x1, y1, x2, y2],
     "quality": 0.87, "source": {"frame": 3, "class": 7, ...}}

``det`` indexes the source detection within its frame. ``source`` is a
detection record without ``video``: it is written from the detection
columns and read by the same code as a detection file's lines. The writer
takes one video's :class:`VideoPredictions` and writes the rows of its
predicted frames. A prediction file is read against the
detections it was computed from: each record's ``source`` must equal the
column values of the detection at its ``(video, frame, det)``, and the
loaded :class:`VideoPredictions` are columns on those detections' rows.
Every loader rejects a malformed line
with a ``ValueError`` naming ``path:line``; a detection frame index above
``MAX_FRAME_INDEX``, a box corner beyond ``geometry.MAX_COORDINATE`` and a
class or track id outside int64 count as malformed; the rules of the record
types (``check_detection``, ``check_quality``, ``check_corners``) hold for
the columns too. Every
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
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .detections import PROVENANCES, check_detection, check_quality
from .geometry import MAX_COORDINATE, check_corners, iou
from .tensor_ops import FeaturePyramid

__all__ = [
    "VideoDetectionSet",
    "VideoPredictions",
    "EvalResult",
    "MAX_FRAME_INDEX",
    "INT64_MIN",
    "INT64_MAX",
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

# Largest frame index a detection record may carry. A loaded video holds one
# entry per frame up to its largest index, so one hostile record could
# otherwise exhaust memory; at this bound the frame table costs about 9 MB
# and 0.1 s. At 30 frames a second it allows videos of over 55 minutes.
MAX_FRAME_INDEX = 100_000

# Track and class ids are held in int64 columns: a loaded id must lie in
# int64's range.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# A set's columns after the frame offsets, in the order its constructor takes them.
_COLUMNS = ("class_id", "score", "boxes", "track", "has_track", "provenance")
_PROVENANCE_CODE = {p: code for code, p in enumerate(PROVENANCES)}


class VideoDetectionSet:
    """All detections of one video as columns, rows grouped by frame (indices contiguous from 0).

    Row ``i`` is one detection: ``class_id[i]``, ``score[i]``, the corners
    ``boxes[i]`` (x1, y1, x2, y2), the track id ``track[i]`` where
    ``has_track[i]`` (a null track holds 0 there) and ``provenance[i]``, an
    index into ``PROVENANCES``. Frame ``t`` is rows ``offsets[t]`` to
    ``offsets[t + 1]``, and iterating a set gives each frame's rows as a
    ``range``. A set read from a file also holds each row's ``lines``
    number; otherwise ``lines`` is ``None``. The constructor takes the
    columns as they are; :meth:`from_rows` builds them from records.
    """

    def __init__(self, video: str, offsets, class_id, score, boxes, track, has_track, provenance,
                 lines=None) -> None:
        self.video, self.offsets, self.lines = video, offsets, lines
        self.class_id, self.score, self.boxes = class_id, score, boxes
        self.track, self.has_track, self.provenance = track, has_track, provenance

    @classmethod
    def from_rows(cls, video: str, rows: Sequence[tuple], n_frames: int | None = None,
                  lines: Sequence[int] | None = None) -> "VideoDetectionSet":
        """A set from rows ``(frame, class, score, x1, y1, x2, y2, track, provenance code)``
        of valid values (the track ``None`` when null), in any frame order.

        ``n_frames`` defaults to one past the largest frame; ``lines``, if
        given, holds each row's line number.
        """
        frame, class_id, score, x1, y1, x2, y2, track, provenance = zip(*rows) if rows else [()] * 9
        frame = np.array(frame, np.int64)
        order = np.argsort(frame, kind="stable")
        counts = np.bincount(frame, minlength=0 if n_frames is None else n_frames)
        columns = [np.array(class_id, np.int64), np.array(score, np.float64),
                   np.array([x1, y1, x2, y2], np.float64).T, np.array([0 if t is None else t for t in track], np.int64),
                   np.array([t is not None for t in track], bool), np.array(provenance, np.int8)]
        if lines is not None:
            columns.append(np.array(lines, np.int64))
        return cls(video, np.concatenate([[0], np.cumsum(counts)]), *(c[order] for c in columns))

    @property
    def n_frames(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(range, bounds[:-1], bounds[1:])

    def rows(self, t: int) -> slice:
        """Frame ``t``'s rows; no rows past the last frame."""
        return slice(*self.offsets[t : t + 2].tolist()) if t < self.n_frames else slice(0, 0)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def frame_index(self) -> np.ndarray:
        """Each row's frame."""
        return np.repeat(np.arange(self.n_frames), np.diff(self.offsets))

    def track_ids(self, rows: slice) -> list[int | None]:
        return [t if h else None for t, h in zip(self.track[rows].tolist(), self.has_track[rows].tolist())]

    def select(self, keep: np.ndarray, score: np.ndarray | None = None) -> "VideoDetectionSet":
        """The rows where ``keep`` is true, in order; scored ``score`` (one per kept row) if given."""
        kept = np.concatenate([[0], np.cumsum(keep)])
        columns = [column[keep] for column in self.columns]
        if score is not None:
            columns[1] = np.asarray(score, np.float64)
        return VideoDetectionSet(self.video, kept[self.offsets], *columns,
                                 None if self.lines is None else self.lines[keep])


class VideoPredictions:
    """One video's track predictions as columns on its detections' rows.

    ``boxes[i]`` (predicted corners) and ``quality[i]`` are predicted from
    row ``i`` of ``dets``. The first ``n_predicted`` frames are predicted:
    every frame, or every frame but the last, whose rows then hold NaN.
    """

    def __init__(self, dets: VideoDetectionSet, boxes: np.ndarray, quality: np.ndarray,
                 n_predicted: int) -> None:
        self.dets, self.boxes, self.quality, self.n_predicted = dets, boxes, quality, n_predicted


# A detection record's fields after ``video``, in file order, and the two
# record lines built on them; each line is the ``json.dumps`` text of its
# record (see the module docstring).
_DETECTION_FIELDS = ('"frame": %d, "class": %d, "score": %r, "box": [%r, %r, %r, %r], '
                     '"track": %s, "provenance": %s')
_DETECTION_LINE = '{"video": %s, ' + _DETECTION_FIELDS + '}\n'
_PREDICTION_LINE = ('{"video": %s, "frame": %d, "det": %d, "box": [%r, %r, %r, %r], '
                    '"quality": %r, "source": {' + _DETECTION_FIELDS + '}}\n')
_PROVENANCE_JSON = tuple(json.dumps(p) for p in PROVENANCES)
# Records the writers format at a time: they hold one block's values as objects.
_BLOCK = 1024


def _field_values(frame, class_id, score, boxes, track, has_track, provenance) -> list[list]:
    """The values of ``_DETECTION_FIELDS`` from record columns, one list per field."""
    return [frame.tolist(), class_id.tolist(), score.tolist(), *boxes.T.tolist(),
            [str(t) if h else "null" for t, h in zip(track.tolist(), has_track.tolist())],
            [_PROVENANCE_JSON[code] for code in provenance.tolist()]]


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


def _corners(obj: dict) -> tuple[float, float, float, float]:
    """``obj``'s ``box``: four numbers within the coordinate bound, of non-negative extent."""
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
    return tuple(check_corners(np.array([corners], np.float64))[0].tolist())


def _written_box(box) -> bool:
    """Whether ``box`` is as the writers write a valid one: a list of 4 floats of
    non-negative extent within the coordinate bound."""
    if type(box) is not list or len(box) != 4:
        return False
    x1, y1, x2, y2 = box
    return (type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float
            and -MAX_COORDINATE <= x1 <= x2 <= MAX_COORDINATE
            and -MAX_COORDINATE <= y1 <= y2 <= MAX_COORDINATE)


def _detection_fields(obj: dict) -> tuple:
    """A detection record's ``(frame, class, score, x1, y1, x2, y2, track, provenance code)``;
    the track is ``None`` when null. A fault raises ``ValueError``.

    A record as the writers write it passes one test. Any other record,
    valid or not, goes through the checks one at a time, which name its
    first fault.
    """
    frame, class_id, score = obj.get("frame"), obj.get("class"), obj.get("score")
    box, track, provenance = obj.get("box"), obj.get("track"), obj.get("provenance")
    if (type(frame) is int and 0 <= frame <= MAX_FRAME_INDEX and type(class_id) is int and class_id >= 0
            and type(score) is float and 0.0 <= score <= 1.0 and _written_box(box)
            and (track is None or type(track) is int) and provenance in PROVENANCES):
        return (frame, class_id, score, *box, track, _PROVENANCE_CODE[provenance])
    frame = _value(obj, "frame", "an integer")
    if frame > MAX_FRAME_INDEX:
        raise ValueError(f"frame {frame} is above the largest frame index {MAX_FRAME_INDEX}")
    class_id = _value(obj, "class", "an integer")
    score = float(_value(obj, "score", "a number"))
    corners = _corners(obj)
    if track is not None and type(track) is not int:
        raise ValueError(f"'track' must be an integer, got {track!r}")
    check_detection(frame, class_id, score, provenance)
    return (frame, class_id, score, *corners, track, _PROVENANCE_CODE[provenance])


def _parse_detection(obj: dict) -> tuple[str, tuple]:
    """A detection record's video and ``_detection_fields``, whose ids must fit int64."""
    video, fields = _value(obj, "video", "a string"), _detection_fields(obj)
    if fields[1] > INT64_MAX:
        raise ValueError(f"class id {fields[1]} is above the largest id {INT64_MAX}")
    if fields[7] is not None and not INT64_MIN <= fields[7] <= INT64_MAX:
        raise ValueError(f"track id {fields[7]} lies outside [{INT64_MIN}, {INT64_MAX}]")
    return video, fields


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
    """Yield ``(line number, parse(obj))`` per non-blank line; what ``parse`` rejects is
    an invalid ``kind`` record."""
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
            yield lineno, record


def save_detections(sets: VideoDetectionSet | Sequence[VideoDetectionSet], path) -> None:
    """Write one or more videos' detections as JSON lines."""
    if isinstance(sets, VideoDetectionSet):
        sets = [sets]
    with open(path, "w", encoding="utf-8") as fh:
        for vds in sets:
            video, frame, columns = repeat(json.dumps(vds.video)), vds.frame_index(), vds.columns
            for start in range(0, len(frame), _BLOCK):
                rows = slice(start, start + _BLOCK)
                values = _field_values(frame[rows], *(column[rows] for column in columns))
                fh.writelines(map(_DETECTION_LINE.__mod__, zip(video, *values)))


def load_detections(path) -> list[VideoDetectionSet]:
    """Read a detection file; videos are returned in order of first appearance."""
    per_video: dict[str, tuple[list, list]] = {}
    video = records = lines = None
    for lineno, (record_video, fields) in _records(path, "detection", _parse_detection):
        if record_video != video:
            video = record_video
            records, lines = per_video.setdefault(video, ([], []))
        records.append(fields)
        lines.append(lineno)
    return [VideoDetectionSet.from_rows(video, rows, lines=lines) for video, (rows, lines) in per_video.items()]


def load_single_video(path) -> VideoDetectionSet:
    """Read a detection file that must contain exactly one video."""
    sets = load_detections(path)
    if len(sets) != 1:
        raise ValueError(f"{path}: expected exactly one video, found {len(sets)}")
    return sets[0]


def save_predictions(preds: VideoPredictions, path) -> None:
    """Write one video's track predictions as JSON lines, row by row over its predicted frames."""
    dets, n = preds.dets, int(preds.dets.offsets[preds.n_predicted])
    frame = dets.frame_index()[:n]
    index = np.arange(n) - dets.offsets[frame]
    video = repeat(json.dumps(dets.video))
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, n, _BLOCK):
            rows = slice(start, min(start + _BLOCK, n))
            sources = _field_values(frame[rows], *(column[rows] for column in dets.columns))
            fh.writelines(map(_PREDICTION_LINE.__mod__, zip(
                video, frame[rows].tolist(), index[rows].tolist(), *preds.boxes[rows].T.tolist(),
                preds.quality[rows].tolist(), *sources)))


def load_predictions(path, sets: Sequence[VideoDetectionSet]) -> dict[str, VideoPredictions]:
    """Read a prediction file into ``{video: VideoPredictions}`` on ``sets``' rows.

    Each record's ``(video, frame, det)`` names a detection of ``sets`` at
    most once and its ``source`` must equal that detection's columns. Every
    frame but a video's last holds one prediction per detection; the last
    may hold none. A fault names ``path``.
    """
    by_video = {vds.video: vds for vds in sets}
    seen = {vds.video: bytearray(len(vds.score)) for vds in sets}
    loaded: dict[str, list] = {video: [] for video in by_video}
    # Per video: its frame offsets and each row's _detection_fields, made on first use.
    fields: dict[str, tuple[list, list]] = {}

    def detection_fields(video: str) -> tuple[list, list]:
        if video not in fields:
            vds = by_video[video]
            fields[video] = (vds.offsets.tolist(), list(zip(
                vds.frame_index().tolist(), vds.class_id.tolist(), vds.score.tolist(),
                *vds.boxes.T.tolist(), vds.track_ids(slice(None)), vds.provenance.tolist())))
        return fields[video]

    def parse(obj: dict) -> None:
        video, t, i = obj.get("video"), obj.get("frame"), obj.get("det")
        box, quality, source = obj.get("box"), obj.get("quality"), obj.get("source")
        if not (type(video) is str and type(t) is int and type(i) is int and _written_box(box)
                and type(quality) is float and type(source) is dict):
            video, t, i = (_value(obj, "video", "a string"), _value(obj, "frame", "an integer"),
                           _value(obj, "det", "an integer"))
            box, quality = _corners(obj), float(_value(obj, "quality", "a number"))
            source = _value(obj, "source", "an object")
        source = _detection_fields(source)
        if video not in by_video:
            raise ValueError(f"video {video!r} is not in the detections")
        bounds, rows = detection_fields(video)
        if not (0 <= t < len(bounds) - 1 and 0 <= i < bounds[t + 1] - bounds[t]):
            raise ValueError(f"video {video!r} has no detection {i} in frame {t}")
        row = bounds[t] + i
        if source != rows[row]:
            raise ValueError(f"'source' differs from detection {i} of video {video!r} frame {t}")
        if seen[video][row]:
            raise ValueError(f"detection {i} of video {video!r} frame {t} is predicted twice")
        check_quality(quality)
        seen[video][row] = 1
        loaded[video].append((row, *box, quality))

    for _ in _records(path, "prediction", parse):
        pass
    out = {}
    for video, vds in by_video.items():
        offsets, n = vds.offsets, vds.n_frames
        predicted = np.frombuffer(seen[video], np.uint8).astype(bool)
        n_predicted = n - 1 if n and not predicted[offsets[-2]:].any() else n
        missing = np.flatnonzero(~predicted[: offsets[n_predicted]])
        if len(missing):
            t = int(np.searchsorted(offsets, missing[0], "right")) - 1
            raise ValueError(f"{path}: video {video!r} frame {t}: no prediction for detection "
                             f"{missing[0] - offsets[t]} of {offsets[t + 1] - offsets[t]}")
        values = np.reshape(loaded[video], (-1, 6))
        boxes, quality = np.full((len(vds.score), 4), np.nan), np.full(len(vds.score), np.nan)
        rows = values[:, 0].astype(np.intp)
        boxes[rows], quality[rows] = values[:, 1:5], values[:, 5]
        out[video] = VideoPredictions(vds, boxes, quality, n_predicted)
    return out


_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
# A feature pyramid header's image size and per-level keys, in file order.
_IMAGE_KEYS = ("image_height", "image_width")
_LEVEL_KEYS = ("stride", "channels", "height", "width")


def _write_container(path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write a binary container: the JSON header line, then each C-contiguous array's buffer, uncopied."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for a in arrays:
            fh.write(a.data)


def _read_header(path, fmt: str, what: str) -> tuple[dict, np.ndarray]:
    """Split a binary container into its JSON header object and its payload.

    The payload is read in one call straight into one byte array, which the
    loaded arrays then view: its bytes are copied once, from the file, and
    keeping any one loaded array keeps the whole payload in memory.
    """
    with open(path, "rb") as fh:
        header = read_json_object(fh.readline(), path, f"{what} header")
        if header.get("format") != fmt:
            raise ValueError(f"{path}: not a {what} file")
        payload = np.empty(max(os.fstat(fh.fileno()).st_size - fh.tell(), 0), dtype=np.uint8)
        return header, payload[: fh.readinto(payload)]


def _split_payload(path, payload: np.ndarray, shapes: list, dtype: np.dtype) -> list[np.ndarray]:
    """The payload, which must be exactly the declared size, as float64 arrays of ``shapes``.

    Little-endian float64 arrays are views of the payload; float32 ones are widened copies.
    """
    counts = [math.prod(shape) for shape in shapes]
    expected = sum(counts) * dtype.itemsize
    if len(payload) != expected:
        fault = "truncated" if len(payload) < expected else f"{len(payload) - expected} trailing bytes"
        raise ValueError(
            f"{path}: payload size mismatch: header declares {expected} bytes, "
            f"file has {len(payload)} ({fault})"
        )
    starts = itertools.accumulate([count * dtype.itemsize for count in counts], initial=0)
    return [
        payload[start : start + count * dtype.itemsize].view(dtype).reshape(shape).astype(np.float64, copy=False)
        for shape, count, start in zip(shapes, counts, starts)
    ]


def save_features(pyr: FeaturePyramid, path, dtype: str = "<f8") -> None:
    """Write a feature pyramid: JSON header line, then each ``(H, W, C)`` map as a ``(C, H, W)`` payload."""
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    payloads = [np.ascontiguousarray(m.transpose(2, 0, 1), dtype=_DTYPES[dtype]) for _, m in pyr.levels]
    header = {"format": "feature-pyramid", "version": 1,
              **dict(zip(_IMAGE_KEYS, (pyr.image_height, pyr.image_width))), "dtype": dtype,
              "levels": [dict(zip(_LEVEL_KEYS, (s, *p.shape))) for (s, _), p in zip(pyr.levels, payloads)]}
    _write_container(path, header, payloads)


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
    """Read a feature pyramid file of ``(C, H, W)`` payloads as ``(H, W, C)`` maps, checking its sizes."""
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
    maps = [m.transpose(1, 2, 0) for m in _split_payload(path, payload, [shape for _, *shape in levels], dtype)]
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


def _average_precision(hits: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP from the hits of ranked predictions."""
    if n_gt == 0 or not len(hits):
        return 0.0
    tp = np.cumsum(hits, dtype=np.float64)
    # Area under the precision envelope over recall. ``cumsum`` adds the terms
    # one at a time in rank order (``np.sum`` would pair them), as a loop would.
    envelope = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    return float(np.cumsum(np.diff(tp / n_gt, prepend=0.0) * envelope)[-1])


def _greedy_hits(overlaps: np.ndarray, order: list[int], iou_thresh: float) -> list[bool]:
    """Whether each row, visited in ``order``, takes the first untaken column of its
    largest positive overlap, at ``iou_thresh`` or better."""
    rows, cols = np.nonzero(overlaps > 0.0)
    candidates: dict[int, list[tuple[int, float]]] = {}
    for i, j, overlap in zip(rows.tolist(), cols.tolist(), overlaps[rows, cols].tolist()):
        candidates.setdefault(i, []).append((j, overlap))
    taken, hits = set(), []
    for i in order:
        best_iou, best_j = 0.0, None
        for j, overlap in candidates.get(i, ()):
            if overlap > best_iou and j not in taken:
                best_iou, best_j = overlap, j
        hit = best_j is not None and best_iou >= iou_thresh
        if hit:
            taken.add(best_j)
        hits.append(hit)
    return hits


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
    Both are read as columns, one frame's slices at a time.
    """
    if isinstance(preds, VideoDetectionSet):
        preds = [preds]
    if isinstance(gt, VideoDetectionSet):
        gt = [gt]
    for sets, what in ((gt, "ground truth"), (preds, "predictions")):
        if len({v.video for v in sets}) != len(sets):
            raise ValueError(f"duplicate video ids in {what}")
    gt_by_video = {v.video: v for v in gt}
    classes, counts = np.unique(np.concatenate([np.zeros(0, np.int64), *(v.class_id for v in gt)]),
                                return_counts=True)
    # Per matched frame, in rank order: class, score and hit of each prediction.
    # Each frame is matched on its own overlap matrix, zero between classes.
    ranked = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool))]
    for p in preds:
        if p.video not in gt_by_video:
            raise ValueError(f"predictions reference unknown video {p.video!r}")
        truth = gt_by_video[p.video]
        known = np.isin(p.class_id, classes)
        for t, frame in enumerate(p):
            rows = np.flatnonzero(known[frame.start : frame.stop]) + frame.start
            if not len(rows):
                continue
            g = truth.rows(t)
            class_id, score = p.class_id[rows], p.score[rows]
            overlaps = iou(p.boxes[rows], truth.boxes[g])
            overlaps[class_id[:, None] != truth.class_id[g]] = 0.0
            order = np.argsort(-score, kind="stable")
            ranked.append((class_id[order], score[order], _greedy_hits(overlaps, order.tolist(), iou_thresh)))

    class_id, score, hits = (np.concatenate(column) for column in zip(*ranked))
    per_class_ap = {}
    for c, n_gt in zip(classes.tolist(), counts.tolist()):
        rows = np.flatnonzero(class_id == c)
        per_class_ap[c] = _average_precision(hits[rows[np.argsort(-score[rows], kind="stable")]], n_gt)
    mean_ap = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return EvalResult(per_class_ap=per_class_ap, mean_ap=mean_ap, iou_thresh=iou_thresh)
