"""Seeded synthetic video scenarios: ground truth, degraded detections, features.

Objects follow a linear motion model with per-frame multiplicative scaling.
Detector degradation is modeled purely as score attenuation inside per-object
frame windows (appearance deteriorates, geometry persists), plus box jitter,
missed detections, false positives, and optional misclassification.

Presets cover the regimes the pipeline variants are meant to separate:
``clean`` (noiseless), ``degraded`` (slow motion, score dips, adjacent
birth), and ``fast`` (displacement above object size, so consecutive-frame
boxes never overlap).
"""

from __future__ import annotations

import functools
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .detections import PROVENANCE_DETECTED, PROVENANCES
from .evalio import _JSON_TYPES, MAX_FRAME_INDEX, VideoDetectionSet, read_json_object, write_json_object
from .geometry import MAX_COORDINATE, Box
from .tensor_ops import FeaturePyramid

__all__ = [
    "ObjectSpec",
    "DetectorNoise",
    "ScenarioSpec",
    "generate",
    "render_features",
    "preset_scenario",
    "save_scenario",
    "load_scenario",
    "PRESETS",
]


@dataclass(frozen=True)
class ObjectSpec:
    """One object's class, lifetime, motion, and score-degradation windows."""

    class_id: int
    first_frame: int
    last_frame: int  # inclusive
    cx: float
    cy: float
    w: float
    h: float
    vx: float = 0.0
    vy: float = 0.0
    scale_rate: float = 1.0
    # (start, end) frame ranges (end exclusive) where the detector score is
    # multiplied by the factor in (0, 1).
    degradations: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class id must be non-negative, got {self.class_id}")
        if self.first_frame < 0 or self.last_frame < self.first_frame:
            raise ValueError("object lifetime must be a non-empty frame range")
        if self.w <= 0 or self.h <= 0 or self.scale_rate <= 0:
            raise ValueError("object size and scale rate must be positive")
        for start, end, factor in self.degradations:
            if end <= start:
                raise ValueError("degradation window must be non-empty")
            if not (0.0 < factor < 1.0):
                raise ValueError(f"degradation factor must be in (0, 1), got {factor}")
        object.__setattr__(
            self, "degradations", tuple((int(s), int(e), float(f)) for s, e, f in self.degradations)
        )
        # Center and size change monotonically with the frame, so the two ends
        # of the lifetime bound the box over all of it.
        for dt in (0, self.last_frame - self.first_frame):
            try:
                cx, cy, w, h = self._center_size(dt)
            except OverflowError:  # scale_rate**dt is past the float range
                cx = cy = w = h = math.inf
            if not (abs(cx) + w / 2.0 <= MAX_COORDINATE and abs(cy) + h / 2.0 <= MAX_COORDINATE):
                raise ValueError(
                    f"object motion leaves the coordinate range ±2**53 by frame {self.first_frame + dt}"
                )

    def alive(self, frame: int) -> bool:
        return self.first_frame <= frame <= self.last_frame

    def _center_size(self, dt: int) -> tuple[float, float, float, float]:
        scale = self.scale_rate**dt
        return self.cx + self.vx * dt, self.cy + self.vy * dt, self.w * scale, self.h * scale

    def box_at(self, frame: int) -> Box:
        return Box.from_center(*self._center_size(frame - self.first_frame))

    def score_factor(self, frame: int) -> float:
        factor = 1.0
        for start, end, f in self.degradations:
            if start <= frame < end:
                factor *= f
        return factor


@dataclass(frozen=True)
class DetectorNoise:
    """Detector imperfection model applied on top of ground truth."""

    box_sigma: float = 0.0
    miss_prob: float = 0.0
    false_positive_rate: float = 0.0  # expected count per frame (Poisson)
    misclass_prob: float = 0.0
    fp_score_low: float = 0.05
    fp_score_high: float = 0.5

    def __post_init__(self) -> None:
        if self.box_sigma < 0:
            raise ValueError("box_sigma must be non-negative")
        for name in ("miss_prob", "misclass_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.false_positive_rate < 0:
            raise ValueError("false_positive_rate must be non-negative")
        if not (0.0 <= self.fp_score_low <= self.fp_score_high <= 1.0):
            raise ValueError("false-positive score range must be ordered within [0, 1]")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete seeded scene: geometry, degradation, and detector noise."""

    width: int
    height: int
    n_frames: int
    objects: tuple[ObjectSpec, ...]
    noise: DetectorNoise = DetectorNoise()
    seed: int = 0
    video: str = "scene"
    feature_channels: int = 8
    feature_strides: tuple[int, ...] = (8,)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.n_frames < 1:
            raise ValueError("image size and frame count must be positive")
        if self.n_frames > MAX_FRAME_INDEX + 1:
            raise ValueError(f"n_frames must be at most {MAX_FRAME_INDEX + 1}, got {self.n_frames}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.feature_channels < 1 or not self.feature_strides or min(self.feature_strides) < 1:
            raise ValueError("feature settings must be positive/non-empty")
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "feature_strides", tuple(int(s) for s in self.feature_strides))
        for obj in self.objects:
            if obj.last_frame >= self.n_frames:
                raise ValueError(
                    f"object lifetime [{obj.first_frame}, {obj.last_frame}] exceeds "
                    f"{self.n_frames} frames"
                )


def _repair_extent(lo: float, hi: float, min_size: float = 0.5) -> tuple[float, float]:
    if hi - lo >= min_size:
        return lo, hi
    mid = (lo + hi) / 2.0
    return mid - min_size / 2.0, mid + min_size / 2.0


def generate(spec: ScenarioSpec) -> tuple[VideoDetectionSet, VideoDetectionSet]:
    """Produce (ground truth with track ids, degraded detector output).

    Deterministic for a fixed spec; ground truth follows the motion model
    exactly and is never altered by the noise model.
    """
    rng = np.random.default_rng(spec.seed)
    pool = sorted({o.class_id for o in spec.objects})
    detected = PROVENANCES.index(PROVENANCE_DETECTED)

    # Rows of the two sets' columns, as ``VideoDetectionSet.from_rows`` takes them.
    gt_rows: list[tuple] = []
    det_rows: list[tuple] = []
    for frame in range(spec.n_frames):
        for track_id, obj in enumerate(spec.objects):
            if not obj.alive(frame):
                continue
            box = obj.box_at(frame)
            gt_rows.append((frame, obj.class_id, 1.0, *box.corners(), track_id, 0))

            if rng.uniform() < spec.noise.miss_prob:
                continue
            jitter = rng.normal(0.0, spec.noise.box_sigma, size=4) if spec.noise.box_sigma > 0 else np.zeros(4)
            x1, x2 = _repair_extent(box.x1 + jitter[0], box.x2 + jitter[2])
            y1, y2 = _repair_extent(box.y1 + jitter[1], box.y2 + jitter[3])
            class_id = obj.class_id
            if spec.noise.misclass_prob > 0 and rng.uniform() < spec.noise.misclass_prob:
                others = [c for c in pool if c != obj.class_id]
                if others:
                    class_id = others[rng.integers(len(others))]
            det_rows.append((frame, class_id, obj.score_factor(frame), *Box(x1, y1, x2, y2).corners(), None,
                             detected))

        if spec.noise.false_positive_rate > 0:
            for _ in range(rng.poisson(spec.noise.false_positive_rate)):
                fw = rng.uniform(0.05, 0.15) * min(spec.width, spec.height)
                fh = rng.uniform(0.05, 0.15) * min(spec.width, spec.height)
                fcx = rng.uniform(fw / 2, spec.width - fw / 2)
                fcy = rng.uniform(fh / 2, spec.height - fh / 2)
                class_id = pool[rng.integers(len(pool))] if pool else 0
                score = rng.uniform(spec.noise.fp_score_low, spec.noise.fp_score_high)
                det_rows.append((frame, class_id, score, *Box.from_center(fcx, fcy, fw, fh).corners(), None,
                                 detected))

    return (VideoDetectionSet.from_rows(spec.video, gt_rows, spec.n_frames),
            VideoDetectionSet.from_rows(spec.video, det_rows, spec.n_frames))


def render_features(spec: ScenarioSpec, frame: int) -> FeaturePyramid:
    """Feature pyramid with a Gaussian blob per object over seeded background noise.

    Object ``i`` writes channel ``i % feature_channels``; the blob peak sits
    at the object center divided by the level stride, so motion translates
    the pattern by exactly ``v / stride`` cells per frame. Noise is drawn
    channel-major, ``(C, H, W)``; each map is returned as its ``(H, W, C)`` view.
    """
    if not (0 <= frame < spec.n_frames):
        raise ValueError(f"frame {frame} out of range [0, {spec.n_frames})")
    levels = []
    for stride in spec.feature_strides:
        h = -(-spec.height // stride)
        w = -(-spec.width // stride)
        rng = np.random.default_rng([spec.seed, stride, frame])
        fmap = rng.uniform(0.0, 0.02, size=(spec.feature_channels, h, w))
        ys = np.arange(h)[:, None]
        xs = np.arange(w)[None, :]
        for i, obj in enumerate(spec.objects):
            if not obj.alive(frame):
                continue
            box = obj.box_at(frame)
            cx, cy = box.cx / stride, box.cy / stride
            sx = max(box.w / stride / 3.0, 0.5)
            sy = max(box.h / stride / 3.0, 0.5)
            blob = np.exp(-(((xs - cx) / sx) ** 2 + ((ys - cy) / sy) ** 2) / 2.0)
            fmap[i % spec.feature_channels] += blob
        levels.append((stride, fmap.transpose(1, 2, 0)))
    return FeaturePyramid(tuple(levels), spec.height, spec.width)


# The JSON kind a field of each type takes; ``evalio._JSON_TYPES`` holds each
# kind's exact types. A number must also convert to a finite float.
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _at(where: str, message: str) -> str:
    return f"{where}: {message}" if where else message


@functools.cache
def _field_types(cls) -> dict:
    """``cls``'s fields by name: their type, and whether they have no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _from_json(value, hint, where: str = ""):
    """``value`` as a field of type ``hint``: a number or a string as it is, a tuple
    from a list, and a dataclass from an object holding its fields by name
    (omitted ones take their defaults, unknown keys are rejected)."""
    if hint in _KINDS:
        kind = _KINDS[hint]
        if type(value) not in _JSON_TYPES[kind] or (hint is not str and not abs(value) <= sys.float_info.max):
            raise ValueError(_at(where, f"expected {kind}, got {value!r}"))
        return value
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if type(value) is list and args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if type(value) is not list or len(value) != len(args):
            raise ValueError(_at(where, f"expected a list for {hint}, got {value!r}"))
        return tuple(_from_json(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if type(value) is not dict:
        raise ValueError(_at(where, f"expected an object, got {value!r}"))
    declared = _field_types(hint)
    if value.keys() - declared:
        raise ValueError(_at(where, f"unknown keys {sorted(value.keys() - declared)}"))
    missing = [name for name, (_, required) in declared.items() if required and name not in value]
    if missing:
        raise ValueError(_at(where, f"missing keys {missing}"))
    values = {key: _from_json(v, declared[key][0], f"{where}.{key}" if where else key)
              for key, v in value.items()}
    try:
        return hint(**values)
    except ValueError as exc:
        raise ValueError(_at(where, str(exc))) from None


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario spec as editable JSON: each dataclass's fields by name."""
    write_json_object(asdict(spec), path)


def load_scenario(path) -> ScenarioSpec:
    """Read a scenario spec written by :func:`save_scenario` (or by hand).

    Any malformed spec raises a ``ValueError`` that names ``path``.
    """
    with open(path, "rb") as fh:
        data = read_json_object(fh.read(), path, "scenario spec")
    try:
        return _from_json(data, ScenarioSpec)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid scenario spec: {exc}") from exc


def _clean_scenario(seed: int) -> ScenarioSpec:
    objects = (
        ObjectSpec(class_id=0, first_frame=0, last_frame=47, cx=50, cy=50, w=36, h=30, vx=1.1, vy=0.6),
        ObjectSpec(class_id=1, first_frame=0, last_frame=47, cx=200, cy=60, w=30, h=40, vx=-0.8, vy=0.9),
        ObjectSpec(class_id=2, first_frame=8, last_frame=40, cx=70, cy=190, w=44, h=34, vx=1.0, vy=-0.7),
    )
    return ScenarioSpec(
        width=256, height=256, n_frames=48, objects=objects, seed=seed,
        video=f"clean-{seed}",
    )


def _degraded_scenario(seed: int) -> ScenarioSpec:
    rng = np.random.default_rng([seed, 417])
    j = lambda a, b: float(rng.uniform(a, b))

    base = ObjectSpec(
        class_id=0, first_frame=0, last_frame=63,
        cx=60 + j(-6, 6), cy=70 + j(-6, 6), w=40 + j(-4, 4), h=34 + j(-4, 4),
        vx=1.2 + j(-0.2, 0.2), vy=0.8 + j(-0.2, 0.2),
        degradations=((10, 27, 0.12),),
    )
    # Born overlapping the first object's path (different class), drifting away;
    # a low merge threshold suppresses its early detections.
    birth = 28
    bb = base.box_at(birth)
    neighbor = ObjectSpec(
        class_id=3, first_frame=birth, last_frame=63,
        cx=bb.cx + 0.28 * bb.w + j(-1.5, 1.5), cy=bb.cy + j(-2, 2),
        w=bb.w * 0.95, h=bb.h * 0.95,
        vx=base.vx + 2.4, vy=base.vy - 2.0,
    )
    objects = (
        base,
        ObjectSpec(
            class_id=1, first_frame=0, last_frame=63,
            cx=190 + j(-6, 6), cy=80 + j(-6, 6), w=36 + j(-4, 4), h=42 + j(-4, 4),
            vx=-0.9 + j(-0.2, 0.2), vy=1.0 + j(-0.2, 0.2),
            degradations=((30, 49, 0.12),),
        ),
        ObjectSpec(
            class_id=2, first_frame=0, last_frame=63,
            cx=90 + j(-6, 6), cy=190 + j(-6, 6), w=42 + j(-4, 4), h=36 + j(-4, 4),
            vx=1.0 + j(-0.2, 0.2), vy=-0.8 + j(-0.2, 0.2),
            degradations=((44, 60, 0.15),),
        ),
        neighbor,
    )
    noise = DetectorNoise(
        box_sigma=1.6, miss_prob=0.08, false_positive_rate=0.4, misclass_prob=0.0
    )
    return ScenarioSpec(
        width=288, height=288, n_frames=64, objects=objects, noise=noise, seed=seed,
        video=f"degraded-{seed}",
    )


def _fast_scenario(seed: int) -> ScenarioSpec:
    rng = np.random.default_rng([seed, 839])
    j = lambda a, b: float(rng.uniform(a, b))

    # Per-frame displacement exceeds the object width, so consecutive-frame
    # ground-truth boxes never overlap. One object is born inside its
    # degradation window: its whole early chain enters at a weak score.
    fast0 = ObjectSpec(
        class_id=0, first_frame=0, last_frame=55,
        cx=40 + j(-4, 4), cy=90 + j(-8, 8), w=22 + j(-2, 2), h=26 + j(-2, 2),
        vx=27.0 + j(-1, 1), vy=0.5 + j(-0.5, 0.5),
        degradations=((6, 26, 0.15),),
    )
    fast1 = ObjectSpec(
        class_id=1, first_frame=10, last_frame=55,
        cx=1530 + j(-4, 4), cy=250 + j(-8, 8), w=24 + j(-2, 2), h=22 + j(-2, 2),
        vx=-28.0 + j(-1, 1), vy=-0.4 + j(-0.5, 0.5),
        degradations=((10, 25, 0.15),),
    )
    slow = ObjectSpec(
        class_id=2, first_frame=0, last_frame=55,
        cx=800 + j(-10, 10), cy=330 + j(-6, 6), w=46 + j(-4, 4), h=38 + j(-4, 4),
        vx=1.0 + j(-0.3, 0.3), vy=0.3 + j(-0.2, 0.2),
    )
    noise = DetectorNoise(
        box_sigma=1.2, miss_prob=0.05, false_positive_rate=0.3, misclass_prob=0.0
    )
    return ScenarioSpec(
        width=1600, height=420, n_frames=56, objects=(fast0, fast1, slow), noise=noise,
        seed=seed, video=f"fast-{seed}",
    )


PRESETS = {
    "clean": _clean_scenario,
    "degraded": _degraded_scenario,
    "fast": _fast_scenario,
}


def preset_scenario(name: str, seed: int = 0) -> ScenarioSpec:
    """Build one of the bundled scenario families for the given seed."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(seed)
