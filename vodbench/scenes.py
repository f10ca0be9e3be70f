"""Seeded scene descriptions for the benchmark workloads.

Each builder returns a scenario as a plain dict in the JSON layout that
``vodtrack synth-gen --spec`` reads. The same seed gives the same dict. Object
lifetimes are laid out in "slots": each slot holds one object after another,
back to back, so the number of objects alive at once stays at the slot count
whatever the seed. Positions, sizes, motion, classes and score dips are drawn
from the seed.
"""

from __future__ import annotations

import numpy as np

# Oracle tracker noise of the README quick start.
ORACLE_NOISE = ("--noise-center", "1.0", "--noise-failure", "0.25")

# Detector noise shared by every workload (the ``degraded`` preset's box
# jitter and miss rate); the false-positive rate is set per workload.
BOX_SIGMA = 1.6
MISS_PROB = 0.08

N_CLASSES = 10


def _objects(rng, *, width, height, n_frames, slots, life, size, speed, n_classes):
    """Slot-filled objects: ``slots`` alive at every frame, each living ``life`` frames."""
    objects = []
    for _ in range(slots):
        # Random phase, so the slots do not all turn over on the same frame.
        start = -int(rng.integers(0, life[1]))
        while start < n_frames:
            span = int(rng.integers(life[0], life[1] + 1))
            first, last = max(start, 0), min(start + span, n_frames) - 1
            start += span
            if last < first:
                continue
            frames = last - first
            w = float(rng.uniform(*size))
            h = float(rng.uniform(*size))
            vx = float(rng.uniform(-speed, speed))
            vy = float(rng.uniform(-speed, speed))
            # Keep the whole path inside the image.
            lo_x = w / 2 + max(0.0, -vx * frames)
            hi_x = width - w / 2 - max(0.0, vx * frames)
            lo_y = h / 2 + max(0.0, -vy * frames)
            hi_y = height - h / 2 - max(0.0, vy * frames)
            degradations = []
            if rng.uniform() < 0.5 and frames >= 8:
                d0 = first + int(rng.integers(0, frames // 2))
                d1 = min(d0 + int(rng.integers(4, max(5, frames // 3))), last + 1)
                degradations.append([d0, d1, float(rng.uniform(0.1, 0.2))])
            objects.append({
                "class_id": int(rng.integers(n_classes)),
                "first_frame": first,
                "last_frame": last,
                "cx": float(rng.uniform(lo_x, hi_x)),
                "cy": float(rng.uniform(lo_y, hi_y)),
                "w": w,
                "h": h,
                "vx": vx,
                "vy": vy,
                "scale_rate": 1.0,
                "degradations": degradations,
            })
    return objects


def _scene(name, seed, *, width, height, n_frames, objects, fp_rate, strides=(8,)):
    return {
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "objects": objects,
        "noise": {
            "box_sigma": BOX_SIGMA,
            "miss_prob": MISS_PROB,
            "false_positive_rate": fp_rate,
            "misclass_prob": 0.0,
            "fp_score_low": 0.05,
            "fp_score_high": 0.5,
        },
        "seed": seed,
        "video": f"{name}-{seed}",
        "feature_channels": 8,
        "feature_strides": list(strides),
    }


def long_video(seed: int) -> dict:
    """400 frames, 20 objects alive at once, each for about 100 frames."""
    rng = np.random.default_rng([seed, 1])
    n_frames = 400
    objects = _objects(rng, width=1280, height=720, n_frames=n_frames, slots=20,
                       life=(80, 120), size=(40.0, 90.0), speed=1.5, n_classes=N_CLASSES)
    return _scene("long_video", seed, width=1280, height=720, n_frames=n_frames,
                  objects=objects, fp_rate=2.0)


def crowded_scene(seed: int) -> dict:
    """150 objects alive at once, each for about 30 frames."""
    rng = np.random.default_rng([seed, 2])
    n_frames = 30
    objects = _objects(rng, width=1920, height=1080, n_frames=n_frames, slots=150,
                       life=(25, 35), size=(40.0, 90.0), speed=2.0, n_classes=N_CLASSES)
    return _scene("crowded_scene", seed, width=1920, height=1080, n_frames=n_frames,
                  objects=objects, fp_rate=8.0)


# Learned-head geometry: a detector-like three-level pyramid. 8 channels per
# level, 24 after fusion at stride 8; the paper's 256 shared head channels.
LEARNED_STRIDES = (4, 8, 16)
LEARNED_SHARED_CHANNELS = 256
# The head's weights stay the same for every seed, as a trained model's
# would; only the video changes with the seed.
LEARNED_WEIGHTS_SEED = 5
# The head is untrained, so its quality output carries no information: the
# chain's track-quality gate (``tfd --track-quality``) sits above it, merged
# boxes come from the detector, and the head's predicted boxes still go to
# ``link --mode seqtrack``.
LEARNED_TRACK_QUALITY = "0.95"


def learned_head(seed: int) -> dict:
    """6 objects on 512x384 frames with feature pyramids, for 60 frames."""
    rng = np.random.default_rng([seed, 3])
    n_frames = 60
    objects = _objects(rng, width=512, height=384, n_frames=n_frames, slots=6,
                       life=(40, 60), size=(40.0, 90.0), speed=1.5, n_classes=3)
    return _scene("learned_head", seed, width=512, height=384, n_frames=n_frames,
                  objects=objects, fp_rate=0.5, strides=LEARNED_STRIDES)


SCENES = {
    "long_video": long_video,
    "crowded_scene": crowded_scene,
    "learned_head": learned_head,
}
