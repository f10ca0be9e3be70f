import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Box,
    Detection,
    box_iou,
    frames_of,
    nms_reference,
    predictions,
    reference_merge,
    track_records,
    video_set,
)
from vodtrack.evalio import PROVENANCE_DETECTED, PROVENANCE_TRACKED
from vodtrack.pipeline import (
    PipelineConfig,
    filter_tracks,
    final_detections,
    run_video,
    tfd_merge,
)
from vodtrack.synth import generate, preset_scenario
from vodtrack.tracker import NoiseParams, make_oracle_track_fn


def det(frame, cls, score, corners, track=None, provenance=None):
    return Detection(frame, cls, score, Box(*corners), track=track, provenance=provenance)


def merged_frames(video, track_fn, cfg):
    """``run_video``'s merged set as per-frame tuples of detections."""
    return frames_of(run_video(video, track_fn, cfg)[0])


def corners(dets):
    return np.array([d.box.corners() for d in dets], np.float64).reshape(-1, 4)


def nms(dets, thresh):
    """Suppression by ``filter_tracks`` with no quality gate, keyed on score: the kept detections."""
    quality = np.array([d.score for d in dets], np.float64)
    cfg = PipelineConfig(track_quality_min=0.0, track_nms_iou=thresh)
    return [dets[i] for i in filter_tracks(corners(dets), quality, cfg).tolist()]


def dead_tracker(boxes, frame, class_id):
    """Every box tracked to itself at quality 0."""
    return boxes, np.zeros(len(boxes))


class TestConfig:
    def test_default_thresholds(self):
        cfg = PipelineConfig()
        assert cfg.detect_to_track_score == 0.03
        assert cfg.track_quality_min == 0.5
        assert cfg.track_nms_iou == 0.7
        assert cfg.t_merge == 0.7
        assert cfg.final_score_min == 0.03
        assert cfg.final_nms_iou == 0.45

    def test_range_validation(self):
        with pytest.raises(ValueError, match="t_merge"):
            PipelineConfig(t_merge=1.2)


class TestNms:
    """The greedy suppression of ``filter_tracks``, keyed on score through ``nms``."""

    def test_identical_boxes(self):
        a = det(0, 0, 0.9, (0, 0, 10, 10))
        b = det(0, 0, 0.8, (0, 0, 10, 10))
        assert nms([a, b], 0.45) == [a]

    def test_disjoint_all_kept_in_score_order(self):
        a = det(0, 0, 0.5, (0, 0, 10, 10))
        b = det(0, 0, 0.9, (40, 40, 50, 50))
        c = det(0, 0, 0.7, (80, 80, 90, 90))
        assert nms([a, b, c], 0.45) == [b, c, a]

    def test_tie_break_keeps_earlier(self):
        a = det(0, 0, 0.8, (0, 0, 10, 10))
        b = det(0, 0, 0.8, (1, 1, 11, 11))
        assert nms([a, b], 0.45) == [a]
        # p and q tie on score and overlap (IoU 2/3); r overlaps only q (IoU 7/13).
        p = det(0, 0, 0.8, (0, 0, 10, 10))
        q = det(0, 0, 0.8, (2, 0, 12, 10))
        r = det(0, 0, 0.5, (5, 0, 15, 10))
        assert nms([p, q, r], 0.45) == [p, r]
        assert nms([q, p, r], 0.45) == [q]

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            dets = []
            for _ in range(5):
                cx, cy = rng.uniform(0, 30, 2)
                w, h = rng.uniform(4, 14, 2)
                dets.append(det(0, 0, float(rng.uniform(0.1, 1.0)),
                                Box.from_center(cx, cy, w, h).corners()))
            got = nms(dets, 0.45)
            want = nms_reference(dets, 0.45, key=lambda d: d.score)
            assert got == want

    def test_overlap_at_threshold_is_kept(self):
        # (0,0,10,10) and (0,0,10,5): intersection 50, union 100, IoU exactly 0.5
        a = det(0, 0, 0.9, (0, 0, 10, 10))
        b = det(0, 0, 0.8, (0, 0, 10, 5))
        assert nms([a, b], 0.5) == [a, b]
        assert nms([a, b], 0.4999) == [a]

    def test_postconditions(self):
        rng = np.random.default_rng(53)
        dets = [
            det(0, 0, float(rng.uniform(0.1, 1.0)),
                Box.from_center(*rng.uniform(0, 25, 2), *rng.uniform(4, 12, 2)).corners())
            for _ in range(12)
        ]
        kept = nms(dets, 0.4)
        assert set(id(k) for k in kept) <= set(id(d) for d in dets)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert box_iou(a.box, b.box) <= 0.4
        top = max(dets, key=lambda d: d.score)
        assert top in kept


class TestFilterTracks:
    def test_low_quality_dropped(self):
        assert filter_tracks(np.array([[0.0, 0, 10, 10]]), np.array([0.4]), PipelineConfig()).tolist() == []

    def test_overlapping_tracks_nms_on_quality(self):
        # Row 0 (quality 0.9) and row 1 (0.8) overlap: the higher quality wins,
        # whatever the scores of the detections they were tracked from.
        boxes = np.array([[0.0, 0, 10, 10], [0.5, 0.5, 10.5, 10.5]])
        assert filter_tracks(boxes, np.array([0.9, 0.8]), PipelineConfig()).tolist() == [0]
        assert filter_tracks(boxes, np.array([0.8, 0.9]), PipelineConfig()).tolist() == [1]

    def test_empty(self):
        assert filter_tracks(np.zeros((0, 4)), np.zeros(0), PipelineConfig()).tolist() == []

    def test_survivors_inherit_source_fields(self):
        # Frame 0's detection is admitted as track 0; the tracker moves it to
        # (1, 1, 11, 11) at quality 0.95, so frame 1 holds it as tracked.
        def mover(boxes, frame, class_id):
            return boxes + 1.0, np.full(len(boxes), 0.95)

        video = video_set("v", [[det(0, 7, 0.61, (0, 0, 10, 10))], []])
        (d,) = merged_frames(video, mover, PipelineConfig())[1]
        assert d.frame == 1
        assert d.class_id == 7
        assert d.score == 0.61
        assert d.track == 0
        assert d.provenance == PROVENANCE_TRACKED
        assert d.box.corners() == (1, 1, 11, 11)


class TestTfdMerge:
    def test_overlap_at_t_merge_is_dropped(self):
        tracked, detected = corners([det(1, 0, 0.9, (0, 0, 10, 10))]), corners([det(1, 0, 0.95, (0, 0, 10, 5))])
        # IoU exactly 0.5
        assert tfd_merge(tracked, detected, PipelineConfig(t_merge=0.5)).tolist() == [0]
        assert len(tfd_merge(tracked, detected, PipelineConfig(t_merge=0.5001))) == 2

    def test_overlapping_detection_discarded(self):
        tracked = [det(1, 0, 0.9, (0, 0, 10, 10))]
        detected = [det(1, 0, 0.95, (1, 1, 10.5, 10.5))]
        assert box_iou(tracked[0].box, detected[0].box) > 0.7
        assert tfd_merge(corners(tracked), corners(detected), PipelineConfig()).tolist() == [0]

    def test_moderate_overlap_keeps_both(self):
        tracked = [det(1, 0, 0.9, (0, 0, 10, 10))]
        detected = [det(1, 1, 0.95, (4, 0, 14, 10))]
        assert 0.3 < box_iou(tracked[0].box, detected[0].box) < 0.7
        # Rows of the two stacked: the tracked row, then detected row 0.
        assert tfd_merge(corners(tracked), corners(detected), PipelineConfig()).tolist() == [0, 1]

    def test_no_tracked_passes_all(self):
        detected = [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 1, 0.4, (20, 20, 30, 30))]
        assert tfd_merge(np.zeros((0, 4)), corners(detected), PipelineConfig()).tolist() == [0, 1]

    def test_kept_set_is_exact_formula(self):
        rng = np.random.default_rng(57)
        cfg = PipelineConfig()
        tracked = [
            det(0, 0, 0.9, Box.from_center(*rng.uniform(0, 40, 2), *rng.uniform(6, 14, 2)).corners(),
                track=i, provenance=PROVENANCE_TRACKED)
            for i in range(4)
        ]
        detected = [
            det(0, 0, 0.5, Box.from_center(*rng.uniform(0, 40, 2), *rng.uniform(6, 14, 2)).corners())
            for _ in range(10)
        ]
        merged = tfd_merge(corners(tracked), corners(detected), cfg).tolist()
        assert merged[: len(tracked)] == list(range(len(tracked)))
        kept_boxes = {detected[i - len(tracked)].box.corners() for i in merged[len(tracked) :]}
        want = {
            d.box.corners()
            for d in detected
            if max((box_iou(d.box, t.box) for t in tracked), default=0.0) < cfg.t_merge
        }
        assert kept_boxes == want


class TestStep:
    """The per-frame step of :func:`run_video`."""

    def test_first_frame_emits_thresholded_detections(self):
        cfg = PipelineConfig()
        dets = [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 1, 0.01, (20, 20, 30, 30))]
        later = [det(1, 0, 0.5, (40, 40, 50, 50))]
        merged = merged_frames(video_set("v", [dets, later]), dead_tracker, cfg)
        assert len(merged[0]) == 1
        assert merged[0][0].track == 0
        assert merged[0][0].provenance == PROVENANCE_DETECTED
        # The next admitted detection takes the next id.
        assert [d.track for d in merged[1]] == [1]

    def test_zero_quality_tracker_degenerates_to_detection(self):
        cfg = PipelineConfig()
        frames = [
            [det(0, 0, 0.9, (0, 0, 10, 10))],
            [det(1, 0, 0.8, (1, 1, 11, 11))],
        ]
        merged = merged_frames(video_set("v", frames), dead_tracker, cfg)
        assert all(d.provenance == PROVENANCE_DETECTED for f in merged for d in f)
        # identities restart every frame without tracking
        assert merged[1][0].track != merged[0][0].track

    def test_perfect_oracle_keeps_ids_stable(self):
        spec = preset_scenario("clean", 0)
        gt, dets = generate(spec)
        track_fn = make_oracle_track_fn(gt, NoiseParams(), seed=0)
        merged = merged_frames(dets, track_fn, PipelineConfig())

        # map each emitted box to its gt object; every object must keep one id
        ids_per_object: dict[int, set] = {}
        for t, frame in enumerate(merged):
            for d in frame:
                best, best_iou = None, 0.5
                for g in frames_of(gt)[t]:
                    v = box_iou(d.box, g.box)
                    if v >= best_iou:
                        best, best_iou = g, v
                assert best is not None
                ids_per_object.setdefault(best.track, set()).add(d.track)
        assert ids_per_object
        for tid, ids in ids_per_object.items():
            assert len(ids) == 1, f"object {tid} changed pipeline ids: {ids}"

    def test_deterministic(self):
        spec = preset_scenario("degraded", 3)
        gt, dets = generate(spec)
        noise = NoiseParams(center_sigma=1.0, failure_prob=0.2)
        runs = []
        for _ in range(2):
            track_fn = make_oracle_track_fn(gt, noise, seed=9)
            merged = merged_frames(dets, track_fn, PipelineConfig())
            runs.append([(d.box.corners(), d.score, d.track) for f in merged for d in f])
        assert runs[0] == runs[1]

    def test_emitted_have_provenance_and_unique_ids(self):
        spec = preset_scenario("degraded", 1)
        gt, dets = generate(spec)
        track_fn = make_oracle_track_fn(gt, NoiseParams(center_sigma=1.0), seed=2)
        merged = merged_frames(dets, track_fn, PipelineConfig())
        for frame in merged:
            ids = [d.track for d in frame]
            assert len(ids) == len(set(ids))
            for d in frame:
                assert d.provenance in (PROVENANCE_DETECTED, PROVENANCE_TRACKED)

    def test_tracker_length_mismatch_rejected(self):
        frames = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.9, (0, 0, 10, 10))]]
        with pytest.raises(ValueError, match="tracker returned"):
            run_video(video_set("v", frames), lambda b, f, c: (b[:0], np.zeros(0)), PipelineConfig())

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_track_quality_out_of_range_rejected(self, bad):
        frames = [[det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.8, (20, 20, 30, 30))], []]

        def tracker(boxes, frame, class_id):
            return boxes, np.array([0.5, bad][: len(boxes)])

        with pytest.raises(ValueError, match=r"quality must be in \[0, 1\], got " + re.escape(repr(bad))):
            run_video(video_set("v", frames), tracker, PipelineConfig())


class TestFinalDetections:
    def test_threshold_and_per_class_nms(self):
        cfg = PipelineConfig()
        frames = [[
            det(0, 0, 0.9, (0, 0, 10, 10)),
            det(0, 0, 0.8, (1, 1, 11, 11)),     # same class, suppressed
            det(0, 1, 0.7, (1, 1, 11, 11)),     # other class, kept
            det(0, 0, 0.01, (40, 40, 50, 50)),  # below threshold
        ]]
        out = frames_of(final_detections(video_set("v", frames), cfg))
        assert [(d.class_id, d.score) for d in out[0]] == [(0, 0.9), (1, 0.7)]


# Grid corners make overlaps land exactly on the thresholds (IoU 1/2 and
# 7/10 are one division away), and the score and quality sets hold ties and
# each gate's own value.
SCORES = (0.02, 0.03, 0.5, 0.9, 1.0)
QUALITIES = (0.0, 0.3, 0.5, 0.7, 0.9, 1.0)
GRID = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def grid_detections(draw, frame):
    x1, y1 = draw(st.integers(0, 4)), draw(st.integers(0, 1))
    w, h = draw(st.sampled_from([1, 2, 5, 7, 10])), draw(st.integers(1, 2))
    return det(frame, draw(st.integers(0, 1)), draw(st.sampled_from(SCORES)), (x1, y1, x1 + w, y1 + h))


@st.composite
def grid_videos(draw):
    return [draw(st.lists(grid_detections(t), max_size=5)) for t in range(draw(st.integers(0, 5)))]


grid_configs = st.builds(
    PipelineConfig,
    detect_to_track_score=st.sampled_from([0.03, 0.5]),
    track_quality_min=st.sampled_from([0.5, 0.7]),
    track_nms_iou=st.sampled_from([0.5, 0.7]),
    t_merge=st.sampled_from([0.5, 0.7]),
)


# The moves of a tracked box: none (so overlaps on the grid persist), one
# step either way, or one step wider.
MOVES = ((0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, -1, 0), (1, 0, 1, 0), (0, 0, 1, 0))


def seeded_tracker(seed):
    """A track function whose prediction for a box depends only on the seed, the
    frame, the class and the box: a move from ``MOVES`` and a quality from ``QUALITIES``."""

    def track_fn(boxes, frame, class_id):
        predicted, quality = np.array(boxes, np.float64), np.zeros(len(boxes))
        for k, (box, c) in enumerate(zip(boxes.tolist(), class_id.tolist())):
            rng = np.random.default_rng([seed, frame, c, *(int(v) + 100 for v in box)])
            predicted[k] += MOVES[rng.integers(len(MOVES))]
            quality[k] = QUALITIES[rng.integers(len(QUALITIES))]
        return predicted, quality

    return track_fn


class TestMergeAgainstReference:
    @GRID
    @given(frames=grid_videos(), cfg=grid_configs, seed=st.integers(0, 2**16))
    def test_columns_equal_per_object_merge(self, frames, cfg, seed):
        track_fn = seeded_tracker(seed)
        merged, preds = run_video(video_set("v", frames), track_fn, cfg)
        want_frames, want_preds = reference_merge(frames, lambda dets: track_records(track_fn, dets), cfg)
        want = video_set("v", want_frames)
        for name in ("offsets", "class_id", "score", "boxes", "track", "has_track", "provenance"):
            got, expected = getattr(merged, name), getattr(want, name)
            assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes()), name
        expected = predictions(merged, want_preds)
        assert preds.dets is merged
        assert preds.boxes.tobytes() == expected.boxes.tobytes()
        assert preds.quality.tobytes() == expected.quality.tobytes()
