import numpy as np
import pytest

from oracles import box_iou
from vodtrack.detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, Detection
from vodtrack.evalio import VideoDetectionSet
from vodtrack.geometry import Box
from vodtrack.pipeline import (
    PipelineConfig,
    filter_tracks,
    final_detections,
    nms,
    run_video,
    tfd_merge,
)
from vodtrack.synth import generate, preset_scenario
from vodtrack.tracker import NoiseParams, TrackPrediction, make_oracle_track_fn


def det(frame, cls, score, corners, track=None, provenance=None):
    return Detection(frame, cls, score, Box(*corners), track=track, provenance=provenance)


def merged_frames(video, track_fn, cfg):
    """``run_video``'s merged set as per-frame tuples of detections."""
    return run_video(video, track_fn, cfg)[0].frames


def nms_reference(dets, thresh, key):
    """Classic removal-loop NMS, independent of the implementation."""
    remaining = list(range(len(dets)))
    kept = []
    while remaining:
        best = max(remaining, key=lambda i: (key(dets[i]), -i))
        kept.append(dets[best])
        remaining = [
            i for i in remaining
            if i != best and box_iou(dets[i].box, dets[best].box) <= thresh
        ]
    return kept


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

    def test_from_file(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("t_merge = 0.3\nfinal_nms_iou = 0.5  # comment\n\n")
        assert PipelineConfig.file_values(p) == {"t_merge": 0.3, "final_nms_iou": 0.5}

    def test_from_file_unknown_key(self, tmp_path):
        p = tmp_path / "pipeline.cfg"
        p.write_text("tmerge = 0.3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.file_values(p)


class TestNms:
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


def pred(source, corners, quality):
    return TrackPrediction(source, Box(*corners), quality)


class TestFilterTracks:
    def test_low_quality_dropped(self):
        src = det(0, 2, 0.9, (0, 0, 10, 10), track=3)
        preds = [pred(src, (0, 0, 10, 10), 0.4)]
        assert filter_tracks(preds, PipelineConfig()) == []

    def test_overlapping_tracks_nms_on_quality(self):
        s1 = det(0, 0, 0.5, (0, 0, 10, 10), track=1)
        s2 = det(0, 0, 0.9, (0, 0, 10, 10), track=2)
        preds = [pred(s1, (0, 0, 10, 10), 0.9), pred(s2, (0.5, 0.5, 10.5, 10.5), 0.8)]
        out = filter_tracks(preds, PipelineConfig(), frame=1)
        assert len(out) == 1
        assert out[0].track == 1  # higher quality wins despite lower class score

    def test_empty(self):
        assert filter_tracks([], PipelineConfig()) == []

    def test_survivors_inherit_source_fields(self):
        src = det(4, 7, 0.61, (0, 0, 10, 10), track=9)
        out = filter_tracks([pred(src, (1, 1, 11, 11), 0.95)], PipelineConfig())
        (d,) = out
        assert d.frame == 5
        assert d.class_id == 7
        assert d.score == 0.61
        assert d.track == 9
        assert d.provenance == PROVENANCE_TRACKED
        assert d.box.corners() == (1, 1, 11, 11)


class TestTfdMerge:
    def test_overlap_at_t_merge_is_dropped(self):
        tracked = [det(1, 0, 0.9, (0, 0, 10, 10), track=0, provenance=PROVENANCE_TRACKED)]
        detected = [det(1, 0, 0.95, (0, 0, 10, 5))]  # IoU exactly 0.5
        assert tfd_merge(tracked, detected, PipelineConfig(t_merge=0.5)) == tracked
        assert len(tfd_merge(tracked, detected, PipelineConfig(t_merge=0.5001))) == 2

    def test_overlapping_detection_discarded(self):
        tracked = [det(1, 0, 0.9, (0, 0, 10, 10), track=0, provenance=PROVENANCE_TRACKED)]
        detected = [det(1, 0, 0.95, (1, 1, 10.5, 10.5))]
        assert box_iou(tracked[0].box, detected[0].box) > 0.7
        merged = tfd_merge(tracked, detected, PipelineConfig())
        assert merged == tracked

    def test_moderate_overlap_keeps_both(self):
        tracked = [det(1, 0, 0.9, (0, 0, 10, 10), track=0, provenance=PROVENANCE_TRACKED)]
        detected = [det(1, 1, 0.95, (4, 0, 14, 10))]
        assert 0.3 < box_iou(tracked[0].box, detected[0].box) < 0.7
        merged = tfd_merge(tracked, detected, PipelineConfig(), id_start=5)
        assert len(merged) == 2
        assert merged[1].track == 5
        assert merged[1].provenance == PROVENANCE_DETECTED

    def test_no_tracked_passes_all(self):
        detected = [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 1, 0.4, (20, 20, 30, 30))]
        merged = tfd_merge([], detected, PipelineConfig())
        assert [d.box.corners() for d in merged] == [d.box.corners() for d in detected]
        assert [d.track for d in merged] == [0, 1]

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
        merged = tfd_merge(tracked, detected, cfg)
        assert merged[: len(tracked)] == tracked
        kept_boxes = {d.box.corners() for d in merged[len(tracked) :]}
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

        def dead_tracker(boxes):
            return [TrackPrediction(b, b.box, 0.0) for b in boxes]

        merged = merged_frames(VideoDetectionSet("v", [dets, later]), dead_tracker, cfg)
        assert len(merged[0]) == 1
        assert merged[0][0].track == 0
        assert merged[0][0].provenance == PROVENANCE_DETECTED
        # The next admitted detection takes the next id.
        assert [d.track for d in merged[1]] == [1]

    def test_zero_quality_tracker_degenerates_to_detection(self):
        cfg = PipelineConfig()

        def dead_tracker(boxes):
            return [TrackPrediction(b, b.box, 0.0) for b in boxes]

        frames = [
            [det(0, 0, 0.9, (0, 0, 10, 10))],
            [det(1, 0, 0.8, (1, 1, 11, 11))],
        ]
        merged = merged_frames(VideoDetectionSet("v", frames), dead_tracker, cfg)
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
                for g in gt.frames[t]:
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
            run_video(VideoDetectionSet("v", frames), lambda b: [], PipelineConfig())

    def test_duplicate_ids_rejected(self):
        frames = [[det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.8, (20, 20, 30, 30))], []]

        def twin_tracker(boxes):
            # Both predictions come from the first source, at boxes that do
            # not overlap, so both survive suppression with one track id.
            if not boxes:
                return []
            return [TrackPrediction(boxes[0], Box(0, 0, 10, 10), 1.0),
                    TrackPrediction(boxes[0], Box(50, 50, 60, 60), 1.0)]

        with pytest.raises(ValueError, match="duplicate track ids in frame 1"):
            run_video(VideoDetectionSet("v", frames), twin_tracker, PipelineConfig())


class TestFinalDetections:
    def test_threshold_and_per_class_nms(self):
        cfg = PipelineConfig()
        frames = [[
            det(0, 0, 0.9, (0, 0, 10, 10)),
            det(0, 0, 0.8, (1, 1, 11, 11)),     # same class, suppressed
            det(0, 1, 0.7, (1, 1, 11, 11)),     # other class, kept
            det(0, 0, 0.01, (40, 40, 50, 50)),  # below threshold
        ]]
        out = final_detections(VideoDetectionSet("v", frames), cfg).frames
        assert [(d.class_id, d.score) for d in out[0]] == [(0, 0.9), (1, 0.7)]
