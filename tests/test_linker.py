from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vodtrack.linker as linker
from oracles import (
    Box,
    Detection,
    TrackPrediction,
    box_iou,
    brute_force_best_path,
    frames_of,
    predictions,
    reference_rescore,
    video_set,
)
from vodtrack.evalio import VideoPredictions
from vodtrack.linker import (
    LinkGraph,
    best_path,
    build_graph_seqnms,
    build_graph_seqtrack,
    rescore_and_suppress,
)


def shifted(b: Box, dx: float, dy: float) -> Box:
    return Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)


def det(frame, cls, score, corners):
    return Detection(frame, cls, score, Box(*corners))


def as_set(video):
    """Per-frame detection lists as the set the linker takes."""
    return video_set("v", video)


def rescored_frames(video, graph, nms_iou):
    """``rescore_and_suppress`` on per-frame lists, its result as per-frame lists."""
    return [list(f) for f in frames_of(rescore_and_suppress(as_set(video), graph, nms_iou))]


def random_video(rng, max_frames=6, max_boxes=5, clustered=True):
    """Random instance with enough box clustering that edges actually form."""
    n_frames = int(rng.integers(1, max_frames + 1))
    anchors = [(rng.uniform(0, 30, 2), int(rng.integers(0, 2))) for _ in range(3)]
    video = []
    for t in range(n_frames):
        frame = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            if clustered and rng.uniform() < 0.7:
                (ax, ay), cls = anchors[int(rng.integers(len(anchors)))]
                cx = ax + rng.uniform(-3, 3)
                cy = ay + rng.uniform(-3, 3)
            else:
                cx, cy = rng.uniform(0, 40, 2)
                cls = int(rng.integers(0, 2))
            w, h = rng.uniform(6, 12, 2)
            frame.append(det(t, cls, float(rng.uniform(0.05, 1.0)),
                             Box.from_center(cx, cy, w, h).corners()))
        video.append(frame)
    return video


def graph_edge_dict(graph):
    return {
        (t, i): list(succ)
        for t, table in enumerate(graph.edges)
        for i, succ in table.items()
    }


def records(video):
    """The ``(class, score, corners)`` records that ``reference_rescore`` takes."""
    return [[(d.class_id, d.score, d.box.corners()) for d in f] for f in video]


@st.composite
def dyadic_instances(draw):
    """A video with scores in multiples of 1/8 and a random link graph over it.

    With four distinct scores, paths tie exactly in total and start: paths
    of different lengths, and paths in different components. Every sum of
    such scores is exact. Boxes sit at three anchors, 0-3 px apart, so
    same-class boxes at one anchor clash at ``nms_iou`` 0.45.
    """
    video = []
    for t in range(draw(st.integers(1, 5))):
        frame = []
        for _ in range(draw(st.integers(0, 4))):
            x = 40.0 * draw(st.integers(0, 2)) + draw(st.integers(0, 3))
            frame.append(det(t, draw(st.integers(0, 1)), draw(st.integers(1, 4)) / 8, (x, 0, x + 10, 10)))
        video.append(frame)
    edges = []
    for here, there in zip(video, video[1:]):
        succs = {i: tuple(j for j in range(len(there)) if draw(st.booleans())) for i in range(len(here))}
        edges.append({i: js for i, js in succs.items() if js})
    return video, LinkGraph(tuple(edges))


DYADIC = settings(max_examples=300, deadline=None, database=None, derandomize=True)


SPEC_VIDEO = [
    [det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.5, (20, 20, 30, 30))],
    [det(1, 0, 0.4, (1, 1, 11, 11)), det(1, 0, 0.8, (21, 21, 31, 31))],
    [det(2, 0, 0.7, (2, 2, 12, 12))],
]


class TestBuildGraphSeqnms:
    def test_overlap_edge(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (1, 1, 11, 11))]]
        g = build_graph_seqnms(as_set(video))
        assert box_iou(video[0][0].box, video[1][0].box) == pytest.approx(0.680672, abs=1e-5)
        assert g.edges[0] == {0: (0,)}

    def test_class_gate(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 1, 0.8, (1, 1, 11, 11))]]
        assert build_graph_seqnms(as_set(video)).edges[0] == {}

    def test_boundary_strict(self):
        # IoU exactly 0.5: [0,0,10,10] vs [0,0,10,5] has inter 50, union 100
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (0, 0, 10, 5))]]
        assert box_iou(video[0][0].box, video[1][0].box) == 0.5
        assert build_graph_seqnms(as_set(video)).edges[0] == {}

    def test_rebuild_identical(self):
        rng = np.random.default_rng(61)
        video = random_video(rng)
        a = build_graph_seqnms(as_set(video))
        b = build_graph_seqnms(as_set(video))
        assert graph_edge_dict(a) == graph_edge_dict(b)


class TestBuildGraphSeqtrack:
    def test_fast_motion_contrast(self):
        # consecutive boxes disjoint, but the predicted box lands on the target
        b_t = det(0, 0, 0.9, (0, 0, 10, 10))
        b_t1 = det(1, 0, 0.8, (50, 0, 60, 10))
        video = [[b_t], [b_t1]]
        assert build_graph_seqnms(as_set(video)).edges[0] == {}
        preds = [[TrackPrediction(b_t, b_t1.box, 0.9)]]
        g = build_graph_seqtrack(as_set(video), predictions(as_set(video), preds))
        assert g.edges[0] == {0: (0,)}

    def test_identity_predictions_reduce_to_seqnms(self):
        rng = np.random.default_rng(63)
        video = random_video(rng)
        preds = [[TrackPrediction(d, d.box, 0.9) for d in frame] for frame in video]
        a = build_graph_seqnms(as_set(video))
        b = build_graph_seqtrack(as_set(video), predictions(as_set(video), preds))
        assert graph_edge_dict(a) == graph_edge_dict(b)

    def test_predicate_recheck_oracle(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            video = random_video(rng)
            preds = []
            for frame in video:
                frame_preds = []
                for d in frame:
                    dx, dy = rng.uniform(-4, 4, 2)
                    frame_preds.append(TrackPrediction(d, shifted(d.box, dx, dy), 0.8))
                preds.append(frame_preds)
            g = build_graph_seqtrack(as_set(video), predictions(as_set(video), preds))
            got = graph_edge_dict(g)
            want = {}
            for t in range(len(video) - 1):
                for i, d in enumerate(video[t]):
                    succ = [
                        j
                        for j, nxt in enumerate(video[t + 1])
                        if nxt.class_id == d.class_id
                        and box_iou(preds[t][i].predicted_box, nxt.box) > 0.5
                    ]
                    if succ:
                        want[(t, i)] = succ
            assert got == want

    def test_misaligned_preds_rejected(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (1, 1, 11, 11))]]
        with pytest.raises(ValueError, match="predictions on 3 rows do not cover a video of 2 rows"):
            build_graph_seqtrack(as_set(video), VideoPredictions(as_set(video), np.full((3, 4), np.nan),
                                                                 np.full(3, np.nan)))

    def test_predictions_on_other_rows_rejected(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (1, 1, 11, 11))]]
        first_frame = predictions(as_set(video[:1]), [])
        with pytest.raises(ValueError, match="predictions on 1 rows do not cover a video of 2 rows"):
            build_graph_seqtrack(as_set(video), first_frame)


class TestBestPath:
    def test_spec_instance(self):
        g = build_graph_seqnms(as_set(SPEC_VIDEO))
        tube = best_path(g, [[d.score for d in f] for f in SPEC_VIDEO])
        assert tube.members == ((0, 0), (1, 0), (2, 0))
        assert tube.path_score == pytest.approx(2.0, abs=1e-12)
        assert tube.rescored == pytest.approx(2.0 / 3, abs=1e-12)

    def test_singleton(self):
        video = [[det(0, 0, 0.4, (0, 0, 10, 10))]]
        g = build_graph_seqnms(as_set(video))
        tube = best_path(g, [[0.4]])
        assert tube.members == ((0, 0),)
        assert tube.path_score == 0.4

    def test_equal_scores_longer_chain_wins(self):
        video = [
            [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 0, 0.5, (40, 40, 50, 50))],
            [det(1, 0, 0.5, (1, 1, 11, 11))],
        ]
        g = build_graph_seqnms(as_set(video))
        tube = best_path(g, [[0.5, 0.5], [0.5]])
        assert tube.members == ((0, 0), (1, 0))

    def test_empty_graph_returns_none(self):
        g = build_graph_seqnms(as_set([[], []]))
        assert best_path(g, [[], []]) is None

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            video = random_video(rng)
            g = build_graph_seqnms(as_set(video))
            scores = [[d.score for d in f] for f in video]
            got = best_path(g, scores)
            want_path, want_score = brute_force_best_path(scores, graph_edge_dict(g))
            if want_path is None:
                assert got is None
                continue
            assert got.path_score == want_score
            assert list(got.members) == want_path

    def test_tie_break_earliest_start_lowest_index(self):
        # two disconnected singletons with identical scores
        video = [
            [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 0, 0.5, (40, 40, 50, 50))],
            [det(1, 0, 0.5, (80, 80, 90, 90))],
        ]
        g = build_graph_seqnms(as_set(video))
        tube = best_path(g, [[0.5, 0.5], [0.5]])
        assert tube.members == ((0, 0),)

    @pytest.mark.parametrize("n_frames", [1, 3])
    def test_scores_over_other_frames_rejected(self, n_frames):
        g = build_graph_seqnms(as_set(SPEC_VIDEO))
        with pytest.raises(ValueError, match="scores must align with the graph's frames"):
            best_path(g, [[0.5]] * n_frames + [[]])


class TestRescoreAndSuppress:
    def test_spec_worked_example(self):
        g = build_graph_seqnms(as_set(SPEC_VIDEO))
        out = rescored_frames(SPEC_VIDEO, g, 0.45)
        flat = {
            (t, d.box.corners()): d.score for t, frame in enumerate(out) for d in frame
        }
        third = 2.0 / 3
        assert flat[(0, (0, 0, 10, 10))] == pytest.approx(third, abs=1e-12)
        assert flat[(1, (1, 1, 11, 11))] == pytest.approx(third, abs=1e-12)
        assert flat[(2, (2, 2, 12, 12))] == pytest.approx(third, abs=1e-12)
        assert flat[(0, (20, 20, 30, 30))] == pytest.approx(0.65, abs=1e-12)
        assert flat[(1, (21, 21, 31, 31))] == pytest.approx(0.65, abs=1e-12)

    def test_graph_of_other_video_rejected(self):
        g = build_graph_seqnms(as_set(SPEC_VIDEO[:2]))
        with pytest.raises(ValueError, match="video and graph frame counts differ"):
            rescore_and_suppress(as_set(SPEC_VIDEO), g, 0.45)

    def test_single_frame_scores_unchanged(self):
        video = [[det(0, 0, 0.3, (0, 0, 10, 10)), det(0, 1, 0.9, (40, 40, 50, 50))]]
        g = build_graph_seqnms(as_set(video))
        out = rescored_frames(video, g, 0.45)
        assert sorted(d.score for d in out[0]) == [0.3, 0.9]

    def test_overlap_at_nms_iou_is_not_suppressed(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.8, (0, 0, 10, 5))]]  # IoU exactly 0.5
        g = build_graph_seqnms(as_set(video))
        assert len(rescored_frames(video, g, 0.5)[0]) == 2
        assert len(rescored_frames(video, g, 0.4999)[0]) == 1

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            video = random_video(rng, max_frames=4, max_boxes=4)
            g = build_graph_seqnms(as_set(video))
            got = rescored_frames(video, g, 0.45)
            ref = reference_rescore(records(video), graph_edge_dict(g), 0.45)
            got_map = {}
            for t, frame in enumerate(got):
                kept_indices = [
                    i for i, d in enumerate(video[t])
                    if any(o.box.corners() == d.box.corners() and o.score is not None for o in frame)
                ]
                for d in frame:
                    src = next(
                        i for i, orig in enumerate(video[t])
                        if orig.box.corners() == d.box.corners()
                    )
                    got_map[(t, src)] = d.score
            assert set(got_map) == set(ref)
            for key, val in ref.items():
                assert abs(got_map[key] - val) <= 1e-12

    def test_rescored_within_original_bounds(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            video = random_video(rng)
            g = build_graph_seqnms(as_set(video))
            out = rescored_frames(video, g, 0.45)
            all_scores = [d.score for f in video for d in f]
            if not all_scores:
                continue
            lo, hi = min(all_scores), max(all_scores)
            for frame in out:
                for d in frame:
                    assert lo - 1e-12 <= d.score <= hi + 1e-12

    def test_count_never_increases_and_geometry_preserved(self):
        rng = np.random.default_rng(79)
        video = random_video(rng, max_frames=5, max_boxes=5)
        g = build_graph_seqnms(as_set(video))
        out = rescored_frames(video, g, 0.45)
        assert sum(len(f) for f in out) <= sum(len(f) for f in video)
        originals = {(t, d.box.corners()) for t, f in enumerate(video) for d in f}
        for t, frame in enumerate(out):
            for d in frame:
                assert (t, d.box.corners()) in originals


class TestExactTies:
    """Dyadic scores: results must equal the brute-force oracles with ``==``."""

    @DYADIC
    @given(dyadic_instances())
    def test_best_path_matches_brute_force(self, instance):
        video, g = instance
        scores = [[d.score for d in f] for f in video]
        got = best_path(g, scores)
        want_path, want_score = brute_force_best_path(scores, graph_edge_dict(g))
        if want_path is None:
            assert got is None
        else:
            assert (list(got.members), got.path_score) == (want_path, want_score)

    @DYADIC
    @given(dyadic_instances())
    def test_rescore_matches_reference(self, instance):
        video, g = instance
        ref = reference_rescore(records(video), graph_edge_dict(g), 0.45)
        want = [[replace(d, score=ref[(t, i)]) for i, d in enumerate(f) if (t, i) in ref] for t, f in enumerate(video)]
        assert rescored_frames(video, g, 0.45) == want


class TestComponents:
    @pytest.mark.parametrize("apart", ["far", "classes"])
    def test_side_by_side_videos_give_standalone_results(self, apart):
        # b moves 1000 px right, or onto classes a never uses: no link or
        # clash joins the two videos.
        def moved(d):
            return replace(d, box=shifted(d.box, 1000, 0)) if apart == "far" else replace(d, class_id=d.class_id + 2)

        def rescored(video):
            return rescored_frames(video, build_graph_seqnms(as_set(video)), 0.45)

        def frame(video, t):
            return list(video[t]) if t < len(video) else []

        rng = np.random.default_rng(83)
        for _ in range(30):
            a = random_video(rng)
            b = [[moved(d) for d in f] for f in random_video(rng)]
            n = max(len(a), len(b))
            both = [frame(a, t) + frame(b, t) for t in range(n)]
            alone_a, alone_b = rescored(a), rescored(b)
            assert rescored(both) == [frame(alone_a, t) + frame(alone_b, t) for t in range(n)]

    def test_one_best_path_call_per_extracted_tubelet(self, monkeypatch):
        calls = Counter()

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(linker, "best_path", counted("linker", linker.best_path))
        monkeypatch.setattr(oracles, "_best_alive_path", counted("reference", oracles._best_alive_path))
        rng = np.random.default_rng(89)
        total = 0
        for _ in range(30):
            video = random_video(rng, max_frames=5, max_boxes=5)
            g = build_graph_seqnms(as_set(video))
            calls.clear()
            rescore_and_suppress(as_set(video), g, 0.45)
            reference_rescore(records(video), graph_edge_dict(g), 0.45)
            assert calls["linker"] == calls["reference"]
            total += calls["linker"]
        assert total > 30

