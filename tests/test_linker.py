import numpy as np
import pytest

from oracles import brute_force_best_path, reference_rescore
from vodtrack.detections import Detection
from vodtrack.geometry import Box, iou
from vodtrack.linker import (
    LinkGraph,
    Tubelet,
    best_path,
    build_graph_seqnms,
    build_graph_seqtrack,
    rescore_and_suppress,
)
from vodtrack.tracker import TrackPrediction


def shifted(b: Box, dx: float, dy: float) -> Box:
    return Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)


def det(frame, cls, score, corners):
    return Detection(frame, cls, score, Box(*corners))


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


SPEC_VIDEO = [
    [det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.5, (20, 20, 30, 30))],
    [det(1, 0, 0.4, (1, 1, 11, 11)), det(1, 0, 0.8, (21, 21, 31, 31))],
    [det(2, 0, 0.7, (2, 2, 12, 12))],
]


class TestBuildGraphSeqnms:
    def test_overlap_edge(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (1, 1, 11, 11))]]
        g = build_graph_seqnms(video)
        assert iou(video[0][0].box, video[1][0].box) == pytest.approx(0.680672, abs=1e-5)
        assert g.edges[0] == {0: (0,)}
        assert g.constraint == "seqnms"

    def test_class_gate(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 1, 0.8, (1, 1, 11, 11))]]
        assert build_graph_seqnms(video).edges[0] == {}

    def test_boundary_strict(self):
        # IoU exactly 0.5: [0,0,10,10] vs [0,0,10,5] has inter 50, union 100
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (0, 0, 10, 5))]]
        assert iou(video[0][0].box, video[1][0].box) == 0.5
        assert build_graph_seqnms(video).edges[0] == {}

    def test_rebuild_identical(self):
        rng = np.random.default_rng(61)
        video = random_video(rng)
        a = build_graph_seqnms(video)
        b = build_graph_seqnms(video)
        assert graph_edge_dict(a) == graph_edge_dict(b)


class TestBuildGraphSeqtrack:
    def test_fast_motion_contrast(self):
        # consecutive boxes disjoint, but the predicted box lands on the target
        b_t = det(0, 0, 0.9, (0, 0, 10, 10))
        b_t1 = det(1, 0, 0.8, (50, 0, 60, 10))
        video = [[b_t], [b_t1]]
        assert build_graph_seqnms(video).edges[0] == {}
        preds = [[TrackPrediction(b_t, b_t1.box, 0.9)], []]
        g = build_graph_seqtrack(video, preds)
        assert g.edges[0] == {0: (0,)}
        assert g.constraint == "seqtrack"

    def test_identity_predictions_reduce_to_seqnms(self):
        rng = np.random.default_rng(63)
        video = random_video(rng)
        preds = [[TrackPrediction(d, d.box, 0.9) for d in frame] for frame in video]
        a = build_graph_seqnms(video)
        b = build_graph_seqtrack(video, preds)
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
            g = build_graph_seqtrack(video, preds)
            got = graph_edge_dict(g)
            want = {}
            for t in range(len(video) - 1):
                for i, d in enumerate(video[t]):
                    succ = [
                        j
                        for j, nxt in enumerate(video[t + 1])
                        if nxt.class_id == d.class_id
                        and iou(preds[t][i].predicted_box, nxt.box) > 0.5
                    ]
                    if succ:
                        want[(t, i)] = succ
            assert got == want

    def test_misaligned_preds_rejected(self):
        video = [[det(0, 0, 0.9, (0, 0, 10, 10))], [det(1, 0, 0.8, (1, 1, 11, 11))]]
        with pytest.raises(ValueError, match="predictions"):
            build_graph_seqtrack(video, [[], []])


class TestBestPath:
    def test_spec_instance(self):
        g = build_graph_seqnms(SPEC_VIDEO)
        tube = best_path(g, [[d.score for d in f] for f in SPEC_VIDEO])
        assert tube.members == ((0, 0), (1, 0), (2, 0))
        assert tube.path_score == pytest.approx(2.0, abs=1e-12)
        assert tube.rescored == pytest.approx(2.0 / 3, abs=1e-12)

    def test_singleton(self):
        video = [[det(0, 0, 0.4, (0, 0, 10, 10))]]
        g = build_graph_seqnms(video)
        tube = best_path(g, [[0.4]])
        assert tube.members == ((0, 0),)
        assert tube.path_score == 0.4

    def test_equal_scores_longer_chain_wins(self):
        video = [
            [det(0, 0, 0.5, (0, 0, 10, 10)), det(0, 0, 0.5, (40, 40, 50, 50))],
            [det(1, 0, 0.5, (1, 1, 11, 11))],
        ]
        g = build_graph_seqnms(video)
        tube = best_path(g, [[0.5, 0.5], [0.5]])
        assert tube.members == ((0, 0), (1, 0))

    def test_empty_graph_returns_none(self):
        g = build_graph_seqnms([[], []])
        assert best_path(g, [[], []]) is None

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            video = random_video(rng)
            g = build_graph_seqnms(video)
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
        g = build_graph_seqnms(video)
        tube = best_path(g, [[0.5, 0.5], [0.5]])
        assert tube.members == ((0, 0),)


class TestRescoreAndSuppress:
    def test_spec_worked_example(self):
        g = build_graph_seqnms(SPEC_VIDEO)
        out = rescore_and_suppress(SPEC_VIDEO, g, "seqnms", 0.45)
        flat = {
            (t, d.box.corners()): d.score for t, frame in enumerate(out) for d in frame
        }
        third = 2.0 / 3
        assert flat[(0, (0, 0, 10, 10))] == pytest.approx(third, abs=1e-12)
        assert flat[(1, (1, 1, 11, 11))] == pytest.approx(third, abs=1e-12)
        assert flat[(2, (2, 2, 12, 12))] == pytest.approx(third, abs=1e-12)
        assert flat[(0, (20, 20, 30, 30))] == pytest.approx(0.65, abs=1e-12)
        assert flat[(1, (21, 21, 31, 31))] == pytest.approx(0.65, abs=1e-12)

    def test_single_frame_scores_unchanged(self):
        video = [[det(0, 0, 0.3, (0, 0, 10, 10)), det(0, 1, 0.9, (40, 40, 50, 50))]]
        g = build_graph_seqnms(video)
        out = rescore_and_suppress(video, g, "seqnms", 0.45)
        assert sorted(d.score for d in out[0]) == [0.3, 0.9]

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            video = random_video(rng, max_frames=4, max_boxes=4)
            g = build_graph_seqnms(video)
            got = rescore_and_suppress(video, g, "seqnms", 0.45)
            ref = reference_rescore(
                [[(d.class_id, d.score, d.box.corners()) for d in f] for f in video],
                graph_edge_dict(g),
                0.45,
            )
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
            g = build_graph_seqnms(video)
            out = rescore_and_suppress(video, g, "seqnms", 0.45)
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
        g = build_graph_seqnms(video)
        out = rescore_and_suppress(video, g, "seqnms", 0.45)
        assert sum(len(f) for f in out) <= sum(len(f) for f in video)
        originals = {(t, d.box.corners()) for t, f in enumerate(video) for d in f}
        for t, frame in enumerate(out):
            for d in frame:
                assert (t, d.box.corners()) in originals

    def test_mode_mismatch_rejected(self):
        g = build_graph_seqnms(SPEC_VIDEO)
        with pytest.raises(ValueError, match="built with"):
            rescore_and_suppress(SPEC_VIDEO, g, "seqtrack", 0.45)


class TestTypes:
    def test_tubelet_invariants(self):
        with pytest.raises(ValueError, match="consecutive"):
            Tubelet(members=((0, 0), (2, 0)), path_score=1.0)
        t = Tubelet(members=((3, 1), (4, 0)), path_score=1.2)
        assert t.rescored == pytest.approx(0.6, abs=1e-12)

    def test_graph_validates_edges(self):
        with pytest.raises(ValueError, match="unknown node"):
            LinkGraph(nodes=((0,), (0,)), edges=({5: (0,)},), constraint="seqnms")
