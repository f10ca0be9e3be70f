import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    naive_conv2d,
    naive_conv_block,
    naive_depthwise_correlate,
    oversampled_roi_align,
)
from vodtrack.detections import Detection
from vodtrack.geometry import Box, iou
from vodtrack.evalio import VideoDetectionSet
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import (
    NoiseParams,
    TrackerConfig,
    TrackPrediction,
    fuse_for_head,
    head_forward,
    load_weights,
    make_oracle_track_fn,
    oracle_track,
    save_weights,
    smooth_l1,
    smooth_l1_grad,
    synthesize_weights,
    track,
)

SMALL_CFG = TrackerConfig(k=3, template_pool=3, search_pool=9)


def small_weights(seed=11, channels=2):
    return synthesize_weights(channels, SMALL_CFG, seed=seed, shared_head_channels=5)


def zeroed_fc(w):
    return dataclasses.replace(
        w,
        box_weight=np.zeros_like(w.box_weight),
        box_bias=np.zeros(4),
        score_weight=np.zeros_like(w.score_weight),
        score_bias=np.zeros(1),
    )


def pyramid(seed, channels=2, size=16, stride=4):
    rng = np.random.default_rng(seed)
    return FeaturePyramid(
        ((stride, rng.random((channels, size, size))),), size * stride, size * stride
    )


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert (cfg.k, cfg.template_pool, cfg.search_pool) == (3.0, 7, 21)
        assert cfg.corr_size == 15

    def test_pool_consistency_enforced(self):
        with pytest.raises(ValueError, match="search_pool"):
            TrackerConfig(k=3, template_pool=7, search_pool=20)
        with pytest.raises(ValueError, match=">= 1"):
            TrackerConfig(k=0.5, template_pool=7, search_pool=4)


class TestTrack:
    def test_zero_fc_returns_source_and_half(self):
        w = zeroed_fc(small_weights())
        dets = [
            Detection(0, 0, 0.9, Box(12.3, 8.7, 30.1, 26.6)),
            Detection(0, 1, 0.8, Box(30.0, 34.0, 50.0, 52.0)),
        ]
        preds = track(pyramid(101), pyramid(102), dets, w, SMALL_CFG)
        assert len(preds) == 2
        for det, pred in zip(dets, preds):
            assert pred.predicted_box.corners() == det.box.corners()
            assert pred.quality == 0.5

    def test_empty_boxes(self):
        w = small_weights()
        assert track(pyramid(101), pyramid(102), [], w, SMALL_CFG) == []

    def test_golden_forward(self):
        """Full head against an independently coded straight-line forward pass."""
        w = small_weights()
        map_t = np.random.default_rng(101).random((2, 16, 16))
        map_t1 = np.random.default_rng(102).random((2, 16, 16))
        dets = [
            Detection(0, 0, 0.9, Box(12.3, 8.7, 30.1, 26.6)),
            Detection(0, 1, 0.8, Box(30.0, 34.0, 50.0, 52.0)),
        ]
        pyr_t = FeaturePyramid(((4, map_t),), 64, 64)
        pyr_t1 = FeaturePyramid(((4, map_t1),), 64, 64)
        preds = track(pyr_t, pyr_t1, dets, w, SMALL_CFG)

        def run_block(x, blk):
            return naive_conv_block(
                x, blk.kernel, blk.gamma, blk.beta, blk.mean, blk.var,
                bias=blk.bias, eps=blk.eps,
            )

        def reference(box):
            mx = (box.x2 - box.x1)
            my = (box.y2 - box.y1)
            roi = (box.x1 - mx, box.y1 - my, box.x2 + mx, box.y2 + my)
            template = oversampled_roi_align(map_t, box.corners(), 3, 3, 4.0, samples=32)
            search = oversampled_roi_align(map_t1, roi, 9, 9, 4.0, samples=32)
            tpre = run_block(template, w.pre_template)
            spre = run_block(search, w.pre_template)
            corr = naive_depthwise_correlate(tpre, spre)
            adjusted = run_block(corr, w.post)
            shared = naive_conv2d(adjusted, w.head_kernel, w.head_bias)
            flat = shared.ravel()
            d = w.box_weight @ flat + w.box_bias
            logit = float((w.score_weight @ flat)[0] + w.score_bias[0])
            quality = 1.0 / (1.0 + math.exp(-logit))
            bw, bh = box.w, box.h
            cx = box.cx + d[0] * bw
            cy = box.cy + d[1] * bh
            pw = math.exp(d[2]) * bw
            ph = math.exp(d[3]) * bh
            return (cx - pw / 2, cy - ph / 2, cx + pw / 2, cy + ph / 2), quality

        golden = [
            ((13.383426922130289, 9.13171093657839, 31.180673508364343, 27.63651756506147),
             0.5101285204815468),
            ((31.21745602552561, 34.43392758818973, 51.214523474019586, 53.042157788254),
             0.5101286483704737),
        ]
        for det, pred, frozen in zip(dets, preds, golden):
            ref_corners, ref_quality = reference(det.box)
            for got, want in zip(pred.predicted_box.corners(), ref_corners):
                assert abs(got - want) <= 1e-9
            assert abs(pred.quality - ref_quality) <= 1e-9
            for got, want in zip(pred.predicted_box.corners(), frozen[0]):
                assert abs(got - want) <= 1e-9
            assert abs(pred.quality - frozen[1]) <= 1e-9

    def test_shapes_through_default_head(self):
        cfg = TrackerConfig()
        w = synthesize_weights(3, cfg, seed=7, shared_head_channels=256)
        rng = np.random.default_rng(1)
        template = rng.random((3, 7, 7))
        search = rng.random((3, 21, 21))
        _, _, inter = head_forward(template, search, w, return_intermediates=True)
        assert inter["template"].shape == (3, 7, 7)
        assert inter["search"].shape == (3, 21, 21)
        assert inter["correlation"].shape == (3, 15, 15)
        assert inter["shared"].shape == (256, 15, 15)

    def test_quality_strictly_inside_unit_interval(self):
        w = small_weights()
        dets = [Detection(0, 0, 0.9, Box(10, 10, 30, 30))]
        preds = track(pyramid(5), pyramid(6), dets, w, SMALL_CFG)
        assert 0.0 < preds[0].quality < 1.0

    def test_no_cross_talk(self):
        w = small_weights()
        far = Detection(0, 0, 0.9, Box(8, 8, 16, 16))
        near = Detection(0, 1, 0.8, Box(44, 44, 56, 56))
        base_t1 = np.random.default_rng(102).random((2, 16, 16))
        perturbed = base_t1.copy()
        perturbed[:, :4, :4] += 5.0  # inside far's search region only
        pyr = FeaturePyramid(((4, base_t1),), 64, 64)
        pyr_p = FeaturePyramid(((4, perturbed),), 64, 64)
        a = track(pyramid(101), pyr, [far, near], w, SMALL_CFG)
        b = track(pyramid(101), pyr_p, [far, near], w, SMALL_CFG)
        assert a[0].predicted_box.corners() != b[0].predicted_box.corners()
        for got, want in zip(b[1].predicted_box.corners(), a[1].predicted_box.corners()):
            assert abs(got - want) <= 1e-12
        assert abs(b[1].quality - a[1].quality) <= 1e-12

    def test_translation_equivariance_one_cell(self):
        # Shift the next-frame pattern by one stride unit: the correlation map
        # shifts by exactly one cell (bit-exact on integer-aligned boxes).
        cfg = TrackerConfig(k=3, template_pool=7, search_pool=21)
        w = synthesize_weights(1, cfg, seed=3, shared_head_channels=4)
        base = np.zeros((1, 40, 40))
        base[0, 18:25, 16:23] = np.random.default_rng(8).random((7, 7)) + 1.0
        shifted = np.roll(base, 1, axis=2)
        box = Detection(0, 0, 0.9, Box(16.0, 18.0, 23.0, 25.0))
        template = np.random.default_rng(9).random((1, 40, 40))

        def corr_map(search_map):
            from vodtrack.geometry import expand
            from vodtrack.tensor_ops import roi_align_full_avg

            tpl = roi_align_full_avg(template, box.box, 7, 7, 1.0)
            srch = roi_align_full_avg(search_map, expand(box.box, 3.0), 21, 21, 1.0)
            _, _, inter = head_forward(tpl, srch, w, return_intermediates=True)
            return inter["correlation"]

        c0 = corr_map(base)
        c1 = corr_map(shifted)
        assert np.array_equal(c1[:, :, 1:], c0[:, :, :-1])

    def test_batch_invariance(self):
        # Each box's prediction has the same bits tracked alone, with the
        # frame's other boxes, or with those boxes in another order, though
        # the boxes need different band taps and pooling windows.
        cfg = TrackerConfig()
        w = synthesize_weights(16, cfg, seed=13, shared_head_channels=8)
        rng = np.random.default_rng(17)
        pyr_t = FeaturePyramid(((8, rng.standard_normal((16, 20, 24))),), 160, 192)
        pyr_t1 = FeaturePyramid(((8, rng.standard_normal((16, 20, 24))),), 160, 192)
        dets = [
            Detection(0, 0, 0.9, Box(40.0, 30.0, 70.0, 62.0)),
            Detection(0, 1, 0.8, Box(3.5, 100.25, 20.0, 150.0)),
            Detection(0, 2, 0.7, Box(150.0, -10.0, 200.0, 30.0)),
            Detection(0, 0, 0.6, Box(10.0, 10.0, 180.0, 150.0)),
            Detection(0, 1, 0.5, Box(90.3, 70.7, 97.1, 75.9)),
        ]

        def key(pred):
            return pred.predicted_box.corners(), pred.quality

        together = [key(p) for p in track(pyr_t, pyr_t1, dets, w, cfg)]
        order = [3, 0, 4, 2, 1]
        permuted = track(pyr_t, pyr_t1, [dets[i] for i in order], w, cfg)
        for det, want in zip(dets, together):
            assert [key(p) for p in track(pyr_t, pyr_t1, [det], w, cfg)] == [want]
        assert [key(p) for p in permuted] == [together[i] for i in order]

    def test_fused_pyramid_gives_the_same_predictions(self):
        cfg = TrackerConfig(k=3, template_pool=3, search_pool=9)
        w = synthesize_weights(4, cfg, seed=19, shared_head_channels=5)
        rng = np.random.default_rng(23)

        def two_level():
            return FeaturePyramid(
                ((4, rng.random((2, 16, 16))), (8, rng.random((2, 8, 8)))), 64, 64
            )

        pyr_t, pyr_t1 = two_level(), two_level()
        dets = [Detection(0, 0, 0.9, Box(12.3, 8.7, 30.1, 26.6))]
        fused_t, fused_t1 = fuse_for_head(pyr_t, cfg), fuse_for_head(pyr_t1, cfg)
        assert fused_t.strides == (8,)
        assert fuse_for_head(fused_t, cfg) is fused_t
        a = track(pyr_t, pyr_t1, dets, w, cfg)
        b = track(fused_t, fused_t1, dets, w, cfg)
        assert [(p.predicted_box.corners(), p.quality) for p in a] == [
            (p.predicted_box.corners(), p.quality) for p in b
        ]

    def test_head_forward_batch_matches_single_pairs(self):
        w = small_weights(channels=3)
        rng = np.random.default_rng(29)
        templates = rng.random((4, 3, 3, 3))
        searches = rng.random((4, 3, 9, 9))
        batch = head_forward(templates, searches, w)
        assert len(batch) == 4
        for i, (delta, quality) in enumerate(batch):
            assert head_forward(templates[i], searches[i], w) == (delta, quality)

    def test_pyramid_size_mismatch_rejected(self):
        w = small_weights()
        a = pyramid(1, size=16)
        b = FeaturePyramid(((4, np.zeros((2, 8, 8))),), 32, 32)
        with pytest.raises(ValueError, match="equal image size"):
            track(a, b, [], w, SMALL_CFG)


class TestTargetsAndLoss:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (0.5, 0.125), (2.0, 1.5), (-2.0, 1.5)])
    def test_smooth_l1_values(self, x, expected):
        assert smooth_l1(x) == pytest.approx(expected, abs=1e-15)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        xs = rng.uniform(-3, 3, 400)
        xs = xs[np.abs(np.abs(xs) - 1.0) > 2 * h]
        for x in xs:
            fd = (smooth_l1(x + h) - smooth_l1(x - h)) / (2 * h)
            assert abs(smooth_l1_grad(x) - fd) <= 1e-4


def make_gt(tracks, n_frames, video="v"):
    """tracks: list of dicts track -> (frame -> Box, class)."""
    records = []
    for tid, (boxes, cls) in enumerate(tracks):
        for frame, box in boxes.items():
            records.append(Detection(frame, cls, 1.0, box, track=tid))
    return VideoDetectionSet.from_records(video, records, n_frames=n_frames)


class TestOracleTrack:
    def setup_method(self):
        self.gt = make_gt(
            [
                ({0: Box(0, 0, 10, 10), 1: Box(2, 1, 12, 11), 2: Box(4, 2, 14, 12)}, 0),
                ({0: Box(30, 30, 40, 44), 1: Box(31, 30, 41, 44)}, 1),
            ],
            n_frames=3,
        )

    def test_zero_noise_exact(self):
        det = Detection(0, 0, 0.9, Box(0.2, 0.1, 10.1, 10.2))
        (pred,) = oracle_track([det], self.gt, NoiseParams(), seed=0)
        assert pred.predicted_box.corners() == (2, 1, 12, 11)
        assert pred.quality == 1.0

    def test_reproducible(self):
        dets = [
            Detection(0, 0, 0.9, Box(0, 0, 10, 10)),
            Detection(0, 1, 0.8, Box(30, 30, 40, 44)),
        ]
        noise = NoiseParams(center_sigma=1.0, size_sigma=0.05, failure_prob=0.3)
        a = oracle_track(dets, self.gt, noise, seed=7)
        b = oracle_track(dets, self.gt, noise, seed=7)
        assert [(p.predicted_box.corners(), p.quality) for p in a] == [
            (p.predicted_box.corners(), p.quality) for p in b
        ]

    def test_batch_independent(self):
        dets = [
            Detection(0, 0, 0.9, Box(0, 0, 10, 10)),
            Detection(0, 1, 0.8, Box(30, 30, 40, 44)),
        ]
        noise = NoiseParams(center_sigma=1.0)
        both = oracle_track(dets, self.gt, noise, seed=7)
        solo = oracle_track([dets[1]], self.gt, noise, seed=7)
        assert both[1].predicted_box.corners() == solo[0].predicted_box.corners()

    def test_unmatched_gets_low_quality(self):
        stray = Detection(0, 0, 0.9, Box(200, 200, 220, 220))
        (pred,) = oracle_track([stray], self.gt, NoiseParams(), seed=3)
        assert pred.quality < 0.5
        assert pred.predicted_box.corners() == stray.box.corners()

    def test_track_death_gets_low_quality(self):
        # track 1 has no frame-2 box
        det = Detection(1, 1, 0.9, Box(31, 30, 41, 44))
        (pred,) = oracle_track([det], self.gt, NoiseParams(), seed=3)
        assert pred.quality < 0.5

    def test_noise_lowers_quality(self):
        det = Detection(0, 0, 0.9, Box(0, 0, 10, 10))
        (pred,) = oracle_track([det], self.gt, NoiseParams(center_sigma=2.0), seed=5)
        assert 0.0 <= pred.quality < 1.0
        assert pred.quality == iou(pred.predicted_box, Box(2, 1, 12, 11))

    def test_track_fn_factory(self):
        fn = make_oracle_track_fn(self.gt, NoiseParams(), seed=0)
        dets = [Detection(0, 0, 0.9, Box(0, 0, 10, 10))]
        assert fn(dets)[0].quality == 1.0


class TestWeightsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        w = small_weights(seed=21)
        p1 = tmp_path / "w.tensors"
        p2 = tmp_path / "w2.tensors"
        save_weights(w, p1)
        w2 = load_weights(p1)
        save_weights(w2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(w.box_weight, w2.box_weight)
        assert np.array_equal(w.pre_template.kernel, w2.pre_template.kernel)
        assert w2.pre_search is None

    def test_separate_branches_round_trip(self, tmp_path):
        w = synthesize_weights(2, SMALL_CFG, seed=2, shared_head_channels=4, share_pre=False)
        p = tmp_path / "w.tensors"
        save_weights(w, p)
        w2 = load_weights(p)
        assert w2.pre_search is not None
        assert np.array_equal(w.pre_search.kernel, w2.pre_search.kernel)

    def test_missing_array_rejected(self, tmp_path):
        from vodtrack.evalio import load_named_arrays, save_named_arrays

        w = small_weights()
        p = tmp_path / "w.tensors"
        save_weights(w, p)
        arrays = load_named_arrays(p)
        del arrays["box_weight"]
        save_named_arrays(arrays, p)
        with pytest.raises(ValueError, match="missing weight array"):
            load_weights(p)


class TestPredictionType:
    def test_quality_range_validated(self):
        det = Detection(0, 0, 0.9, Box(0, 0, 1, 1))
        with pytest.raises(ValueError, match="quality"):
            TrackPrediction(det, det.box, 1.5)
