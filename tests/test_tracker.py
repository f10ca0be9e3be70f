import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    Box,
    Detection,
    box_iou,
    channels_first,
    channels_last,
    naive_conv2d,
    naive_conv_block,
    naive_depthwise_correlate,
    naive_head,
    oversampled_roi_align,
    records_set,
    track_records,
)
import vodtrack.tracker as tracker
from vodtrack.evalio import load_named_arrays
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import (
    NoiseParams,
    TrackerConfig,
    fuse_for_head,
    head_forward,
    load_weights,
    make_oracle_track_fn,
    save_weights,
    smooth_l1,
    smooth_l1_grad,
    synthesize_weights,
)

SMALL_CFG = TrackerConfig(template_pool=3, search_pool=9)


def track(feat_t, feat_t1, dets, w, cfg=TrackerConfig()):
    """``tracker.track`` with ``w`` folded for ``cfg``, on detection records, read back as one prediction per record."""
    head = w.fold(cfg.corr_size, cfg.corr_size)
    return track_records(lambda boxes, frame, class_id: tracker.track(feat_t, feat_t1, boxes, head, cfg), dets)


def oracle_track(dets, gt, noise, seed):
    """``tracker.oracle_track`` on detection records, read back as one prediction per record."""
    return track_records(
        lambda boxes, frame, class_id: tracker.oracle_track(boxes, frame, class_id, gt, noise, seed), dets)


def small_weights(seed=11, channels=2):
    return synthesize_weights(channels, SMALL_CFG, seed=seed, shared_head_channels=5)


def with_search_branch(w):
    """``w`` with a pre block of its own for the search branch: the template's, negated."""
    return dataclasses.replace(w, pre_search=dataclasses.replace(w.pre_template, kernel=-w.pre_template.kernel))


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
        ((stride, channels_last(rng.random((channels, size, size)))),), size * stride, size * stride
    )


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert (cfg.k, cfg.template_pool, cfg.search_pool) == (3.0, 7, 21)
        assert cfg.corr_size == 15

    def test_pool_consistency_enforced(self):
        with pytest.raises(ValueError, match="at least template_pool"):
            TrackerConfig(template_pool=7, search_pool=4)


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
        pyr_t = FeaturePyramid(((4, channels_last(map_t)),), 64, 64)
        pyr_t1 = FeaturePyramid(((4, channels_last(map_t1)),), 64, 64)
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
        template = channels_last(rng.random((3, 7, 7)))
        search = channels_last(rng.random((3, 21, 21)))
        _, _, inter = head_forward(template, search, w.fold(15, 15, keep_conv=True), return_intermediates=True)
        assert inter["template"].shape == (7, 7, 3)
        assert inter["search"].shape == (21, 21, 3)
        assert inter["correlation"].shape == (15, 15, 3)
        assert inter["shared"].shape == (15, 15, 256)

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
        pyr = FeaturePyramid(((4, channels_last(base_t1)),), 64, 64)
        pyr_p = FeaturePyramid(((4, channels_last(perturbed)),), 64, 64)
        a = track(pyramid(101), pyr, [far, near], w, SMALL_CFG)
        b = track(pyramid(101), pyr_p, [far, near], w, SMALL_CFG)
        assert a[0].predicted_box.corners() != b[0].predicted_box.corners()
        for got, want in zip(b[1].predicted_box.corners(), a[1].predicted_box.corners()):
            assert abs(got - want) <= 1e-12
        assert abs(b[1].quality - a[1].quality) <= 1e-12

    def test_translation_equivariance_one_cell(self):
        # Shift the next-frame pattern by one stride unit: the correlation map
        # shifts by exactly one cell (bit-exact on integer-aligned boxes).
        cfg = TrackerConfig(template_pool=7, search_pool=21)
        w = synthesize_weights(1, cfg, seed=3, shared_head_channels=4)
        base = np.zeros((1, 40, 40))
        base[0, 18:25, 16:23] = np.random.default_rng(8).random((7, 7)) + 1.0
        shifted = np.roll(base, 1, axis=2)
        box = Detection(0, 0, 0.9, Box(16.0, 18.0, 23.0, 25.0))
        template = np.random.default_rng(9).random((1, 40, 40))

        def corr_map(search_map):
            from vodtrack.geometry import expand
            from vodtrack.tensor_ops import roi_align_full_avg

            rois = np.array([box.box.corners()])
            tpl = roi_align_full_avg(channels_last(template), rois, 7, 7, 1.0)[0]
            srch = roi_align_full_avg(channels_last(search_map), expand(rois, 3.0), 21, 21, 1.0)[0]
            _, _, inter = head_forward(tpl, srch, w.fold(15, 15), return_intermediates=True)
            return inter["correlation"]

        c0 = corr_map(base)
        c1 = corr_map(shifted)
        assert np.array_equal(c1[:, 1:], c0[:, :-1])

    def test_batch_invariance(self):
        # Each box's prediction has the same bits tracked alone, with the
        # frame's other boxes, or with those boxes in another order, though
        # the boxes need different band taps and pooling windows.
        cfg = TrackerConfig()
        w = synthesize_weights(16, cfg, seed=13, shared_head_channels=8)
        rng = np.random.default_rng(17)
        pyr_t = FeaturePyramid(((8, channels_last(rng.standard_normal((16, 20, 24)))),), 160, 192)
        pyr_t1 = FeaturePyramid(((8, channels_last(rng.standard_normal((16, 20, 24)))),), 160, 192)
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

    def test_head_forward_batch_matches_single_pairs(self):
        w = small_weights(channels=3).fold(7, 7)
        rng = np.random.default_rng(29)
        templates = channels_last(rng.random((4, 3, 3, 3)))
        searches = channels_last(rng.random((4, 3, 9, 9)))
        deltas, qualities = head_forward(templates, searches, w)
        assert deltas.shape == (4, 4) and qualities.shape == (4,)
        for i, (delta, quality) in enumerate(zip(deltas, qualities)):
            alone_delta, alone_quality = head_forward(templates[i], searches[i], w)
            assert np.array_equal(alone_delta, delta) and alone_quality == quality

    def test_pyramid_size_mismatch_rejected(self):
        w = small_weights()
        a = pyramid(1, size=16)
        b = FeaturePyramid(((4, np.zeros((8, 8, 2))),), 32, 32)
        with pytest.raises(ValueError, match="equal image size"):
            track(a, b, [], w, SMALL_CFG)

    def test_pyramids_not_fused_at_one_stride_rejected(self):
        # track takes one-level pyramids at one stride, as fuse_for_head makes them, and
        # checks them before it returns on a frame without boxes.
        w = small_weights()
        rng = np.random.default_rng(23)
        two_level = FeaturePyramid(
            ((4, channels_last(rng.random((1, 16, 16)))), (8, channels_last(rng.random((1, 8, 8))))), 64, 64)
        fused = fuse_for_head(two_level, SMALL_CFG)
        assert fused.strides == (8,)
        pairs = {"(4, 8) and (4, 8)": (two_level, two_level), "(8,) and (4, 8)": (fused, two_level),
                 "(4,) and (8,)": (pyramid(1, size=16, stride=4), pyramid(2, size=8, stride=8))}
        for strides, pair in pairs.items():
            for dets in ([Detection(0, 0, 0.9, Box(12.3, 8.7, 30.1, 26.6))], []):
                with pytest.raises(ValueError) as info:
                    track(*pair, dets, w, SMALL_CFG)
                assert str(info.value) == f"pyramids must be fused at one stride, got strides {strides}"


def head_weights(kernel, n_cells, channels=3, shared=5, seed=0):
    """Random weights with a ``(shared, channels, *kernel)`` head conv and FC heads over ``n_cells`` cells."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape)

    n_flat = shared * n_cells
    return dataclasses.replace(
        synthesize_weights(channels, SMALL_CFG, seed=seed, shared_head_channels=shared),
        head_kernel=u(shared, channels, *kernel), head_bias=u(shared),
        box_weight=u(4, n_flat), box_bias=u(4), score_weight=u(1, n_flat), score_bias=u(1),
    )


class TestFoldedHead:
    # (template, search) pooled sizes: the small config, a non-square map,
    # and the pool sizes of TrackerConfig(template_pool=5, search_pool=11).
    SIZES = {
        "pool-3-9": ((3, 3), (9, 9)),
        "non-square": ((3, 3), (9, 12)),
        "pool-5-11": ((5, 5), (11, 11)),
    }

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 5)])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_fold_matches_unfolded_head(self, kernel, sizes):
        (th, tw), (sh, sw) = self.SIZES[sizes]
        h, wd = sh - th + 1, sw - tw + 1
        w = head_weights(kernel, h * wd, seed=kernel[0] * 100 + sh * 10 + sw)
        rng = np.random.default_rng(sh * sw)
        templates, searches = rng.random((3, 3, th, tw)), rng.random((3, 3, sh, sw))
        head = w.fold(h, wd, keep_conv=True)
        deltas, qualities, inter = head_forward(channels_last(templates), channels_last(searches), head,
                                                return_intermediates=True)
        assert inter["adjusted"].shape == (3, h, wd, 3)
        for pair, delta, quality in zip(inter["adjusted"], deltas, qualities):
            want = naive_head(channels_first(pair), w)
            assert np.max(np.abs(head.matrix @ pair.ravel() + head.bias - want)) <= 1e-12
            assert np.max(np.abs(delta - want[:4])) <= 1e-12
            assert abs(quality - 1.0 / (1.0 + math.exp(-want[4]))) <= 1e-12
        shared = naive_conv2d(channels_first(inter["adjusted"][-1]), w.head_kernel, w.head_bias)
        assert np.max(np.abs(channels_first(inter["shared"]) - shared)) <= 1e-12

    def test_map_size_mismatch_rejected(self):
        w = head_weights((3, 3), 7 * 7)
        with pytest.raises(ValueError, match="flattened head input has 320 values, FC heads expect 245"):
            w.fold(8, 8)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=r"map of size \(8, 8\), but the head is folded for \(7, 7\)"):
            head_forward(rng.random((3, 3, 3)), rng.random((10, 10, 3)), w.fold(7, 7))
        assert w.fold(7, 7).matrix.shape == (5, 3 * 7 * 7)
        # Two map sizes of one flattened length: a fold serves only its own.
        w36 = head_weights((3, 3), 36)
        with pytest.raises(ValueError, match=r"map of size \(4, 9\), but the head is folded for \(6, 6\)"):
            head_forward(rng.random((2, 3, 3, 3)), rng.random((2, 6, 11, 3)), w36.fold(6, 6))
        assert head_forward(rng.random((2, 3, 3, 3)), rng.random((2, 6, 11, 3)), w36.fold(4, 9))[0].shape == (2, 4)

    @pytest.mark.parametrize("keep_conv", [False, True])
    def test_fold_views_no_loaded_array(self, tmp_path, monkeypatch, keep_conv):
        path = tmp_path / "head.tensors"
        save_weights(with_search_branch(synthesize_weights(2, SMALL_CFG, seed=5, shared_head_channels=5)), path)
        loaded = []

        def recorded(p):
            arrays = load_named_arrays(p)
            loaded.extend(arrays.values())
            return arrays

        monkeypatch.setattr(tracker, "load_named_arrays", recorded)
        w = load_weights(path)
        assert any(np.shares_memory(w.post.kernel, b) for b in loaded)  # the weights view the payload
        head = w.fold(7, 7, keep_conv=keep_conv)
        arrays = [head.matrix, head.bias, head.head_kernel, head.head_bias]
        arrays += [getattr(block, f.name) for block in (head.pre_template, head.pre_search, head.post)
                   for f in dataclasses.fields(block) if f.name != "eps"]
        assert (head.head_kernel is not None) == keep_conv
        assert not any(np.shares_memory(a, b) for a in arrays if a is not None for b in loaded)


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
    return records_set(video, records, n_frames=n_frames)


class TestOracleTrack:
    def setup_method(self):
        self.gt = make_gt(
            [
                ({0: Box(0, 0, 10, 10), 1: Box(2, 1, 12, 11), 2: Box(4, 2, 14, 12)}, 0),
                ({0: Box(30, 30, 40, 44), 1: Box(31, 30, 41, 44)}, 1),
            ],
            n_frames=3,
        )

    def test_equal_overlap_matches_last_object(self):
        # Two objects share the frame-0 box, so the box overlaps both exactly
        # as much; the later object in the frame wins.
        first, second = Box(2, 1, 12, 11), Box(50, 50, 60, 60)
        gt = make_gt([({0: Box(0, 0, 10, 10), 1: first}, 0), ({0: Box(0, 0, 10, 10), 1: second}, 0)],
                     n_frames=2)
        (pred,) = oracle_track([Detection(0, 0, 0.9, Box(0, 0, 10, 10))], gt, NoiseParams(), seed=0)
        assert pred.predicted_box == second
        swapped = make_gt([({0: Box(0, 0, 10, 10), 1: second}, 0), ({0: Box(0, 0, 10, 10), 1: first}, 0)],
                          n_frames=2)
        (pred,) = oracle_track([Detection(0, 0, 0.9, Box(0, 0, 10, 10))], swapped, NoiseParams(), seed=0)
        assert pred.predicted_box == first

    def test_overlap_at_match_floor_matches(self):
        at_floor = Detection(0, 0, 0.9, Box(0, 0, 10, 5))  # IoU exactly 0.5 with object 0
        below = Detection(0, 0, 0.9, Box(0, 0, 10, 4.999))
        hit, miss = oracle_track([at_floor, below], self.gt, NoiseParams(), seed=0)
        assert hit.predicted_box == Box(2, 1, 12, 11) and hit.quality == 1.0
        assert miss.predicted_box == below.box and miss.quality < 0.5

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
        assert pred.quality == box_iou(pred.predicted_box, Box(2, 1, 12, 11))

    def test_track_fn_factory(self):
        fn = make_oracle_track_fn(self.gt, NoiseParams(), seed=0)
        dets = [Detection(0, 0, 0.9, Box(0, 0, 10, 10))]
        assert track_records(fn, dets)[0].quality == 1.0


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
        w = with_search_branch(synthesize_weights(2, SMALL_CFG, seed=2, shared_head_channels=4))
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
