import numpy as np
import pytest

from oracles import (
    Box,
    channels_first,
    channels_last,
    naive_conv2d,
    naive_conv_block,
    naive_depthwise_correlate,
    naive_bilinear_resize,
    naive_max_pool_to,
    corner_array,
    oversampled_roi_align,
)
from vodtrack.geometry import expand
from vodtrack.tensor_ops import (
    ConvBlockWeights,
    FeaturePyramid,
    _max_pool_to,
    conv2d_same,
    conv_block,
    depthwise_correlate,
    fuse_pyramid,
    roi_align_full_avg,
)


def random_roi(rng, span=12.0, max_size=9.0) -> Box:
    w = rng.uniform(0.4, max_size)
    h = rng.uniform(0.4, max_size)
    cx = rng.uniform(-3.0, span)
    cy = rng.uniform(-3.0, span)
    return Box.from_center(cx, cy, w, h)


def pool_one(feat, roi: Box, out_h: int, out_w: int, stride: float) -> np.ndarray:
    """One RoI pooled alone: ``(out_h, out_w, C)``."""
    return roi_align_full_avg(feat, corner_array([roi]), out_h, out_w, stride)[0]


# A caller's argument that a kernel or the pyramid rejects before any work, and the message.
ARGUMENT_FAULTS = {
    "empty-map": (lambda: roi_align_full_avg(np.zeros((0, 4, 2)), [(0, 0, 1, 1)], 1, 1, 1.0),
                  "all tensor dimensions must be positive, got shape (0, 4, 2)"),
    "zero-image-size": (lambda: FeaturePyramid(((4, np.zeros((4, 4, 2))),), 0, 16), "image size must be positive"),
    "zero-output-size": (lambda: roi_align_full_avg(np.zeros((4, 4, 2)), [(0, 0, 1, 1)], 1, 0, 1.0),
                         "output size must be positive"),
    "zero-stride": (lambda: roi_align_full_avg(np.zeros((4, 4, 2)), [(0, 0, 1, 1)], 1, 1, 0.0),
                    "stride must be positive"),
    "three-axis-kernel": (lambda: conv2d_same(np.zeros((4, 4, 2)), np.zeros((3, 2, 3))),
                          "kernel must be (C_out, C_in, kh, kw), got shape (3, 2, 3)"),
}


@pytest.mark.parametrize("call, complaint", ARGUMENT_FAULTS.values(), ids=ARGUMENT_FAULTS.keys())
def test_argument_fault_rejected(call, complaint):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == complaint


class TestFeatureMaps:
    def test_rejects_bad_shapes(self):
        # A pyramid level and a pooled map are each exactly one (H, W, C) map.
        for bad in (np.zeros((3, 3)), np.zeros((1, 4, 4, 2))):
            with pytest.raises(ValueError, match=r"expected a channels-last \(H, W, C\)"):
                FeaturePyramid(((4, bad),), 16, 16)
            with pytest.raises(ValueError, match=r"expected a channels-last \(H, W, C\)"):
                roi_align_full_avg(bad, [(0, 0, 1, 1)], 1, 1, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            FeaturePyramid(((4, np.full((1, 1, 2), np.nan)),), 4, 4)
        with pytest.raises(ValueError, match="non-finite"):
            roi_align_full_avg(np.full((2, 2, 1), np.nan), [(0, 0, 1, 1)], 1, 1, 1.0)

    def test_pyramid_validates_strides_and_sizes(self):
        good = FeaturePyramid(((4, np.zeros((16, 16, 2))), (8, np.zeros((8, 8, 2)))), 64, 64)
        assert good.strides == (4, 8)
        with pytest.raises(ValueError, match="strictly increasing"):
            FeaturePyramid(((8, np.zeros((8, 8, 2))), (4, np.zeros((16, 16, 2)))), 64, 64)
        with pytest.raises(ValueError, match="inconsistent"):
            FeaturePyramid(((4, np.zeros((5, 16, 2))),), 64, 64)
        with pytest.raises(ValueError, match="inconsistent"):  # a channel-first map
            FeaturePyramid(((4, np.zeros((2, 16, 16))),), 64, 64)
        with pytest.raises(ValueError, match="at least one level"):
            FeaturePyramid((), 64, 64)


class TestRoiAlignFullAvg:
    def test_whole_map_example(self):
        feat = channels_last(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = pool_one(feat, Box(0, 0, 1, 1), 1, 1, 1.0)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2.5, abs=1e-12)

    def test_constant_field(self):
        feat = channels_last(np.full((3, 6, 6), 7.25))
        out = pool_one(feat, Box(0.7, 1.1, 4.3, 4.9), 5, 4, 1.0)
        assert np.allclose(out, 7.25, atol=1e-12)

    def test_fully_outside_is_zero(self):
        feat = channels_last(np.ones((2, 4, 4)))
        out = pool_one(feat, Box(50, 50, 60, 60), 3, 3, 1.0)
        assert np.all(out == 0.0)

    def test_zero_area_roi_is_zero(self):
        feat = channels_last(np.ones((1, 4, 4)))
        out = pool_one(feat, Box(2, 2, 2, 2), 2, 2, 1.0)
        assert np.all(out == 0.0)

    def test_stride_scaling(self):
        rng = np.random.default_rng(3)
        feat = channels_last(rng.random((2, 8, 8)))
        a = pool_one(feat, Box(8, 8, 40, 40), 4, 4, 8.0)
        b = pool_one(feat, Box(1, 1, 5, 5), 4, 4, 1.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_oversampled_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.integers(1, 4)
            feat = rng.random((c, 7, 7))
            roi = random_roi(rng)
            out = pool_one(channels_last(feat), roi, 3, 3, 1.0)
            ref = oversampled_roi_align(feat, roi.corners(), 3, 3, 1.0, samples=8)
            assert np.allclose(channels_first(out), ref, atol=1e-10)

    def test_expanded_roi_keeps_bin_scale(self):
        # 3x-expanded RoI pooled at 21x21 and the original at 7x7 cover the
        # same feature area per bin.
        b = Box.from_center(10.0, 9.0, 6.4, 4.2)
        e = Box(*expand(corner_array([b]), 3.0)[0])
        assert abs(b.w / 7 - e.w / 21) <= 1e-12
        assert abs(b.h / 7 - e.h / 21) <= 1e-12

    def test_batch_is_each_roi_alone_bit_for_bit(self):
        # Pooled together, in any order, each RoI gets the bits it gets alone,
        # however many band taps and window columns the other RoIs need.
        rng = np.random.default_rng(53)
        for _ in range(20):
            c = int(rng.integers(1, 5))
            feat = channels_last(rng.standard_normal((c, 12, 15)))
            rois = [random_roi(rng, span=18.0, max_size=14.0) for _ in range(int(rng.integers(2, 7)))]
            out_h, out_w = (int(v) for v in rng.integers(1, 9, 2))
            batch = roi_align_full_avg(feat, corner_array(rois), out_h, out_w, 1.0)
            assert batch.shape == (len(rois), out_h, out_w, c)
            order = rng.permutation(len(rois))
            permuted = roi_align_full_avg(feat, corner_array([rois[i] for i in order]), out_h, out_w, 1.0)
            for i, roi in enumerate(rois):
                alone = pool_one(feat, roi, out_h, out_w, 1.0)
                assert np.array_equal(batch[i], alone)
                assert np.array_equal(permuted[list(order).index(i)], alone)
        assert roi_align_full_avg(feat, [], 3, 2, 1.0).shape == (0, 3, 2, feat.shape[-1])

    def test_zero_width_roi_leaves_the_others_bits(self):
        # The bin edges of each RoI are its own arithmetic: a zero-width RoI
        # in the batch does not switch the others to another edge formula.
        rng = np.random.default_rng(97)
        feat = channels_last(rng.standard_normal((3, 20, 20)))
        for _ in range(20):
            rois = [random_roi(rng, span=18.0) for _ in range(3)]
            batch = roi_align_full_avg(feat, corner_array(rois + [Box(5.0, 5.0, 5.0, 9.0)]), 7, 7, 1.0)
            assert np.all(batch[-1] == 0.0)
            for i, roi in enumerate(rois):
                assert np.array_equal(batch[i], pool_one(feat, roi, 7, 7, 1.0))

    def test_one_bin_shift_is_bit_exact(self):
        # Bins m cells wide on whole cells: a map moved by m cells under a
        # fixed RoI moves the pooled output by one bin, exactly, because each
        # bin sums the same taps in the same order wherever it sits.
        rng = np.random.default_rng(59)
        for _ in range(50):
            feat = channels_last(rng.standard_normal((int(rng.integers(1, 5)), 9, 14)))
            m, out_w = int(rng.integers(1, 3)), int(rng.integers(2, 6))
            x1 = float(rng.integers(-2, 4))
            y1, y2 = sorted(rng.uniform(-2.0, 11.0, 2))
            roi = Box(x1, y1, x1 + m * out_w, y2)
            moved = np.zeros((9, 14 + m, feat.shape[-1]))
            moved[:, m:] = feat
            out_h = int(rng.integers(1, 6))
            base = pool_one(feat, roi, out_h, out_w, 1.0)
            shifted = pool_one(moved, roi, out_h, out_w, 1.0)
            assert np.array_equal(shifted[:, 1:], base[:, :-1])

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        feat = channels_last(rng.random((2, 9, 9)))
        roi = random_roi(rng)
        a = pool_one(feat, roi, 7, 7, 2.0)
        b = pool_one(feat, roi, 7, 7, 2.0)
        assert np.array_equal(a, b)


class TestDepthwiseCorrelate:
    def test_ones_counting(self):
        out = depthwise_correlate(np.ones((2, 2, 1)), np.ones((3, 3, 1)))
        assert out.shape == (2, 2, 1)
        assert np.all(out == 4.0)

    def test_one_hot_sifting(self):
        rng = np.random.default_rng(17)
        search = rng.random((6, 6, 1))
        for i, j in ((0, 0), (1, 2), (2, 1)):
            template = np.zeros((3, 3, 1))
            template[i, j, 0] = 1.0
            out = depthwise_correlate(template, search)
            assert np.allclose(out[..., 0], search[i : i + 4, j : j + 4, 0], atol=0)

    def test_default_shape(self):
        out = depthwise_correlate(np.zeros((7, 7, 4)), np.zeros((21, 21, 4)))
        assert out.shape == (15, 15, 4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            c = int(rng.integers(1, 4))
            template = rng.standard_normal((c, 3, 4))
            search = rng.standard_normal((c, 7, 9))
            out = channels_first(depthwise_correlate(channels_last(template), channels_last(search)))
            ref = naive_depthwise_correlate(template, search)
            assert np.allclose(out, ref, atol=1e-9)

    def test_one_cell_shift_is_bit_exact(self):
        # Moving the search map by one cell along either spatial axis moves
        # the output by exactly one cell: every output cell sums the same
        # products in the same order wherever its window sits.
        rng = np.random.default_rng(41)
        for _ in range(50):
            c = int(rng.integers(1, 9))
            ht, wt = (int(v) for v in rng.integers(2, 8, 2))
            hs, ws = ht + int(rng.integers(1, 15)), wt + int(rng.integers(1, 15))
            template = channels_last(rng.standard_normal((c, ht, wt)))
            search = channels_last(rng.standard_normal((c, hs, ws)))
            base = depthwise_correlate(template, search)
            down = depthwise_correlate(template, np.roll(search, 1, axis=0))
            right = depthwise_correlate(template, np.roll(search, 1, axis=1))
            assert np.array_equal(down[1:], base[:-1])
            assert np.array_equal(right[:, 1:], base[:, :-1])

    def test_batch_is_each_pair_alone_bit_for_bit(self):
        rng = np.random.default_rng(61)
        template = rng.standard_normal((5, 3, 4, 4))
        search = rng.standard_normal((5, 3, 11, 9))
        batch = depthwise_correlate(channels_last(template), channels_last(search))
        assert batch.shape == (5, 8, 6, 3)
        for i in range(5):
            alone = depthwise_correlate(channels_last(template[i]), channels_last(search[i]))
            assert np.array_equal(batch[i], alone)
            assert np.array_equal(batch[i], channels_last(naive_depthwise_correlate(template[i], search[i])))

    def test_linear_in_search(self):
        rng = np.random.default_rng(23)
        t = channels_last(rng.standard_normal((2, 3, 3)))
        s1 = channels_last(rng.standard_normal((2, 8, 8)))
        s2 = channels_last(rng.standard_normal((2, 8, 8)))
        a, b = 1.7, -0.4
        lhs = depthwise_correlate(t, a * s1 + b * s2)
        rhs = a * depthwise_correlate(t, s1) + b * depthwise_correlate(t, s2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            depthwise_correlate(np.zeros((3, 3, 2)), np.zeros((5, 5, 3)))
        with pytest.raises(ValueError, match="larger than search"):
            depthwise_correlate(np.zeros((6, 6, 2)), np.zeros((5, 5, 2)))
        # Leading axes must be equal; none broadcast.
        for t_lead, s_lead in (((2,), ()), ((), (2,)), ((1,), (3,)), ((2, 3), (3,))):
            with pytest.raises(ValueError, match="leading axes differ"):
                depthwise_correlate(np.zeros(t_lead + (3, 3, 2)), np.zeros(s_lead + (5, 5, 2)))


class TestConvBlock:
    @staticmethod
    def identity_block(c):
        kernel = np.zeros((c, c, 1, 1))
        for i in range(c):
            kernel[i, i, 0, 0] = 1.0
        return ConvBlockWeights(
            kernel=kernel,
            gamma=np.ones(c),
            beta=np.zeros(c),
            mean=np.zeros(c),
            var=np.full(c, 1.0 - 1e-5),
        )

    def test_identity_composition(self):
        rng = np.random.default_rng(29)
        x = rng.random((5, 5, 3))  # non-negative input
        out = conv_block(x, self.identity_block(3))
        assert np.allclose(out, x, atol=1e-9)

    def test_relu_saturation(self):
        rng = np.random.default_rng(31)
        x = rng.random((4, 4, 2))
        w = ConvBlockWeights(
            kernel=rng.standard_normal((2, 2, 3, 3)),
            gamma=np.ones(2),
            beta=np.full(2, -1e9),
            mean=np.zeros(2),
            var=np.ones(2),
        )
        assert np.all(conv_block(x, w) == 0.0)

    def test_matches_naive_oracle_and_golden(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((2, 4, 4))
        kernel = rng.standard_normal((3, 2, 3, 3))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.uniform(-0.5, 0.5, 3)
        mean = rng.uniform(-0.5, 0.5, 3)
        var = rng.uniform(0.5, 1.5, 3)
        bias = rng.uniform(-0.2, 0.2, 3)
        w = ConvBlockWeights(kernel=kernel, gamma=gamma, beta=beta, mean=mean, var=var, bias=bias)
        out = channels_first(conv_block(channels_last(x), w))
        ref = naive_conv_block(x, kernel, gamma, beta, mean, var, bias=bias)
        assert np.allclose(out, ref, atol=1e-9)
        # frozen spot values from the loop oracle (seed 37 fixture)
        assert out.sum() == pytest.approx(123.77482145554337, abs=1e-9)
        assert out[0, 0, 0] == pytest.approx(0.44609737479130396, abs=1e-9)
        assert out[1, 2, 3] == pytest.approx(0.0, abs=1e-12)
        assert out[2, 3, 1] == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        w = self.identity_block(3)
        with pytest.raises(ValueError, match="channels"):
            conv_block(np.zeros((4, 4, 2)), w)


class TestConv2dSame:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(67)
        for ksize in (1, 3):
            x = rng.standard_normal((3, 6, 5))
            kernel = rng.standard_normal((4, 3, ksize, ksize))
            bias = rng.standard_normal(4)
            out = channels_first(conv2d_same(channels_last(x), kernel, bias))
            assert np.allclose(out, naive_conv2d(x, kernel, bias), atol=1e-12)

    @staticmethod
    def shifted_pairs(rng, c_in):
        """Outputs for an input and for the input moved one cell down and
        right, cut to the cells whose windows stay off the border."""
        c_out = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3]))
        h, w = (int(v) for v in rng.integers(k + 2, 16, 2))
        x = channels_last(rng.standard_normal((c_in, h, w)))
        kernel = rng.standard_normal((c_out, c_in, k, k))
        p = k // 2
        base = conv2d_same(x, kernel)
        down = conv2d_same(np.roll(x, 1, axis=0), kernel)
        right = conv2d_same(np.roll(x, 1, axis=1), kernel)
        return [(down[p + 1 : h - p], base[p : h - p - 1]),
                (right[:, p + 1 : w - p], base[:, p : w - p - 1])]

    def test_one_cell_shift_is_bit_exact_on_one_channel(self):
        # With one input channel each tap adds one product per cell, and the
        # taps are summed in one fixed order wherever a window sits.
        rng = np.random.default_rng(71)
        for _ in range(100):
            for moved, base in self.shifted_pairs(rng, c_in=1):
                assert np.array_equal(moved, base)

    def test_one_cell_shift_within_rounding(self):
        # Past one input channel, each tap's channel sum is a BLAS matrix
        # product, which may round a row by where it sits in the product.
        rng = np.random.default_rng(73)
        for _ in range(200):
            for moved, base in self.shifted_pairs(rng, c_in=int(rng.integers(1, 9))):
                assert np.allclose(moved, base, rtol=0.0, atol=1e-14)

    def test_batch_is_each_input_alone_bit_for_bit(self):
        # Each leading index runs its own products; folding a batch into one
        # wider matrix product would round some cells differently.
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            c_in, c_out = (int(v) for v in rng.integers(1, 25, 2))
            k = int(rng.choice([1, 3]))
            h, w = (int(v) for v in rng.integers(3, 16, 2))
            x = channels_last(rng.standard_normal((n, c_in, h, w)))
            kernel = rng.standard_normal((c_out, c_in, k, k))
            bias = rng.standard_normal(c_out)
            batch = conv2d_same(x, kernel, bias)
            assert batch.shape == (n, h, w, c_out)
            for i in range(n):
                assert np.array_equal(batch[i], conv2d_same(x[i], kernel, bias))


class TestMaxPool:
    @pytest.mark.parametrize("shape,ratio,out", [
        ((8, 96, 128), 2, (48, 64)),
        ((8, 96, 128), 4, (24, 32)),
        ((8, 95, 127), 2, (48, 64)),
        ((8, 95, 127), 4, (24, 32)),
        ((3, 96, 96), 2, (49, 49)),
        ((3, 9, 7), 2, (8, 6)),
        ((2, 9, 7), 3, (2, 1)),
        ((2, 1, 1), 4, (3, 2)),
    ])
    def test_matches_per_cell_loop(self, shape, ratio, out):
        # Includes outputs past h / ratio (blocks clamped onto the last cell)
        # and short of it (cells past the last block left out).
        arr = np.random.default_rng(79).standard_normal(shape)
        got = _max_pool_to(channels_last(arr), *out, ratio)
        assert got.shape == out + (shape[0],)
        assert np.array_equal(got, channels_last(naive_max_pool_to(arr, *out, ratio)))

    def test_random_shapes_match_per_cell_loop(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            h, w = (int(v) for v in rng.integers(1, 30, 2))
            ratio = int(rng.integers(1, 6))
            out_h, out_w = (int(v) for v in rng.integers(1, 2 + 30 // ratio, 2))
            arr = rng.standard_normal((int(rng.integers(1, 4)), h, w))
            assert np.array_equal(_max_pool_to(channels_last(arr), out_h, out_w, ratio),
                                  channels_last(naive_max_pool_to(arr, out_h, out_w, ratio)))


class TestFusePyramid:
    def test_single_level_identity(self):
        rng = np.random.default_rng(41)
        fmap = channels_last(rng.random((3, 8, 8)))
        pyr = FeaturePyramid(((4, fmap),), 32, 32)
        assert np.array_equal(fuse_pyramid(pyr, 4), fmap)

    def test_channel_concatenation(self):
        pyr = FeaturePyramid(
            ((4, np.zeros((16, 16, 8))), (8, np.zeros((8, 8, 8)))), 64, 64
        )
        out = fuse_pyramid(pyr, 8)
        assert out.shape == (8, 8, 16)

    def test_constant_levels_stay_constant(self):
        pyr = FeaturePyramid(
            ((4, np.full((16, 16, 2), 3.0)), (8, np.full((8, 8, 2), 5.0)),
             (16, np.full((4, 4, 2), 7.0))),
            64, 64,
        )
        out = fuse_pyramid(pyr, 8)
        assert np.allclose(out[..., :2], 3.0, atol=1e-12)   # max-pooled down
        assert np.allclose(out[..., 2:4], 5.0, atol=1e-12)  # target level
        assert np.allclose(out[..., 4:], 7.0, atol=1e-12)   # interpolated up

    def test_max_pool_semantics(self):
        fine = np.zeros((1, 8, 8))
        fine[0, 3, 5] = 9.0
        pyr = FeaturePyramid(((4, channels_last(fine)), (8, np.zeros((4, 4, 1)))), 32, 32)
        out = fuse_pyramid(pyr, 8)
        assert out[1, 2, 0] == 9.0

    def test_matches_per_cell_oracles(self):
        # Non-square levels, so that a swapped row and column axis shows.
        rng = np.random.default_rng(43)
        fine, mid, coarse = rng.random((2, 12, 20)), rng.random((3, 6, 10)), rng.random((2, 3, 5))
        pyr = FeaturePyramid(((4, channels_last(fine)), (8, channels_last(mid)),
                              (16, channels_last(coarse))), 48, 80)
        want = np.concatenate([naive_max_pool_to(fine, 6, 10, 2), mid, naive_bilinear_resize(coarse, 6, 10)])
        assert np.allclose(channels_first(fuse_pyramid(pyr, 8)), want, rtol=0.0, atol=1e-12)

    def test_missing_target_stride(self):
        pyr = FeaturePyramid(((4, np.zeros((8, 8, 1))),), 32, 32)
        with pytest.raises(ValueError, match="not present"):
            fuse_pyramid(pyr, 16)
