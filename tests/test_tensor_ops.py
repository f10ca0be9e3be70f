import numpy as np
import pytest

from oracles import naive_conv_block, naive_depthwise_correlate, oversampled_roi_align
from vodtrack.geometry import Box, expand
from vodtrack.tensor_ops import (
    ConvBlockWeights,
    FeaturePyramid,
    as_tensor3,
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


class TestTensor3:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="expected a"):
            as_tensor3(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            as_tensor3(np.full((1, 2, 2), np.nan))

    def test_pyramid_validates_strides_and_sizes(self):
        good = FeaturePyramid(((4, np.zeros((2, 16, 16))), (8, np.zeros((2, 8, 8)))), 64, 64)
        assert good.strides == (4, 8)
        with pytest.raises(ValueError, match="strictly increasing"):
            FeaturePyramid(((8, np.zeros((2, 8, 8))), (4, np.zeros((2, 16, 16)))), 64, 64)
        with pytest.raises(ValueError, match="inconsistent"):
            FeaturePyramid(((4, np.zeros((2, 5, 16))),), 64, 64)
        with pytest.raises(ValueError, match="at least one level"):
            FeaturePyramid((), 64, 64)


class TestRoiAlignFullAvg:
    def test_whole_map_example(self):
        feat = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = roi_align_full_avg(feat, Box(0, 0, 1, 1), 1, 1, 1.0)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2.5, abs=1e-12)

    def test_constant_field(self):
        feat = np.full((3, 6, 6), 7.25)
        out = roi_align_full_avg(feat, Box(0.7, 1.1, 4.3, 4.9), 5, 4, 1.0)
        assert np.allclose(out, 7.25, atol=1e-12)

    def test_fully_outside_is_zero(self):
        feat = np.ones((2, 4, 4))
        out = roi_align_full_avg(feat, Box(50, 50, 60, 60), 3, 3, 1.0)
        assert np.all(out == 0.0)

    def test_zero_area_roi_is_zero(self):
        feat = np.ones((1, 4, 4))
        out = roi_align_full_avg(feat, Box(2, 2, 2, 2), 2, 2, 1.0)
        assert np.all(out == 0.0)

    def test_stride_scaling(self):
        rng = np.random.default_rng(3)
        feat = rng.random((2, 8, 8))
        a = roi_align_full_avg(feat, Box(8, 8, 40, 40), 4, 4, 8.0)
        b = roi_align_full_avg(feat, Box(1, 1, 5, 5), 4, 4, 1.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_oversampled_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.integers(1, 4)
            feat = rng.random((c, 7, 7))
            roi = random_roi(rng)
            out = roi_align_full_avg(feat, roi, 3, 3, 1.0)
            ref = oversampled_roi_align(feat, roi.corners(), 3, 3, 1.0, samples=8)
            assert np.allclose(out, ref, atol=1e-10)

    def test_expanded_roi_keeps_bin_scale(self):
        # 3x-expanded RoI pooled at 21x21 and the original at 7x7 cover the
        # same feature area per bin.
        b = Box.from_center(10.0, 9.0, 6.4, 4.2)
        e = expand(b, 3.0)
        assert abs(b.w / 7 - e.w / 21) <= 1e-12
        assert abs(b.h / 7 - e.h / 21) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        feat = rng.random((2, 9, 9))
        roi = random_roi(rng)
        a = roi_align_full_avg(feat, roi, 7, 7, 2.0)
        b = roi_align_full_avg(feat, roi, 7, 7, 2.0)
        assert np.array_equal(a, b)


class TestDepthwiseCorrelate:
    def test_ones_counting(self):
        out = depthwise_correlate(np.ones((1, 2, 2)), np.ones((1, 3, 3)))
        assert out.shape == (1, 2, 2)
        assert np.all(out == 4.0)

    def test_one_hot_sifting(self):
        rng = np.random.default_rng(17)
        search = rng.random((1, 6, 6))
        for i, j in ((0, 0), (1, 2), (2, 1)):
            template = np.zeros((1, 3, 3))
            template[0, i, j] = 1.0
            out = depthwise_correlate(template, search)
            assert np.allclose(out[0], search[0, i : i + 4, j : j + 4], atol=0)

    def test_default_shape(self):
        out = depthwise_correlate(np.zeros((4, 7, 7)), np.zeros((4, 21, 21)))
        assert out.shape == (4, 15, 15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            c = int(rng.integers(1, 4))
            template = rng.standard_normal((c, 3, 4))
            search = rng.standard_normal((c, 7, 9))
            out = depthwise_correlate(template, search)
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
            template = rng.standard_normal((c, ht, wt))
            search = rng.standard_normal((c, hs, ws))
            base = depthwise_correlate(template, search)
            down = depthwise_correlate(template, np.roll(search, 1, axis=1))
            right = depthwise_correlate(template, np.roll(search, 1, axis=2))
            assert np.array_equal(down[:, 1:, :], base[:, :-1, :])
            assert np.array_equal(right[:, :, 1:], base[:, :, :-1])

    def test_linear_in_search(self):
        rng = np.random.default_rng(23)
        t = rng.standard_normal((2, 3, 3))
        s1 = rng.standard_normal((2, 8, 8))
        s2 = rng.standard_normal((2, 8, 8))
        a, b = 1.7, -0.4
        lhs = depthwise_correlate(t, a * s1 + b * s2)
        rhs = a * depthwise_correlate(t, s1) + b * depthwise_correlate(t, s2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            depthwise_correlate(np.zeros((2, 3, 3)), np.zeros((3, 5, 5)))
        with pytest.raises(ValueError, match="larger than search"):
            depthwise_correlate(np.zeros((2, 6, 6)), np.zeros((2, 5, 5)))


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
        x = rng.random((3, 5, 5))  # non-negative input
        out = conv_block(x, self.identity_block(3))
        assert np.allclose(out, x, atol=1e-9)

    def test_relu_saturation(self):
        rng = np.random.default_rng(31)
        x = rng.random((2, 4, 4))
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
        out = conv_block(x, w)
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
            conv_block(np.zeros((2, 4, 4)), w)


class TestFusePyramid:
    def test_single_level_identity(self):
        rng = np.random.default_rng(41)
        fmap = rng.random((3, 8, 8))
        pyr = FeaturePyramid(((4, fmap),), 32, 32)
        assert np.array_equal(fuse_pyramid(pyr, 4), fmap)

    def test_channel_concatenation(self):
        pyr = FeaturePyramid(
            ((4, np.zeros((8, 16, 16))), (8, np.zeros((8, 8, 8)))), 64, 64
        )
        out = fuse_pyramid(pyr, 8)
        assert out.shape == (16, 8, 8)

    def test_constant_levels_stay_constant(self):
        pyr = FeaturePyramid(
            ((4, np.full((2, 16, 16), 3.0)), (8, np.full((2, 8, 8), 5.0)),
             (16, np.full((2, 4, 4), 7.0))),
            64, 64,
        )
        out = fuse_pyramid(pyr, 8)
        assert np.allclose(out[:2], 3.0, atol=1e-12)   # max-pooled down
        assert np.allclose(out[2:4], 5.0, atol=1e-12)  # target level
        assert np.allclose(out[4:], 7.0, atol=1e-12)   # interpolated up

    def test_max_pool_semantics(self):
        fine = np.zeros((1, 8, 8))
        fine[0, 3, 5] = 9.0
        pyr = FeaturePyramid(((4, fine), (8, np.zeros((1, 4, 4)))), 32, 32)
        out = fuse_pyramid(pyr, 8)
        assert out[0, 1, 2] == 9.0

    def test_missing_target_stride(self):
        pyr = FeaturePyramid(((4, np.zeros((1, 8, 8))),), 32, 32)
        with pytest.raises(ValueError, match="not present"):
            fuse_pyramid(pyr, 16)
