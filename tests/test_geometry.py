import math
from dataclasses import astuple

import numpy as np
import pytest

from vodtrack.geometry import (
    Box,
    RegressionDelta,
    decode,
    encode,
    expand,
    iou,
)


def shifted(b: Box, dx: float, dy: float) -> Box:
    return Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)


def random_box(rng, min_size=0.5, max_size=50.0, span=100.0) -> Box:
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    cx = rng.uniform(-span, span)
    cy = rng.uniform(-span, span)
    return Box.from_center(cx, cy, w, h)


class TestBox:
    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError, match="negative box extent"):
            Box(10, 0, 5, 10)
        with pytest.raises(ValueError, match="negative box extent"):
            Box(0, 10, 10, 5)

    def test_zero_area_allowed(self):
        b = Box(3, 4, 3, 4)
        assert b.area == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            Box(0, 0, math.nan, 1)
        with pytest.raises(ValueError, match="not finite"):
            Box(0, 0, math.inf, 1)

    def test_center_accessors(self):
        b = Box(8, 16, 12, 24)
        assert (b.cx, b.cy, b.w, b.h) == (10, 20, 4, 8)

    def test_corner_center_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = random_box(rng)
            r = Box.from_center(b.cx, b.cy, b.w, b.h)
            for got, want in zip(r.corners(), b.corners()):
                assert abs(got - want) <= 1e-12


class TestIou:
    def test_identity(self):
        a = Box(1, 2, 11, 22)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5*5=25, union 100+100-25=175
        got = iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15))
        assert got == pytest.approx(25 / 175, abs=1e-15)

    def test_zero_union(self):
        z = Box(5, 5, 5, 5)
        assert iou(z, z) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            ab, ba = iou(a, b), iou(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-40, 40, size=2)
            assert abs(iou(a, b) - iou(shifted(a, dx, dy), shifted(b, dx, dy))) <= 1e-12


class TestEncodeDecode:
    def test_encode_hand_example(self):
        b = Box.from_center(10, 20, 4, 8)
        g = Box.from_center(12, 16, 8, 4)
        d = encode(b, g)
        assert d.dx == pytest.approx(0.5, abs=1e-12)
        assert d.dy == pytest.approx(-0.5, abs=1e-12)
        assert d.dw == pytest.approx(math.log(2), abs=1e-12)
        assert d.dh == pytest.approx(-math.log(2), abs=1e-12)

    def test_encode_identity(self):
        b = Box.from_center(5, 6, 3, 7)
        assert astuple(encode(b, b)) == (0.0, 0.0, 0.0, 0.0)

    def test_encode_unit_example(self):
        b = Box.from_center(0, 0, 1, 1)
        g = Box.from_center(1, 1, math.e, math.e)
        d = encode(b, g)
        for got in astuple(d):
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_decode_zero_delta_is_identity(self):
        rng = np.random.default_rng(17)
        zero = RegressionDelta(0, 0, 0, 0)
        for _ in range(100):
            b = random_box(rng)
            p = decode(b, zero)
            assert p.corners() == b.corners()

    def test_decode_hand_example(self):
        b = Box.from_center(10, 20, 4, 8)
        p = decode(b, RegressionDelta(0.5, -0.5, math.log(2), -math.log(2)))
        assert p.cx == pytest.approx(12, abs=1e-12)
        assert p.cy == pytest.approx(16, abs=1e-12)
        assert p.w == pytest.approx(8, abs=1e-12)
        assert p.h == pytest.approx(4, abs=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            b, g = random_box(rng), random_box(rng)
            p = decode(b, encode(b, g))
            for got, want in zip(p.corners(), g.corners()):
                assert abs(got - want) <= 1e-9
            d = RegressionDelta(*rng.uniform(-1.5, 1.5, size=4))
            d2 = encode(b, decode(b, d))
            for got, want in zip(astuple(d2), astuple(d)):
                assert abs(got - want) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            b, g = random_box(rng), random_box(rng)
            s = rng.uniform(0.1, 10.0)
            bs = Box(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
            gs = Box(g.x1 * s, g.y1 * s, g.x2 * s, g.y2 * s)
            d, ds = encode(b, g), encode(bs, gs)
            for got, want in zip(astuple(ds), astuple(d)):
                assert abs(got - want) <= 1e-9

    def test_degenerate_boxes_rejected(self):
        flat = Box(0, 0, 10, 0)
        ok = Box(0, 0, 10, 10)
        with pytest.raises(ValueError, match="positive width and height"):
            encode(flat, ok)
        with pytest.raises(ValueError, match="positive width and height"):
            encode(ok, flat)
        with pytest.raises(ValueError, match="positive width and height"):
            decode(flat, RegressionDelta(0, 0, 0, 0))


class TestExpand:
    def test_hand_example(self):
        r = expand(Box.from_center(10, 10, 4, 6), 3)
        assert (r.cx, r.cy, r.w, r.h) == (10, 10, 12, 18)

    def test_identity(self):
        b = Box(1, 2, 3, 4)
        assert expand(b, 1.0).corners() == b.corners()

    def test_corners_example(self):
        r = expand(Box.from_center(0, 0, 2, 2), 2)
        assert r.corners() == (-2, -2, 2, 2)

    def test_preserves_center_and_aspect(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            b = random_box(rng, min_size=1.0)
            k = rng.uniform(1.0, 5.0)
            r = expand(b, k)
            assert abs(r.cx - b.cx) <= 1e-12 * max(1, abs(b.cx))
            assert abs(r.cy - b.cy) <= 1e-12 * max(1, abs(b.cy))
            assert abs(r.w / r.h - b.w / b.h) <= 1e-12 * (b.w / b.h)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            expand(Box(0, 0, 1, 1), 0.99)
