import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_iou, decode_reference, expand_reference, perturb_reference
from vodtrack.geometry import (
    MAX_COORDINATE,
    _move_and_scale,
    check_corners,
    decode,
    encode,
    expand,
    iou,
)


def rows(*boxes) -> np.ndarray:
    """Corner tuples as an ``(n, 4)`` array."""
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def from_center(cx, cy, w, h) -> tuple[float, float, float, float]:
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def center_size(box) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = box
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)


def shifted(b, dx: float, dy: float):
    return (b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy)


def random_box(rng, min_size=0.5, max_size=50.0, span=100.0):
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    cx = rng.uniform(-span, span)
    cy = rng.uniform(-span, span)
    return from_center(cx, cy, w, h)


class TestCheckCorners:
    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError, match="negative box extent"):
            check_corners(rows((10, 0, 5, 10)))
        with pytest.raises(ValueError, match="negative box extent"):
            check_corners(rows((0, 10, 10, 5)))

    def test_zero_area_allowed(self):
        boxes = rows((3, 4, 3, 4), (0, 0, 5, 0))
        assert check_corners(boxes) is boxes

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                check_corners(rows((0, 0, 1, 1), (0, 0, bad, 1)))

    def test_coordinate_bound(self):
        assert len(check_corners(rows((-MAX_COORDINATE, 0, MAX_COORDINATE, 1)))) == 1
        for box in ((0, 0, 2 * MAX_COORDINATE, 1), (-1e19, 0, 0, 1)):
            with pytest.raises(ValueError, match=r"lie within ±2\*\*53"):
                check_corners(rows(box))

    def test_names_the_first_bad_row(self):
        with pytest.raises(ValueError, match=r"negative box extent: \[2\.0, 0\.0, 1\.0, 1\.0\]"):
            check_corners(rows((0, 0, 1, 1), (2, 0, 1, 1), (0, 0, math.nan, 1)))

    def test_empty(self):
        assert check_corners(np.zeros((0, 4))).shape == (0, 4)


def pair_iou(a, b) -> float:
    """One entry of the kernel, for tests about a single pair."""
    return iou(rows(a), rows(b))[0, 0]


def kernel_test_boxes(rng, n: int) -> np.ndarray:
    """Random boxes, most on a quarter-pixel grid so that edges are often
    shared; a tenth of them have zero width and a tenth zero height."""
    boxes = []
    for _ in range(n):
        x1, y1 = rng.integers(0, 40, 2) / 4.0
        w, h = rng.integers(1, 40, 2) / 4.0
        kind = rng.uniform()
        if kind < 0.1:
            w = 0.0
        elif kind < 0.2:
            h = 0.0
        elif kind < 0.5:
            x1, y1, w, h = rng.uniform(0, 10, 4)
        boxes.append((x1, y1, x1 + w, y1 + h))
    return rows(*boxes)


class TestIou:
    def test_identity(self):
        a = (1, 2, 11, 22)
        assert pair_iou(a, a) == 1.0

    def test_disjoint(self):
        assert pair_iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5*5=25, union 100+100-25=175
        got = pair_iou((0, 0, 10, 10), (5, 5, 15, 15))
        assert got == pytest.approx(25 / 175, abs=1e-15)

    def test_zero_union(self):
        z = (5, 5, 5, 5)
        assert pair_iou(z, z) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            ab, ba = pair_iou(a, b), pair_iou(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-40, 40, size=2)
            assert abs(pair_iou(a, b) - pair_iou(shifted(a, dx, dy), shifted(b, dx, dy))) <= 1e-12

    def test_matrix_equals_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        a = kernel_test_boxes(rng, 120)
        b = np.concatenate([kernel_test_boxes(rng, 90), a[:10]])  # identical pairs too
        got = iou(a, b)
        want = np.array([[box_iou(x, y) for y in b.tolist()] for x in a.tolist()])
        assert got.shape == (120, 100) and got.dtype == np.float64
        assert np.array_equal(got, want)
        # the fixture covers every edge case it claims to
        assert (a[:, 2] == a[:, 0]).any() and (a[:, 3] == a[:, 1]).any()
        assert (a[:, 2, None] == b[None, :, 0]).any()
        assert (got == 1.0).any() and (got == 0.0).any() and ((got > 0.0) & (got < 1.0)).any()

    def test_empty_inputs(self):
        boxes = rows((0, 0, 1, 1), (2, 2, 3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou(rows(), boxes).shape == (0, 2)
            assert iou(boxes, rows()).shape == (2, 0)
            assert iou(rows(), rows()).shape == (0, 0)

    def test_matrix_symmetry(self):
        rng = np.random.default_rng(19)
        a, b = kernel_test_boxes(rng, 40), kernel_test_boxes(rng, 30)
        assert np.array_equal(iou(a, b), iou(b, a).T)
        m = iou(a, a)
        assert np.array_equal(m, m.T)

    def test_overflowing_extent_matches_reference_without_warning(self):
        boxes = rows((-1e308, 0, 1e308, 1), (-1e308, -1e308, 1e308, 1e308), (0, 0, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = iou(boxes, boxes)
            want = np.array([[box_iou(x, y) for y in boxes.tolist()] for x in boxes.tolist()])
        assert np.array_equal(got, want, equal_nan=True)


class TestEncodeDecode:
    def test_encode_hand_example(self):
        b = rows(from_center(10, 20, 4, 8))
        g = rows(from_center(12, 16, 8, 4))
        dx, dy, dw, dh = encode(b, g)[0]
        assert dx == pytest.approx(0.5, abs=1e-12)
        assert dy == pytest.approx(-0.5, abs=1e-12)
        assert dw == pytest.approx(math.log(2), abs=1e-12)
        assert dh == pytest.approx(-math.log(2), abs=1e-12)

    def test_encode_identity(self):
        b = rows(from_center(5, 6, 3, 7))
        assert encode(b, b).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_encode_unit_example(self):
        b = rows(from_center(0, 0, 1, 1))
        g = rows(from_center(1, 1, math.e, math.e))
        for got in encode(b, g)[0]:
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_decode_zero_delta_is_identity(self):
        rng = np.random.default_rng(17)
        b = rows(*(random_box(rng) for _ in range(100)))
        assert np.array_equal(decode(b, np.zeros((100, 4))), b)

    def test_decode_hand_example(self):
        b = rows(from_center(10, 20, 4, 8))
        p = decode(b, rows((0.5, -0.5, math.log(2), -math.log(2))))[0]
        for got, want in zip(center_size(p), (12, 16, 8, 4)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            b, g = rows(random_box(rng)), rows(random_box(rng))
            p = decode(b, encode(b, g))
            assert np.max(np.abs(p - g)) <= 1e-9
            d = rows(rng.uniform(-1.5, 1.5, size=4))
            d2 = encode(b, decode(b, d))
            assert np.max(np.abs(d2 - d)) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            b, g = rows(random_box(rng)), rows(random_box(rng))
            s = rng.uniform(0.1, 10.0)
            d, ds = encode(b, g), encode(b * s, g * s)
            assert np.max(np.abs(ds - d)) <= 1e-9

    def test_degenerate_boxes_rejected(self):
        flat = rows((0, 0, 10, 0))
        ok = rows((0, 0, 10, 10))
        with pytest.raises(ValueError, match="positive width and height"):
            encode(flat, ok)
        with pytest.raises(ValueError, match="positive width and height"):
            encode(ok, flat)
        with pytest.raises(ValueError, match="positive width and height"):
            decode(flat, rows((0, 0, 0, 0)))

    def test_decoded_boxes_must_be_loadable(self):
        box = rows((0, 0, 10, 10))
        with pytest.raises(ValueError, match=r"lie within ±2\*\*53"):
            decode(box, rows((0, 0, 300, 0)))  # exp(300) is finite, the corners are not loadable
        with pytest.raises(ValueError, match="overflows"):
            decode(box, rows((0, 0, 1000, 0)))  # exp(1000) overflows


class TestExpand:
    def test_hand_example(self):
        r = expand(rows(from_center(10, 10, 4, 6)), 3)[0]
        assert center_size(r) == (10, 10, 12, 18)

    def test_identity(self):
        b = rows((1, 2, 3, 4))
        assert np.array_equal(expand(b, 1.0), b)

    def test_corners_example(self):
        r = expand(rows(from_center(0, 0, 2, 2)), 2)
        assert r.tolist() == [[-2, -2, 2, 2]]

    def test_preserves_center_and_aspect(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            b = random_box(rng, min_size=1.0)
            k = rng.uniform(1.0, 5.0)
            (cx, cy, w, h), (rcx, rcy, rw, rh) = center_size(b), center_size(expand(rows(b), k)[0])
            assert abs(rcx - cx) <= 1e-12 * max(1, abs(cx))
            assert abs(rcy - cy) <= 1e-12 * max(1, abs(cy))
            assert abs(rw / rh - w / h) <= 1e-12 * (w / h)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            expand(rows((0, 0, 1, 1)), 0.99)


# -- The array forms against the per-box formulas -----------------------------

EXACT = settings(max_examples=200, deadline=None, database=None, derandomize=True)

# Corners at the edges a float64 box can reach: signed zero, the smallest
# subnormal and normal, and the coordinate bound and its neighbours.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -MAX_COORDINATE, MAX_COORDINATE,
         MAX_COORDINATE - 1.0, -(MAX_COORDINATE - 1.0), 1e15)
coordinates = st.sampled_from(EDGES) | st.floats(-MAX_COORDINATE, MAX_COORDINATE) | st.floats(-1e3, 1e3)
extents = st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 1.0)) | st.floats(0.0, 1e4) | st.floats(0.0, 2 * MAX_COORDINATE)


@st.composite
def box_rows(draw):
    """Up to 12 boxes of non-negative extent, some of them zero-width or zero-height,
    and a seed for the standard normals that go with them."""
    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        x1, y1 = draw(coordinates), draw(coordinates)
        boxes.append((x1, y1, x1 + draw(extents), y1 + draw(extents)))
    return boxes, draw(st.integers(0, 2**32 - 1))


def loadable(box) -> bool:
    x1, y1, x2, y2 = box
    return all(abs(v) <= MAX_COORDINATE for v in box) and x1 <= x2 and y1 <= y2


def bits(boxes) -> list:
    return np.array(boxes, np.float64).reshape(-1, 4).view(np.uint64).tolist()


def expect_rows(array_form, references):
    """``array_form(rows)`` on the rows whose reference is a loadable box equals those
    references bit for bit; on each other row (not loadable, or its exponential
    overflows) alone it raises ``ValueError``."""
    good = [i for i, ref in enumerate(references) if ref is not None and loadable(ref)]
    assert bits(array_form(good)) == bits([references[i] for i in good])
    for i in sorted(set(range(len(references))) - set(good)):
        with pytest.raises(ValueError):
            array_form([i])


def scalar_or_none(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return None


class TestArrayFormsEqualPerBoxFormulas:
    # Deltas and noise draws are standard normals, where numpy's exp and
    # math.exp round differently for some values (about 1 in 20 here).

    @EXACT
    @given(box_rows(), st.sampled_from((1.0, 0.25, 3.0)))
    def test_decode(self, drawn, scale):
        boxes, seed = drawn
        boxes = [b for b in boxes if b[2] - b[0] > 0.0 and b[3] - b[1] > 0.0] or [(0.0, 0.0, 1.0, 1.0)]
        deltas = np.random.default_rng(seed).standard_normal((len(boxes), 4)) * scale
        references = [scalar_or_none(decode_reference, b, d) for b, d in zip(boxes, deltas.tolist())]
        expect_rows(lambda i: decode(rows(*boxes)[i], deltas[i]), references)

    @EXACT
    @given(box_rows(), st.sampled_from((1.0, 7.0 / 3.0, 3.0, 1.5)))
    def test_expand(self, drawn, k):
        boxes, _ = drawn
        assert bits(expand(rows(*boxes), k)) == bits([expand_reference(b, k) for b in boxes])

    @EXACT
    @given(box_rows(), st.sampled_from((0.0, 1.0, 2.5, 1e300)), st.sampled_from((0.0, 0.2, 1.0, 1000.0)))
    def test_oracle_perturbation(self, drawn, center_sigma, size_sigma):
        boxes, seed = drawn
        normals = np.random.default_rng(seed).standard_normal((len(boxes), 4))
        references = [scalar_or_none(perturb_reference, b, center_sigma, size_sigma, d)
                      for b, d in zip(boxes, normals.tolist())]
        moves = normals * [center_sigma, center_sigma, size_sigma, size_sigma]
        expect_rows(lambda i: _move_and_scale(rows(*boxes)[i], *moves[i].T), references)
