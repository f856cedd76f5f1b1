"""Tests for scotkit.geometry, including the unit-cell raster oracle."""

import random

import numpy as np
import pytest

from scotkit.constraints import Contains, total_magnitude
from scotkit.geometry import BBox, area, center, iou


def raster_iou(a: BBox, b: BBox) -> float:
    """Independent oracle: count occupied unit cells on the 1000x1000 grid."""
    grid_a = np.zeros((1000, 1000), dtype=bool)
    grid_b = np.zeros((1000, 1000), dtype=bool)
    grid_a[a.ymin : a.ymax, a.xmin : a.xmax] = True
    grid_b[b.ymin : b.ymax, b.xmin : b.xmax] = True
    inter = int(np.logical_and(grid_a, grid_b).sum())
    union = int(np.logical_or(grid_a, grid_b).sum())
    if union == 0:
        return 0.0
    return inter / union


def random_box(rng: random.Random) -> BBox:
    x1 = rng.randint(0, 998)
    y1 = rng.randint(0, 998)
    x2 = rng.randint(x1 + 1, 1000)
    y2 = rng.randint(y1 + 1, 1000)
    return BBox(x1, y1, x2, y2)


class TestBBox:
    def test_valid(self):
        b = BBox(0, 0, 1000, 1000)
        assert b.width == 1000 and b.height == 1000

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError, match=r"^need 0 <= xmin < xmax <= 1000, got \[10, 10, 10, 20\]$"):
            BBox(10, 10, 10, 20)
        with pytest.raises(ValueError, match="ymin < ymax"):
            BBox(10, 10, 20, 10)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match=r"^need 0 <= xmin < xmax <= 1000, got \[20, 10, 10, 30\]$"):
            BBox(20, 10, 10, 30)
        with pytest.raises(ValueError, match="ymin < ymax"):
            BBox(10, 30, 30, 10)

    def test_rejects_out_of_canvas(self):
        with pytest.raises(ValueError, match=r"^need 0 <= xmin < xmax <= 1000, got \[0, 0, 1500, 10\]$"):
            BBox(0, 0, 1500, 10)
        with pytest.raises(ValueError, match=r"^need 0 <= xmin < xmax <= 1000, got \[-5, 0, 10, 10\]$"):
            BBox(-5, 0, 10, 10)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match=r"^box coordinates must be integers, got 10\.5$"):
            BBox(0, 0, 10.5, 10)

    def test_list_round_trip(self):
        b = BBox.from_list([376, 336, 744, 696])
        assert b.as_list() == [376, 336, 744, 696]


class TestArea:
    def test_full_canvas(self):
        assert area(BBox(0, 0, 1000, 1000)) == 1_000_000

    def test_rotten_apple_box(self):
        # direct product (744-376)*(696-336)
        assert area(BBox(376, 336, 744, 696)) == 368 * 360 == 132_480

    def test_stem_box(self):
        assert area(BBox(480, 350, 520, 400)) == 40 * 50 == 2_000


class TestIou:
    def test_identity(self):
        b = BBox(300, 500, 700, 900)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 100, 100), BBox(500, 500, 600, 600)) == 0.0

    def test_quarter_overlap(self):
        a = BBox(0, 0, 500, 500)
        b = BBox(250, 250, 750, 750)
        expected = raster_iou(a, b)
        assert expected == 62500 / 437500
        assert abs(iou(a, b) - expected) <= 1e-12

    def test_symmetry_and_raster_agreement(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            assert iou(a, b) == raster_iou(a, b)

    def test_zero_iff_disjoint(self):
        a = BBox(0, 0, 100, 100)
        touching = BBox(100, 0, 200, 100)  # shares an edge, zero cells
        assert iou(a, touching) == 0.0
        overlapping = BBox(99, 0, 200, 100)
        assert iou(a, overlapping) > 0.0


def contains(outer: BBox, inner: BBox, margin: float = 0.0) -> bool:
    """Whether inner lies within outer grown by margin, read off the Contains constraint."""
    layout = {"outer": outer, "inner": inner}
    return total_magnitude(layout, {}, [Contains("outer", "inner", margin)]) == 0.0


class TestContains:
    def test_cake_contains_text(self):
        assert contains(BBox(300, 500, 700, 900), BBox(350, 550, 650, 650))

    def test_marketplace_contains_stalls(self):
        assert contains(BBox(0, 0, 1000, 1000), BBox(16, 136, 792, 984))

    def test_margin_boundary(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(5, 5, 15, 15)
        assert not contains(outer, inner, margin=0)
        assert not contains(outer, inner, margin=4)
        assert contains(outer, inner, margin=5)


class TestCenter:
    def test_full_canvas(self):
        assert center(BBox(0, 0, 1000, 1000)) == (500, 500)

    def test_soda_box(self):
        assert center(BBox(250, 450, 350, 650)) == (300, 550)

    def test_apple_box(self):
        assert center(BBox(450, 400, 550, 600)) == (500, 500)
