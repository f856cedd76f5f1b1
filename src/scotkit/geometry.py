"""Quantized bounding-box arithmetic on the 1000x1000 canvas.

Boxes live on an integer grid with (0, 0) at the top-left and
(1000, 1000) at the bottom-right. For area and rasterization purposes a
box is closed-open: grid cell (x, y) belongs to the box iff
xmin <= x < xmax and ymin <= y < ymax, which makes the analytic area
identical to counting unit cells.
"""

from __future__ import annotations

import math
from typing import Iterable

from .wire import Record, assign

CANVAS = 1000


class BBox(Record):
    """Axis-aligned integer box with strictly positive area."""

    xmin: int
    ymin: int
    xmax: int
    ymax: int

    def __init__(self, xmin, ymin, xmax, ymax):
        if not type(xmin) is type(ymin) is type(xmax) is type(ymax) is int:
            for v in (xmin, ymin, xmax, ymax):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"box coordinates must be integers, got {v!r}")
        if not (0 <= xmin < xmax <= CANVAS):
            raise ValueError(f"need 0 <= xmin < xmax <= {CANVAS}, got {[xmin, ymin, xmax, ymax]}")
        if not (0 <= ymin < ymax <= CANVAS):
            raise ValueError(f"need 0 <= ymin < ymax <= {CANVAS}, got {[xmin, ymin, xmax, ymax]}")
        assign(self, "xmin", xmin)
        assign(self, "ymin", ymin)
        assign(self, "xmax", xmax)
        assign(self, "ymax", ymax)

    @classmethod
    def from_list(cls, coords: Iterable[int]) -> "BBox":
        vals = list(coords)
        if len(vals) != 4:
            raise ValueError(f"box literal must have 4 coordinates, got {vals!r}")
        return cls(*vals)

    def as_list(self) -> list[int]:
        """Box literal form ``[xmin, ymin, xmax, ymax]``."""
        return [self.xmin, self.ymin, self.xmax, self.ymax]

    @classmethod
    def from_wire(cls, value, name: str) -> "BBox":
        """A JSON box literal; see `scotkit.wire`."""
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return cls.from_list(value)

    to_wire = as_list

    @property
    def width(self) -> int:
        return self.xmax - self.xmin

    @property
    def height(self) -> int:
        return self.ymax - self.ymin


def area(b: BBox) -> int:
    """Area in square canvas units."""
    return (b.xmax - b.xmin) * (b.ymax - b.ymin)


def intersection_area(a: BBox, b: BBox) -> int:
    """Area of the overlap region; 0 when disjoint."""
    w = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    h = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if w <= 0 or h <= 0:
        return 0
    return w * h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union. Exact on the integer grid (both terms are
    integers, so the quotient carries only one rounding)."""
    inter = intersection_area(a, b)
    if inter == 0:
        return 0.0
    union = area(a) + area(b) - inter
    return inter / union


def center(b: BBox) -> tuple[float, float]:
    """Box center (cx, cy); halves are exact in binary floating point."""
    return ((b.xmin + b.xmax) / 2, (b.ymin + b.ymax) / 2)


def place(cx: float, cy: float, w: float, h: float) -> BBox:
    """Integer box from a float center and size, clamped into the canvas."""
    w = min(max(w, 1.0), CANVAS)
    h = min(max(h, 1.0), CANVAS)
    x1 = min(max(cx - w / 2, 0.0), CANVAS - w)
    y1 = min(max(cy - h / 2, 0.0), CANVAS - h)
    xmin = math.floor(x1 + 0.5)
    ymin = math.floor(y1 + 0.5)
    xmax = min(CANVAS, xmin + max(1, math.floor(w + 0.5)))
    ymax = min(CANVAS, ymin + max(1, math.floor(h + 0.5)))
    return BBox(xmin, ymin, xmax, ymax)
