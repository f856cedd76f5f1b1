"""Explicit spatial constraint set: predicates, violation magnitudes,
and (de)serialization of constraint lists.

Directional relations compare box centers, which keeps magnitudes smooth
for iterative repair; strict edge separation can be expressed by pairing
NonOverlap with a directional relation. Grid cells are computed on the
fixed 1000x1000 canvas: cell (r, c) of an R x C grid spans
x in [c*1000/C, (c+1)*1000/C] and y in [r*1000/R, (r+1)*1000/R].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .geometry import BBox, area, center, intersection_area

Layout = Mapping[str, BBox]
Categories = Mapping[str, str]


class ConstraintError(Exception):
    pass


class UnknownEntityId(ConstraintError):
    def __init__(self, entity_id: str):
        super().__init__(f"constraint references unknown entity id {entity_id!r}")
        self.entity_id = entity_id


def _check_nonneg(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConstraintError(f"{name} must be a finite number >= 0, got {value}")


def _check_group(ids: Sequence[str]) -> None:
    if len(ids) < 2:
        raise ConstraintError(f"alignment needs at least 2 ids, got {len(ids)}")


@dataclass(frozen=True)
class LeftOf:
    a: str
    b: str
    margin: float = 0.0

    def __post_init__(self):
        _check_nonneg("margin", self.margin)


@dataclass(frozen=True)
class RightOf:
    a: str
    b: str
    margin: float = 0.0

    def __post_init__(self):
        _check_nonneg("margin", self.margin)


@dataclass(frozen=True)
class Above:
    a: str
    b: str
    margin: float = 0.0

    def __post_init__(self):
        _check_nonneg("margin", self.margin)


@dataclass(frozen=True)
class Below:
    a: str
    b: str
    margin: float = 0.0

    def __post_init__(self):
        _check_nonneg("margin", self.margin)


@dataclass(frozen=True)
class Contains:
    outer: str
    inner: str
    margin: float = 0.0

    def __post_init__(self):
        _check_nonneg("margin", self.margin)


@dataclass(frozen=True)
class NonOverlap:
    a: str
    b: str
    epsilon: float = 0.0  # tolerated intersection area

    def __post_init__(self):
        _check_nonneg("epsilon", self.epsilon)


@dataclass(frozen=True)
class AdjacentTo:
    a: str
    b: str
    max_gap: float = 0.0

    def __post_init__(self):
        _check_nonneg("max_gap", self.max_gap)


@dataclass(frozen=True)
class AlignedRow:
    ids: tuple[str, ...]
    tol: float = 0.0

    def __post_init__(self):
        _check_nonneg("tol", self.tol)
        _check_group(self.ids)


@dataclass(frozen=True)
class AlignedCol:
    ids: tuple[str, ...]
    tol: float = 0.0

    def __post_init__(self):
        _check_nonneg("tol", self.tol)
        _check_group(self.ids)


@dataclass(frozen=True)
class CountEquals:
    category: str
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ConstraintError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class Grid:
    rows: int
    cols: int
    assignments: tuple[tuple[str, tuple[int, int]], ...]  # id -> (row, col)
    empty_cells: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConstraintError("grid needs rows >= 1 and cols >= 1")
        cells = [cell for _, cell in self.assignments] + list(self.empty_cells)
        for row, col in cells:
            if not (0 <= row < self.rows and 0 <= col < self.cols):
                raise ConstraintError(
                    f"grid cell ({row},{col}) is outside {self.rows} x {self.cols}"
                )

    def cell_rect(self, row: int, col: int) -> tuple[float, float, float, float]:
        w = 1000 / self.cols
        h = 1000 / self.rows
        return (col * w, row * h, (col + 1) * w, (row + 1) * h)


Constraint = Union[
    LeftOf, RightOf, Above, Below, Contains, NonOverlap, AdjacentTo,
    AlignedRow, AlignedCol, CountEquals, Grid,
]


@dataclass(frozen=True)
class Violation:
    constraint: Constraint
    magnitude: float
    message: str


def _require(layout: Layout, *ids: str) -> None:
    for entity_id in ids:
        if entity_id not in layout:
            raise UnknownEntityId(entity_id)


def _point_to_rect_distance(p: tuple[float, float], rect: tuple[float, float, float, float]) -> float:
    x, y = p
    x1, y1, x2, y2 = rect
    dx = max(x1 - x, 0.0, x - x2)
    dy = max(y1 - y, 0.0, y - y2)
    return math.hypot(dx, dy)


def _axis_gap(a: BBox, b: BBox) -> float:
    """Chebyshev-style box separation: the larger of the per-axis gaps,
    clamped at zero (0 when the boxes touch or overlap)."""
    gap_x = max(a.xmin, b.xmin) - min(a.xmax, b.xmax)
    gap_y = max(a.ymin, b.ymin) - min(a.ymax, b.ymax)
    return max(0.0, float(max(gap_x, gap_y)))


def _violation_of(c: Constraint, layout: Layout, entities: Categories) -> list[Violation]:
    if isinstance(c, (LeftOf, RightOf, Above, Below)):
        _require(layout, c.a, c.b)
        ca, cb = center(layout[c.a]), center(layout[c.b])
        if isinstance(c, LeftOf):
            mag = max(0.0, ca[0] + c.margin - cb[0])
            desc = f"{c.a} left of {c.b}"
        elif isinstance(c, RightOf):
            mag = max(0.0, cb[0] + c.margin - ca[0])
            desc = f"{c.a} right of {c.b}"
        elif isinstance(c, Above):
            mag = max(0.0, ca[1] + c.margin - cb[1])
            desc = f"{c.a} above {c.b}"
        else:
            mag = max(0.0, cb[1] + c.margin - ca[1])
            desc = f"{c.a} below {c.b}"
        if mag > 0:
            return [Violation(c, mag, f"{desc}: centers off by {mag:g}")]
        return []

    if isinstance(c, Contains):
        _require(layout, c.outer, c.inner)
        outer, inner = layout[c.outer], layout[c.inner]
        protrusion = max(
            0.0,
            (outer.xmin - c.margin) - inner.xmin,
            inner.xmax - (outer.xmax + c.margin),
            (outer.ymin - c.margin) - inner.ymin,
            inner.ymax - (outer.ymax + c.margin),
        )
        if protrusion > 0:
            return [
                Violation(
                    c,
                    protrusion,
                    f"{c.inner} protrudes {protrusion:g} outside {c.outer}",
                )
            ]
        return []

    if isinstance(c, NonOverlap):
        _require(layout, c.a, c.b)
        inter = intersection_area(layout[c.a], layout[c.b])
        excess = inter - c.epsilon
        if excess > 0:
            smaller = min(area(layout[c.a]), area(layout[c.b]))
            mag = excess / smaller
            return [Violation(c, mag, f"{c.a} overlaps {c.b} by {inter:g} area units")]
        return []

    if isinstance(c, AdjacentTo):
        _require(layout, c.a, c.b)
        gap = _axis_gap(layout[c.a], layout[c.b])
        mag = gap - c.max_gap
        if mag > 0:
            return [Violation(c, mag, f"{c.a} and {c.b} are {gap:g} apart")]
        return []

    if isinstance(c, (AlignedRow, AlignedCol)):
        _require(layout, *c.ids)
        axis = 1 if isinstance(c, AlignedRow) else 0
        coords = [center(layout[i])[axis] for i in c.ids]
        mean = sum(coords) / len(coords)
        deviation = max(abs(v - mean) for v in coords)
        mag = deviation - c.tol
        if mag > 0:
            kind = "row" if axis == 1 else "column"
            return [Violation(c, mag, f"{kind} alignment off by {deviation:g}")]
        return []

    if isinstance(c, CountEquals):
        actual = sum(1 for cat in entities.values() if cat == c.category)
        diff = abs(actual - c.count)
        if diff > 0:
            return [
                Violation(
                    c, float(diff), f"expected {c.count} x {c.category}, found {actual}"
                )
            ]
        return []

    if isinstance(c, Grid):
        out: list[Violation] = []
        for entity_id, (row, col) in c.assignments:
            _require(layout, entity_id)
            rect = c.cell_rect(row, col)
            dist = _point_to_rect_distance(center(layout[entity_id]), rect)
            if dist > 0:
                out.append(
                    Violation(
                        c, dist, f"{entity_id} center is {dist:g} from cell ({row},{col})"
                    )
                )
        for row, col in c.empty_cells:
            x1, y1, x2, y2 = c.cell_rect(row, col)
            offenders = []
            depth = 0.0
            for entity_id, box in layout.items():
                cx, cy = center(box)
                # strict interior, so the magnitude (exit distance) stays
                # continuous and positive exactly when violated
                if x1 < cx < x2 and y1 < cy < y2:
                    offenders.append(entity_id)
                    depth = max(depth, min(cx - x1, x2 - cx, cy - y1, y2 - cy))
            if offenders:
                out.append(
                    Violation(
                        c,
                        depth,
                        f"cell ({row},{col}) must stay empty but holds {offenders}",
                    )
                )
        return out

    raise ConstraintError(f"unknown constraint {c!r}")


def check(layout: Layout, entities: Categories, cs: Sequence[Constraint]) -> list[Violation]:
    """Evaluate every constraint; returns one Violation per failure
    (Grid may emit several), each with a strictly positive magnitude."""
    out: list[Violation] = []
    for c in cs:
        out.extend(_violation_of(c, layout, entities))
    return out


def total_magnitude(layout: Layout, entities: Categories, cs: Sequence[Constraint]) -> float:
    """Scalar repair objective: the sum of violation magnitudes."""
    return sum(v.magnitude for v in check(layout, entities, cs))


_KIND_BY_CLASS = {
    LeftOf: "left_of",
    RightOf: "right_of",
    Above: "above",
    Below: "below",
    Contains: "contains",
    NonOverlap: "non_overlap",
    AdjacentTo: "adjacent_to",
    AlignedRow: "aligned_row",
    AlignedCol: "aligned_col",
    CountEquals: "count_equals",
    Grid: "grid",
}


def constraint_to_dict(c: Constraint) -> dict:
    kind = _KIND_BY_CLASS[type(c)]
    if isinstance(c, (LeftOf, RightOf, Above, Below)):
        return {"kind": kind, "a": c.a, "b": c.b, "margin": c.margin}
    if isinstance(c, Contains):
        return {"kind": kind, "outer": c.outer, "inner": c.inner, "margin": c.margin}
    if isinstance(c, NonOverlap):
        return {"kind": kind, "a": c.a, "b": c.b, "epsilon": c.epsilon}
    if isinstance(c, AdjacentTo):
        return {"kind": kind, "a": c.a, "b": c.b, "max_gap": c.max_gap}
    if isinstance(c, (AlignedRow, AlignedCol)):
        return {"kind": kind, "ids": list(c.ids), "tol": c.tol}
    if isinstance(c, CountEquals):
        return {"kind": kind, "category": c.category, "count": c.count}
    return {
        "kind": kind,
        "rows": c.rows,
        "cols": c.cols,
        "assignments": {eid: list(cell) for eid, cell in c.assignments},
        "empty_cells": [list(cell) for cell in c.empty_cells],
    }


def constraint_from_dict(d: Mapping) -> Constraint:
    try:
        kind = d["kind"]
        if kind in ("left_of", "right_of", "above", "below"):
            cls = {"left_of": LeftOf, "right_of": RightOf, "above": Above, "below": Below}[kind]
            return cls(d["a"], d["b"], float(d.get("margin", 0.0)))
        if kind == "contains":
            return Contains(d["outer"], d["inner"], float(d.get("margin", 0.0)))
        if kind == "non_overlap":
            return NonOverlap(d["a"], d["b"], float(d.get("epsilon", 0.0)))
        if kind == "adjacent_to":
            return AdjacentTo(d["a"], d["b"], float(d.get("max_gap", 0.0)))
        if kind in ("aligned_row", "aligned_col"):
            cls = AlignedRow if kind == "aligned_row" else AlignedCol
            return cls(tuple(d["ids"]), float(d.get("tol", 0.0)))
        if kind == "count_equals":
            return CountEquals(d["category"], int(d["count"]))
        if kind == "grid":
            return Grid(
                rows=int(d["rows"]),
                cols=int(d["cols"]),
                assignments=tuple(
                    (eid, (int(cell[0]), int(cell[1])))
                    for eid, cell in d["assignments"].items()
                ),
                empty_cells=tuple(
                    (int(cell[0]), int(cell[1])) for cell in d.get("empty_cells", [])
                ),
            )
    except KeyError as exc:
        raise ConstraintError(f"constraint record missing field {exc}") from exc
    raise ConstraintError(f"unknown constraint kind {d.get('kind')!r}")
