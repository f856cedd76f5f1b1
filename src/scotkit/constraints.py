"""Explicit spatial constraint set: predicates, violation magnitudes,
repair moves, and (de)serialization of constraint lists.

Directional relations compare box centers, which keeps magnitudes smooth
for iterative repair; strict edge separation can be expressed by pairing
NonOverlap with a directional relation. Grid cells are computed on the
fixed 1000x1000 canvas: cell (r, c) of an R x C grid spans
x in [c*1000/C, (c+1)*1000/C] and y in [r*1000/R, (r+1)*1000/R].

Each constraint kind is one record class deriving from `Constraint`, a
`wire.Record`, that owns everything about the kind: its wire name
`kind`, the entity ids its violations read, the violations, the repair
moves and its wire record, which `scotkit.wire` reads and writes from
its fields. To add a kind, write that class and add it to `KINDS`.
"""

from __future__ import annotations

import math
from typing import ClassVar, Container, Mapping, NamedTuple, Sequence

from . import wire
from .geometry import CANVAS, BBox, area, center, intersection_area, place
from .wire import Record, assign

Layout = Mapping[str, BBox]
Categories = Mapping[str, str]


class Violation(Record):
    constraint: Constraint
    magnitude: float
    message: str

    def __init__(self, constraint, magnitude, message):
        assign(self, "constraint", constraint)
        assign(self, "magnitude", magnitude)
        assign(self, "message", message)


class Constraint(Record):
    """One constraint kind: a record whose fields, in order and under
    their own names after "kind", make its wire record; a `float` field
    is a tolerance, which its `__init__` checks with `_tolerance` before
    any other argument. A subclass sets `kind` and implements
    entity_ids() and violations(), plus moves() when repair can act."""

    kind: ClassVar[str]  # the wire name, unique across KINDS
    # True when the violations may read boxes outside entity_ids()
    watches_all: ClassVar[bool] = False

    def entity_ids(self) -> tuple[str, ...]:
        """Every id whose box the violations read, unless watches_all."""
        raise NotImplementedError

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        """One Violation per failure, each with a strictly positive magnitude.
        layout holds a box for every id in entity_ids(); see require_boxes."""
        raise NotImplementedError

    def magnitudes(self, layout: Layout, entities: Categories) -> list[float]:
        """The magnitudes of violations(), in order, which repair scores by; a
        kind whose messages cost more computes these and builds violations() on them."""
        return [v.magnitude for v in self.violations(layout, entities)]

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        """Updated boxes that shrink a violation of this magnitude."""
        return {}

    @classmethod
    def from_wire(cls, value, name: str) -> Constraint:
        """The kind that the record's "kind" names, read from its fields."""
        record = wire.read(Mapping[str, object], value, name)
        kind = record.pop("kind", None)
        if not (isinstance(kind, str) and kind in KINDS):
            raise ValueError(f"unknown constraint kind {kind!r}")
        return wire.read(KINDS[kind], record, name)

    def to_wire(self) -> dict:
        return {"kind": self.kind, **wire.write(self)}


class Cell(NamedTuple):
    """A grid cell, written as the JSON list [row, col]."""

    row: int
    col: int

    @classmethod
    def from_wire(cls, value, name: str) -> Cell:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"grid cell must be [row, col], got {value!r}")
        return cls(wire.read(int, value[0], "grid row"), wire.read(int, value[1], "grid col"))

    def to_wire(self) -> list[int]:
        return list(self)


def _tolerance(name: str, value: float) -> float:
    """value, when it is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    return value


def require_boxes(layout: Container[str], cs: Sequence[Constraint]) -> None:
    """Raise ValueError for the first id, in constraint order and then
    entity_ids() order, that layout holds no box for; a scene passes its
    set of entity ids."""
    for c in cs:
        for entity_id in c.entity_ids():
            if entity_id not in layout:
                raise ValueError(f"constraint references unknown entity id {entity_id!r}")


# --- repair move primitives ---------------------------------------------


def _shift(box: BBox, dx: float, dy: float) -> BBox:
    x1, y1, x2, y2 = box.xmin, box.ymin, box.xmax, box.ymax
    return place((x1 + x2) / 2 + dx, (y1 + y2) / 2 + dy, x2 - x1, y2 - y1)


def _nudge(box: BBox, axis: int, d: float) -> BBox:
    """Shift along one axis: 0 is x, 1 is y."""
    return _shift(box, d, 0.0) if axis == 0 else _shift(box, 0.0, d)


def _resize(box: BBox, dw: float, dh: float) -> BBox:
    cx, cy = center(box)
    return place(cx, cy, box.width + dw, box.height + dh)


def _at_least_unit(x: float) -> float:
    """Quantization floor: a nonzero move must span a full canvas unit."""
    if x > 0:
        return max(1.0, x)
    if x < 0:
        return min(-1.0, x)
    return 0.0


# --- the kinds ----------------------------------------------------------


class _Pair(Constraint):
    """A relation between the boxes of a and b."""

    a: str
    b: str

    def __init__(self, a, b):
        if a == b:
            raise ValueError(f"{self.kind} needs two different ids, got {a!r} twice")
        assign(self, "a", a)
        assign(self, "b", b)

    def entity_ids(self) -> tuple[str, ...]:
        return (self.a, self.b)

    def _apart(self, boxes: Layout, axis: int, d: float) -> dict[str, BBox]:
        """Move a by d and b by -d along one axis."""
        return {self.a: _nudge(boxes[self.a], axis, d), self.b: _nudge(boxes[self.b], axis, -d)}


class _Directional(_Pair):
    """Center of a before center of b on one axis, by at least margin.
    Subclasses set the axis (0 is x, 1 is y) and the sign (+1 when a
    comes first along the axis, -1 when b does)."""

    margin: float

    _axis: ClassVar[int]
    _sign: ClassVar[float]

    def __init__(self, a, b, margin=0.0):
        assign(self, "margin", _tolerance("margin", margin))
        super().__init__(a, b)

    def magnitudes(self, layout: Layout, entities: Categories) -> list[float]:
        a, b = layout[self.a], layout[self.b]
        if self._axis == 0:
            ca, cb = (a.xmin + a.xmax) / 2, (b.xmin + b.xmax) / 2
        else:
            ca, cb = (a.ymin + a.ymax) / 2, (b.ymin + b.ymax) / 2
        mag = ca + self.margin - cb if self._sign > 0 else cb + self.margin - ca
        return [mag] if mag > 0 else []

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        return [Violation(self, mag, f"{self.a} {self.kind.replace('_', ' ')} {self.b}: "
                                     f"centers off by {mag:g}")
                for mag in self.magnitudes(layout, entities)]

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        shift = _at_least_unit(step * magnitude / 2)
        return self._apart(boxes, self._axis, -self._sign * shift)


class LeftOf(_Directional):
    kind, _axis, _sign = "left_of", 0, 1.0


class RightOf(_Directional):
    kind, _axis, _sign = "right_of", 0, -1.0


class Above(_Directional):
    kind, _axis, _sign = "above", 1, 1.0


class Below(_Directional):
    kind, _axis, _sign = "below", 1, -1.0


class Contains(Constraint):
    outer: str
    inner: str
    margin: float

    kind = "contains"

    def __init__(self, outer, inner, margin=0.0):
        assign(self, "outer", outer)
        assign(self, "inner", inner)
        assign(self, "margin", _tolerance("margin", margin))

    def entity_ids(self) -> tuple[str, ...]:
        return (self.outer, self.inner)

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        outer, inner = layout[self.outer], layout[self.inner]
        protrusion = max(
            0.0,
            (outer.xmin - self.margin) - inner.xmin,
            inner.xmax - (outer.xmax + self.margin),
            (outer.ymin - self.margin) - inner.ymin,
            inner.ymax - (outer.ymax + self.margin),
        )
        if protrusion > 0:
            message = f"{self.inner} protrudes {protrusion:g} outside {self.outer}"
            return [Violation(self, protrusion, message)]
        return []

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        outer, inner = boxes[self.outer], boxes[self.inner]
        margin = self.margin
        new_inner = inner
        over_w = inner.width - (outer.width + 2 * margin)
        over_h = inner.height - (outer.height + 2 * margin)
        if over_w > 0 or over_h > 0:
            new_inner = _resize(
                new_inner,
                -step * max(0.0, over_w) - (2 if over_w > 0 else 0),
                -step * max(0.0, over_h) - (2 if over_h > 0 else 0),
            )
        dx = dy = 0.0
        if new_inner.xmin < outer.xmin - margin:
            dx = _at_least_unit(step * ((outer.xmin - margin) - new_inner.xmin))
        elif new_inner.xmax > outer.xmax + margin:
            dx = _at_least_unit(-step * (new_inner.xmax - (outer.xmax + margin)))
        if new_inner.ymin < outer.ymin - margin:
            dy = _at_least_unit(step * ((outer.ymin - margin) - new_inner.ymin))
        elif new_inner.ymax > outer.ymax + margin:
            dy = _at_least_unit(-step * (new_inner.ymax - (outer.ymax + margin)))
        return {self.inner: _shift(new_inner, dx, dy)}


class NonOverlap(_Pair):
    epsilon: float  # tolerated intersection area

    kind = "non_overlap"

    def __init__(self, a, b, epsilon=0.0):
        assign(self, "epsilon", _tolerance("epsilon", epsilon))
        super().__init__(a, b)

    def magnitudes(self, layout: Layout, entities: Categories) -> list[float]:
        a, b = layout[self.a], layout[self.b]
        if a.xmax <= b.xmin or b.xmax <= a.xmin or a.ymax <= b.ymin or b.ymax <= a.ymin:
            return []  # disjoint: no overlap to exceed epsilon
        excess = intersection_area(a, b) - self.epsilon
        return [excess / min(area(a), area(b))] if excess > 0 else []

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        return [Violation(self, mag, f"{self.a} overlaps {self.b} by "
                          f"{intersection_area(layout[self.a], layout[self.b]):g} area units")
                for mag in self.magnitudes(layout, entities)]

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        a, b = boxes[self.a], boxes[self.b]
        ox = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
        oy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
        axis, overlap = (0, ox) if ox <= oy else (1, oy)
        sign = -1.0 if center(a)[axis] <= center(b)[axis] else 1.0
        return self._apart(boxes, axis, sign * _at_least_unit(step * (overlap / 2 + 1)))


class AdjacentTo(_Pair):
    """Chebyshev-style box separation (the larger of the per-axis gaps,
    clamped at zero) of at most max_gap."""

    max_gap: float

    kind = "adjacent_to"

    def __init__(self, a, b, max_gap=0.0):
        assign(self, "max_gap", _tolerance("max_gap", max_gap))
        super().__init__(a, b)

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        a, b = layout[self.a], layout[self.b]
        gap_x = max(a.xmin, b.xmin) - min(a.xmax, b.xmax)
        gap_y = max(a.ymin, b.ymin) - min(a.ymax, b.ymax)
        gap = max(0.0, float(max(gap_x, gap_y)))
        mag = gap - self.max_gap
        if mag > 0:
            return [Violation(self, mag, f"{self.a} and {self.b} are {gap:g} apart")]
        return []

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        a, b = boxes[self.a], boxes[self.b]
        gx = max(a.xmin, b.xmin) - min(a.xmax, b.xmax)
        gy = max(a.ymin, b.ymin) - min(a.ymax, b.ymax)
        d = _at_least_unit(step * magnitude / 2)
        axis = 0 if gx >= gy else 1
        sign = 1.0 if center(a)[axis] <= center(b)[axis] else -1.0
        return self._apart(boxes, axis, sign * d)


class _Aligned(Constraint):
    """Centers of all ids within tol of their mean on one axis, which
    subclasses set (0 is x, 1 is y) along with the word for messages."""

    ids: tuple[str, ...]
    tol: float

    _axis: ClassVar[int]
    _word: ClassVar[str]

    def __init__(self, ids, tol=0.0):
        assign(self, "tol", _tolerance("tol", tol))
        if len(ids) < 2:
            raise ValueError(f"alignment needs at least 2 ids, got {len(ids)}")
        assign(self, "ids", ids)

    def entity_ids(self) -> tuple[str, ...]:
        return self.ids

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        coords = [center(layout[i])[self._axis] for i in self.ids]
        mean = sum(coords) / len(coords)
        deviation = max(abs(v - mean) for v in coords)
        mag = deviation - self.tol
        if mag > 0:
            return [Violation(self, mag, f"{self._word} alignment off by {deviation:g}")]
        return []

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        coords = [center(boxes[i])[self._axis] for i in self.ids]
        mean = sum(coords) / len(coords)
        out = {}
        for eid, coord in zip(self.ids, coords):
            delta = step * (mean - coord)
            if delta:
                out[eid] = _nudge(boxes[eid], self._axis, _at_least_unit(delta))
        return out


class AlignedRow(_Aligned):
    kind, _axis, _word = "aligned_row", 1, "row"


class AlignedCol(_Aligned):
    kind, _axis, _word = "aligned_col", 0, "column"


class CountEquals(Constraint):
    """Reads entity categories, never boxes, and has no geometric move."""

    category: str
    count: int

    kind = "count_equals"

    def __init__(self, category, count):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        assign(self, "category", category)
        assign(self, "count", count)

    def entity_ids(self) -> tuple[str, ...]:
        return ()

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        actual = sum(1 for cat in entities.values() if cat == self.category)
        diff = abs(actual - self.count)
        if diff > 0:
            message = f"expected {self.count} x {self.category}, found {actual}"
            return [Violation(self, float(diff), message)]
        return []


class Grid(Constraint):
    rows: int
    cols: int
    assignments: tuple[tuple[str, Cell], ...]  # id -> (row, col)
    empty_cells: tuple[Cell, ...]

    kind = "grid"

    def __init__(self, rows, cols, assignments, empty_cells=()):
        if rows < 1 or cols < 1:
            raise ValueError("grid needs rows >= 1 and cols >= 1")
        for row, col in [cell for _, cell in assignments] + list(empty_cells):
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(f"grid cell ({row},{col}) is outside {rows} x {cols}")
        assign(self, "rows", rows)
        assign(self, "cols", cols)
        assign(self, "assignments", assignments)
        assign(self, "empty_cells", empty_cells)

    @property
    def watches_all(self) -> bool:
        """An empty cell is violated by any entity whose center enters it."""
        return bool(self.empty_cells)

    def cell_rect(self, row: int, col: int) -> tuple[float, float, float, float]:
        w = CANVAS / self.cols
        h = CANVAS / self.rows
        return (col * w, row * h, (col + 1) * w, (row + 1) * h)

    def entity_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.assignments)

    def violations(self, layout: Layout, entities: Categories) -> list[Violation]:
        out: list[Violation] = []
        for entity_id, (row, col) in self.assignments:
            x1, y1, x2, y2 = self.cell_rect(row, col)
            cx, cy = center(layout[entity_id])
            dist = math.hypot(max(x1 - cx, 0.0, cx - x2), max(y1 - cy, 0.0, cy - y2))
            if dist > 0:
                message = f"{entity_id} center is {dist:g} from cell ({row},{col})"
                out.append(Violation(self, dist, message))
        for row, col in self.empty_cells:
            x1, y1, x2, y2 = self.cell_rect(row, col)
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
                message = f"cell ({row},{col}) must stay empty but holds {offenders}"
                out.append(Violation(self, depth, message))
        return out

    def moves(self, magnitude: float, boxes: Layout, step: float) -> dict[str, BBox]:
        out = {}
        for eid, (row, col) in self.assignments:
            x1, y1, x2, y2 = self.cell_rect(row, col)
            cx, cy = center(boxes[eid])
            px = min(max(cx, x1), x2)
            py = min(max(cy, y1), y2)
            if (px, py) != (cx, cy):
                out[eid] = _shift(
                    boxes[eid],
                    _at_least_unit(step * (px - cx)),
                    _at_least_unit(step * (py - cy)),
                )
        for row, col in self.empty_cells:
            x1, y1, x2, y2 = self.cell_rect(row, col)
            for eid, box in boxes.items():
                cx, cy = center(box)
                if x1 < cx < x2 and y1 < cy < y2:
                    exits = [
                        (cx - x1 + 1, (-(cx - x1) - 2, 0.0)),
                        (x2 - cx + 1, (x2 - cx + 2, 0.0)),
                        (cy - y1 + 1, (0.0, -(cy - y1) - 2)),
                        (y2 - cy + 1, (0.0, y2 - cy + 2)),
                    ]
                    _, (dx, dy) = min(exits, key=lambda e: e[0])
                    out[eid] = _shift(box, dx, dy)
        return out


KINDS: dict[str, type[Constraint]] = {
    cls.kind: cls
    for cls in (
        LeftOf, RightOf, Above, Below, Contains, NonOverlap, AdjacentTo,
        AlignedRow, AlignedCol, CountEquals, Grid,
    )
}


def check(layout: Layout, entities: Categories, cs: Sequence[Constraint]) -> list[Violation]:
    """Evaluate every constraint; returns one Violation per failure
    (Grid may emit several), each with a strictly positive magnitude."""
    require_boxes(layout, cs)
    out: list[Violation] = []
    for c in cs:
        out.extend(c.violations(layout, entities))
    return out


def total_magnitude(layout: Layout, entities: Categories, cs: Sequence[Constraint]) -> float:
    """Scalar repair objective: the sum of violation magnitudes."""
    return sum(v.magnitude for v in check(layout, entities, cs))

