"""Tests for the constraint language, including an independent oracle
that re-implements every predicate from its plain definition."""

import math
import random

import pytest

from scotkit.constraints import (
    AdjacentTo,
    Above,
    AlignedCol,
    AlignedRow,
    Below,
    Constraint,
    Contains,
    CountEquals,
    Grid,
    LeftOf,
    NonOverlap,
    RightOf,
    check,
    total_magnitude,
)
from scotkit.geometry import BBox


# --- independent oracle: booleans straight from the plain definitions ---

def _c(b):
    return ((b.xmin + b.xmax) / 2, (b.ymin + b.ymax) / 2)


def oracle_satisfied(con: Constraint, layout, cats) -> bool:
    if isinstance(con, LeftOf):
        return _c(layout[con.a])[0] + con.margin <= _c(layout[con.b])[0]
    if isinstance(con, RightOf):
        return _c(layout[con.b])[0] + con.margin <= _c(layout[con.a])[0]
    if isinstance(con, Above):
        return _c(layout[con.a])[1] + con.margin <= _c(layout[con.b])[1]
    if isinstance(con, Below):
        return _c(layout[con.b])[1] + con.margin <= _c(layout[con.a])[1]
    if isinstance(con, Contains):
        o, i = layout[con.outer], layout[con.inner]
        return (
            o.xmin - con.margin <= i.xmin
            and i.xmax <= o.xmax + con.margin
            and o.ymin - con.margin <= i.ymin
            and i.ymax <= o.ymax + con.margin
        )
    if isinstance(con, NonOverlap):
        a, b = layout[con.a], layout[con.b]
        w = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
        h = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
        inter = w * h if (w > 0 and h > 0) else 0
        return inter <= con.epsilon
    if isinstance(con, AdjacentTo):
        a, b = layout[con.a], layout[con.b]
        gx = max(a.xmin, b.xmin) - min(a.xmax, b.xmax)
        gy = max(a.ymin, b.ymin) - min(a.ymax, b.ymax)
        return max(0, max(gx, gy)) <= con.max_gap
    if isinstance(con, AlignedRow):
        ys = [_c(layout[i])[1] for i in con.ids]
        mean = sum(ys) / len(ys)
        return max(abs(y - mean) for y in ys) <= con.tol
    if isinstance(con, AlignedCol):
        xs = [_c(layout[i])[0] for i in con.ids]
        mean = sum(xs) / len(xs)
        return max(abs(x - mean) for x in xs) <= con.tol
    if isinstance(con, CountEquals):
        return sum(1 for c in cats.values() if c == con.category) == con.count
    if isinstance(con, Grid):
        for eid, (r, c) in con.assignments:
            x1, y1, x2, y2 = con.cell_rect(r, c)
            cx, cy = _c(layout[eid])
            if not (x1 <= cx <= x2 and y1 <= cy <= y2):
                return False
        for r, c in con.empty_cells:
            x1, y1, x2, y2 = con.cell_rect(r, c)
            for box in layout.values():
                cx, cy = _c(box)
                if x1 < cx < x2 and y1 < cy < y2:
                    return False
        return True
    raise AssertionError(con)


def random_box(rng):
    x1, y1 = rng.randint(0, 900), rng.randint(0, 900)
    return BBox(x1, y1, rng.randint(x1 + 1, 1000), rng.randint(y1 + 1, 1000))


def random_case(rng):
    ids = [f"e{i}" for i in range(rng.randint(2, 6))]
    layout = {i: random_box(rng) for i in ids}
    cats = {i: rng.choice(["cat", "dog", "tree"]) for i in ids}
    cons: list[Constraint] = []
    for _ in range(rng.randint(1, 8)):
        a, b = rng.sample(ids, 2)
        kind = rng.randrange(9)
        if kind == 0:
            cons.append(LeftOf(a, b, rng.choice([0.0, 25.0])))
        elif kind == 1:
            cons.append(RightOf(a, b, rng.choice([0.0, 25.0])))
        elif kind == 2:
            cons.append(Above(a, b))
        elif kind == 3:
            cons.append(Below(a, b))
        elif kind == 4:
            cons.append(Contains(a, b, rng.choice([0.0, 10.0])))
        elif kind == 5:
            cons.append(NonOverlap(a, b, rng.choice([0.0, 500.0])))
        elif kind == 6:
            cons.append(AdjacentTo(a, b, rng.choice([0.0, 50.0])))
        elif kind == 7:
            members = tuple(rng.sample(ids, rng.randint(2, len(ids))))
            cls = rng.choice([AlignedRow, AlignedCol])
            cons.append(cls(members, rng.choice([0.0, 40.0])))
        else:
            if rng.random() < 0.5:
                cons.append(CountEquals(rng.choice(["cat", "dog", "fish"]), rng.randint(0, 3)))
            else:
                rows, cols = rng.randint(1, 4), rng.randint(1, 4)
                assigned = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
                assignments = tuple(
                    (eid, (rng.randrange(rows), rng.randrange(cols))) for eid in assigned
                )
                empties = tuple(
                    (rng.randrange(rows), rng.randrange(cols))
                    for _ in range(rng.randint(0, 2))
                )
                cons.append(Grid(rows, cols, assignments, empties))
    return layout, cats, cons


class TestCheckExamples:
    def test_soda_left_of_apple(self):
        layout = {"soda": BBox(250, 450, 350, 650), "apple": BBox(450, 400, 550, 600)}
        assert check(layout, {}, [LeftOf("soda", "apple")]) == []

    def test_cake_contains_text(self):
        layout = {"cake": BBox(300, 500, 700, 900), "text": BBox(350, 550, 650, 650)}
        assert check(layout, {}, [Contains("cake", "text")]) == []

    def test_self_overlap_magnitude_one(self):
        b = BBox(100, 100, 300, 400)
        layout = {"a": b, "b": b}
        violations = check(layout, {}, [NonOverlap("a", "b")])
        assert len(violations) == 1
        assert violations[0].magnitude == 1.0

    def test_count_equals_one_bench(self):
        cats = {"park": "scene", "t1": "tree", "t2": "tree", "t3": "tree", "b": "bench"}
        layout = {i: BBox(0, 0, 10, 10) for i in cats}
        assert check(layout, cats, [CountEquals("bench", 1)]) == []
        bad = check(layout, cats, [CountEquals("bench", 3)])
        assert bad and bad[0].magnitude == 2.0

    def test_unknown_id(self):
        layout = {"a": BBox(0, 0, 10, 10)}
        with pytest.raises(ValueError) as exc:
            check(layout, {}, [LeftOf("a", "ghost")])
        assert str(exc.value) == "constraint references unknown entity id 'ghost'"
        # with two ids missing, the first constraint's is reported
        with pytest.raises(ValueError) as exc:
            check(layout, {}, [LeftOf("a", "zed"), NonOverlap("abe", "a")])
        assert str(exc.value) == "constraint references unknown entity id 'zed'"


class TestTotalMagnitude:
    def test_zero_when_satisfied(self):
        layout = {"a": BBox(0, 0, 100, 100), "b": BBox(200, 0, 300, 100)}
        assert total_magnitude(layout, {}, [LeftOf("a", "b"), NonOverlap("a", "b")]) == 0.0

    def test_left_of_magnitude(self):
        # centers 500 vs 300, margin 0 -> max(0, 500 - 300) = 200
        layout = {"a": BBox(400, 0, 600, 100), "b": BBox(200, 0, 400, 100)}
        assert total_magnitude(layout, {}, [LeftOf("a", "b")]) == 200.0

    def test_additivity(self):
        layout = {"a": BBox(400, 0, 600, 100), "b": BBox(200, 0, 400, 100)}
        cs = [LeftOf("a", "b"), Above("a", "b", 10.0)]
        per = [total_magnitude(layout, {}, [c]) for c in cs]
        assert total_magnitude(layout, {}, cs) == sum(per)


class TestProperties:
    def test_leftof_rightof_duality(self):
        rng = random.Random(21)
        for _ in range(100):
            layout = {"a": random_box(rng), "b": random_box(rng)}
            left_ok = not check(layout, {}, [LeftOf("a", "b")])
            right_ok = not check(layout, {}, [RightOf("b", "a")])
            assert left_ok == right_ok

    def test_oracle_agreement(self):
        rng = random.Random(4711)
        for _ in range(100):
            layout, cats, cons = random_case(rng)
            for con in cons:
                violations = check(layout, cats, [con])
                assert all(v.magnitude > 0 for v in violations)
                assert (not violations) == oracle_satisfied(con, layout, cats)

    def test_magnitude_continuity_near_boundary(self):
        # shifting one unit changes the directional magnitude by one unit
        base = {"a": BBox(400, 0, 600, 100), "b": BBox(398, 200, 598, 300)}
        m0 = total_magnitude(base, {}, [LeftOf("a", "b")])
        shifted = {"a": BBox(399, 0, 599, 100), "b": base["b"]}
        m1 = total_magnitude(shifted, {}, [LeftOf("a", "b")])
        assert m0 == 2.0 and m1 == 1.0

    def test_grid_cell_geometry(self):
        g = Grid(3, 4, (("a", (0, 0)),))
        x1, y1, x2, y2 = g.cell_rect(0, 0)
        assert (x1, y1, x2, y2) == (0.0, 0.0, 250.0, 1000 / 3)
        layout = {"a": BBox(100, 100, 150, 200)}
        assert check(layout, {}, [g]) == []
        far = {"a": BBox(800, 800, 900, 900)}
        bad = check(far, {}, [g])
        assert len(bad) == 1
        assert bad[0].magnitude == pytest.approx(
            math.hypot(850 - 250, 850 - 1000 / 3)
        )

    def test_grid_empty_cell(self):
        g = Grid(2, 2, (), ((0, 0),))
        ok = {"a": BBox(600, 600, 900, 900)}
        assert check(ok, {}, [g]) == []
        bad = check({"a": BBox(100, 100, 200, 200)}, {}, [g])
        assert len(bad) == 1 and bad[0].magnitude > 0


class TestValidation:
    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match=r"^margin must be a finite number >= 0, got -1\.0$"):
            LeftOf("a", "b", -1.0)

    def test_grid_dims(self):
        with pytest.raises(ValueError, match=r"^grid needs rows >= 1 and cols >= 1$"):
            Grid(0, 3, ())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: LeftOf("a", "b", v),
            lambda v: Contains("a", "b", v),
            lambda v: NonOverlap("a", "b", v),
            lambda v: AdjacentTo("a", "b", v),
            lambda v: AlignedRow(("a", "b"), v),
            lambda v: AlignedCol(("a", "b"), v),
        ],
        ids=["margin", "contains_margin", "epsilon", "max_gap", "row_tol", "col_tol"],
    )
    def test_non_finite_tolerance_rejected(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_grid_assignment_outside_rejected(self):
        with pytest.raises(ValueError, match="outside 2 x 3"):
            Grid(2, 3, (("a", (2, 0)),))
        with pytest.raises(ValueError, match="outside 2 x 3"):
            Grid(2, 3, (("a", (0, -1)),))

    def test_grid_empty_cell_outside_rejected(self):
        with pytest.raises(ValueError, match="outside 2 x 3"):
            Grid(2, 3, (), ((0, 3),))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            CountEquals("cat", -1)

    @pytest.mark.parametrize("cls", [AlignedRow, AlignedCol])
    @pytest.mark.parametrize("ids", [(), ("a",)])
    def test_alignment_needs_two_ids(self, cls, ids):
        with pytest.raises(ValueError, match="at least 2 ids"):
            cls(ids)

    def test_from_dict_rejects_before_planning(self):
        with pytest.raises(ValueError, match="finite"):
            Constraint.from_wire(
                {"kind": "left_of", "a": "a", "b": "b", "margin": "nan"}, "constraint record"
            )
        with pytest.raises(ValueError, match="outside"):
            Constraint.from_wire(
                {"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [5, 0]}},
                "constraint record",
            )


    @pytest.mark.parametrize(
        "record, match",
        [
            ({"kind": "grid", "rows": 2, "cols": 2, "assignments": [["a", [0, 0]]]},
             "assignments must be an object"),
            ({"kind": "left_of", "a": "a", "b": ["b"]}, "b must be a string"),
            ({"kind": "non_overlap", "a": 1, "b": "b"}, "a must be a string"),
            ({"kind": "aligned_row", "ids": "ab"}, "ids must be a list"),
            ({"kind": "aligned_col", "ids": ["a", 2]}, "ids must be a string"),
            ({"kind": "count_equals", "category": "cat", "count": 2.7}, "count must be an int"),
            ({"kind": "count_equals", "category": "cat", "count": True}, "count must be an int"),
            ({"kind": "count_equals", "category": 3, "count": 1}, "category must be a string"),
            ({"kind": "grid", "rows": 2.9, "cols": 2, "assignments": {}},
             "rows must be an integer"),
            ({"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [0]}}, r"\[row, col\]"),
            ({"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [0, 1.0]}},
             "grid col must be an integer"),
            ({"kind": "grid", "rows": 2, "cols": 2, "assignments": {},
              "empty_cells": [[0, "1"]]}, "grid col must be an integer"),
            ({"kind": "grid", "rows": 2, "cols": 2, "assignments": {}, "empty_cells": {}},
             "empty_cells must be a list"),
            ({"kind": "left_of", "a": "a", "b": "b", "margin": True}, "finite"),
            ({"kind": "contains", "outer": "a", "inner": "b", "margin": None}, "finite"),
            ({"kind": "adjacent_to", "a": "a", "b": "b", "max_gap": 10**400}, "out of range"),
            ("left_of", "must be an object"),
            ({"kind": ["left_of"]}, "unknown constraint kind"),
        ],
    )
    def test_from_dict_rejects_wrong_field_types(self, record, match):
        with pytest.raises(ValueError, match=match):
            Constraint.from_wire(record, "constraint record")

    def test_from_dict_reads_integer_tolerance_as_float(self):
        record = {"kind": "left_of", "a": "a", "b": "b", "margin": 0}
        con = Constraint.from_wire(record, "constraint record")
        assert con == LeftOf("a", "b") and type(con.margin) is float
        assert repr(con.to_wire()["margin"]) == "0.0"


class TestSerialization:
    def test_round_trip_all_kinds(self):
        cons = [
            LeftOf("a", "b", 5.0),
            RightOf("a", "b"),
            Above("a", "b", 1.0),
            Below("b", "a"),
            Contains("a", "b", 2.0),
            NonOverlap("a", "b", 10.0),
            AdjacentTo("a", "b", 4.0),
            AlignedRow(("a", "b"), 3.0),
            AlignedCol(("a", "b")),
            CountEquals("cat", 2),
            Grid(2, 3, (("a", (0, 1)),), ((1, 2),)),
        ]
        for con in cons:
            assert Constraint.from_wire(con.to_wire(), "constraint record") == con

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown constraint kind 'teleports_to'$"):
            Constraint.from_wire({"kind": "teleports_to"}, "constraint record")
