"""Behaviour lock for the planner: SHA-256 digests of everything `plan`
and `repair` emit, over fixed scene families.

Each digest covers, per scene and planner seed: the sorted boxes, the
iteration count, the residual messages with `repr` of each magnitude,
the repair objective trace, the `plan_to_output` JSON, and a second
repair with a short budget and a small starting step. Any changed byte
changes a digest. The pinned values were recorded before repair became
incremental; a deliberate behaviour change must update them and say so.
"""

import hashlib
import json
import random

import pytest

from scotkit.constraints import (
    Above,
    AdjacentTo,
    AlignedCol,
    AlignedRow,
    Below,
    Contains,
    CountEquals,
    Grid,
    LeftOf,
    NonOverlap,
    RightOf,
)
from scotkit.geometry import BBox
from scotkit.planner import (
    EntitySpec,
    SceneSpec,
    plan,
    plan_to_output,
    propose_initial,
    repair,
)

from conftest import NOUNS, synth_satisfiable_spec

PLANNER_SEEDS = (0, 1)


def _entities(n: int, size: str) -> tuple[EntitySpec, ...]:
    return tuple(
        EntitySpec(id=f"e{i}", phrase=NOUNS[i % len(NOUNS)],
                   category=NOUNS[i % len(NOUNS)], size=size)
        for i in range(n)
    )


def _center(box: BBox) -> tuple[float, float]:
    return ((box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2)


def hard_spec(seed: int, n: int) -> SceneSpec:
    """A hidden random disjoint layout of n boxes, all-pairs NonOverlap,
    and 2n directional relations that the hidden layout witnesses."""
    rng = random.Random(f"golden-hard-{seed}-{n}")
    hidden: list[BBox] = []
    while len(hidden) < n:
        w, h = rng.randint(70, 150), rng.randint(70, 150)
        x, y = rng.randint(0, 1000 - w), rng.randint(0, 1000 - h)
        box = BBox(x, y, x + w, y + h)
        if all(
            box.xmax <= o.xmin or o.xmax <= box.xmin or box.ymax <= o.ymin or o.ymax <= box.ymin
            for o in hidden
        ):
            hidden.append(box)
    ids = [f"e{i}" for i in range(n)]
    cons: list = [NonOverlap(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    seen: set[tuple[str, str, int]] = set()
    while len(seen) < 2 * n:
        ia, ib = rng.sample(range(n), 2)
        axis = rng.randrange(2)
        ca, cb = _center(hidden[ia]), _center(hidden[ib])
        a, b = ids[ia], ids[ib]
        if abs(ca[axis] - cb[axis]) < 30 or (a, b, axis) in seen:
            continue
        seen.add((a, b, axis))
        if axis == 0:
            cons.append(LeftOf(a, b) if ca[0] < cb[0] else RightOf(a, b))
        else:
            cons.append(Above(a, b) if ca[1] < cb[1] else Below(a, b))
    return SceneSpec(entities=_entities(n, "small"), constraints=tuple(cons))


def feature_spec(seed: int) -> SceneSpec:
    """A small scene mixing every constraint kind the hard family lacks:
    Grid with assignments and empty cells, Contains, AlignedRow and
    AlignedCol, AdjacentTo and CountEquals."""
    rng = random.Random(f"golden-feature-{seed}")
    n = rng.randint(5, 9)
    ids = [f"e{i}" for i in range(n)]
    rows, cols = rng.randint(2, 3), rng.randint(2, 3)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    assigned = ids[:2]
    grid = Grid(
        rows=rows,
        cols=cols,
        assignments=tuple(zip(assigned, cells[:2])),
        empty_cells=tuple(cells[2:2 + rng.randint(1, 2)]),
    )
    cons: list = [grid]
    cons.append(Contains(ids[-1], ids[2], margin=rng.choice([0.0, 5.0])))
    cons.append(AlignedRow(tuple(ids[2:5]), tol=rng.uniform(0, 20)))
    cons.append(AlignedCol((ids[3], ids[-2]), tol=rng.uniform(0, 20)))
    cons.append(AdjacentTo(ids[1], ids[4], max_gap=rng.uniform(0, 30)))
    for _ in range(3):
        a, b = rng.sample(ids, 2)
        cons.append(rng.choice([NonOverlap(a, b), LeftOf(a, b, 10.0), Below(a, b)]))
    cons.append(CountEquals(NOUNS[0], rng.randint(0, 2)))
    entities = _entities(n, "medium")
    entities = entities[:-1] + (
        EntitySpec(id=ids[-1], phrase="room", category="room", size="large"),
    )
    return SceneSpec(entities=entities, constraints=tuple(cons), tail="in a room")


def _record(spec: SceneSpec, seed: int) -> list:
    result = plan(spec, seed=seed)
    trace: list[float] = []
    traced = repair(propose_initial(spec, seed), spec, _trace=trace)
    short = repair(propose_initial(spec, seed), spec, max_iters=37, step_start=0.03)
    return [
        [_layout(r) for r in (result, traced, short)],
        [repr(t) for t in trace],
        json.dumps(plan_to_output(spec, result).to_dict()),
    ]


def _layout(result) -> list:
    return [
        sorted((k, b.as_list()) for k, b in result.boxes.items()),
        result.iterations,
        [(v.message, repr(v.magnitude)) for v in result.residual],
    ]


def _digest(specs) -> str:
    records = [_record(spec, seed) for spec in specs for seed in PLANNER_SEEDS]
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


GOLDEN = {
    "acceptance": "ab87a77ab5e79f5765ad5bd192a6ce3a14d50083ab09fa781ae8568812f8fac5",
    "hard": "5ee55c721eeb3f2015cf655d577c0f2449f698f1954a8e278adfeda829321823",
    "features": "13aefe5b71bcd0905e12b3808cc56072192b9725dc291701f20fc5889bd1eda1",
}


def _family(name: str):
    if name == "acceptance":
        return [synth_satisfiable_spec(seed) for seed in range(50)]
    if name == "hard":
        return [hard_spec(0, 16), hard_spec(1, 16), hard_spec(0, 24)]
    return [feature_spec(seed) for seed in range(8)]


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_planner_outputs_match_pinned_digest(family):
    assert _digest(_family(family)) == GOLDEN[family]
