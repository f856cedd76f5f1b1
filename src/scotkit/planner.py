"""Layout planning: scene specs, the deterministic propose-check-revise
procedure, and the planner-output wire schema.

The heuristic here is the offline, testable stand-in for an external
multimodal planner; both emit the same wire schema (a JSON object with
"reasoning", "prompt" and "objects", where the prompt carries
``<|bbox_N|>`` placeholders and objects are keyed ``"N. name"``).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import codec, constraints
from .constraints import (
    AdjacentTo,
    Above,
    AlignedCol,
    AlignedRow,
    Below,
    Constraint,
    Contains,
    Grid,
    LeftOf,
    NonOverlap,
    RightOf,
    Violation,
)
from .geometry import CANVAS, BBox, BoxError, center

SIZE_CLASSES = ("background", "large", "medium", "small")
_DEFAULT_SIZE_SIDE = {"large": 400.0, "medium": 250.0, "small": 120.0}


class PlannerOutputError(Exception):
    """Base class for planner wire-schema validation failures."""


class NotJson(PlannerOutputError):
    pass


class MissingField(PlannerOutputError):
    def __init__(self, name: str):
        super().__init__(f"planner output is missing field {name!r}")
        self.name = name


class MalformedObjectKey(PlannerOutputError):
    def __init__(self, key: str):
        super().__init__(f'object key must look like "N. name", got {key!r}')
        self.key = key


class IndexGap(PlannerOutputError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"object indices must run 1..N, expected {expected} got {got}")
        self.expected = expected
        self.got = got


class PlaceholderMismatch(PlannerOutputError):
    pass


class InvalidBox(PlannerOutputError):
    def __init__(self, key: str, detail: str):
        super().__init__(f"invalid box for {key!r}: {detail}")
        self.key = key


@dataclass(frozen=True)
class EntitySpec:
    """One entity awaiting a box: phrase, attribute summary, category,
    and a coarse size prior."""

    id: str
    phrase: str
    category: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)
    size: str = "medium"

    def __post_init__(self):
        if self.size not in SIZE_CLASSES:
            raise ValueError(f"size must be one of {SIZE_CLASSES}, got {self.size!r}")


@dataclass(frozen=True)
class SceneSpec:
    entities: tuple[EntitySpec, ...]
    constraints: tuple[Constraint, ...] = ()
    tail: str | None = None

    def __post_init__(self):
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValueError("entity ids must be unique")

    @property
    def categories(self) -> dict[str, str]:
        return {e.id: e.category for e in self.entities}


@dataclass(frozen=True)
class LayoutPlan:
    boxes: dict[str, BBox]
    iterations: int
    residual: tuple[Violation, ...]


@dataclass(frozen=True)
class PlannerOutput:
    """The wire schema: reasoning text, a placeholder prompt, and the
    ordered objects map."""

    reasoning: str
    prompt: str
    objects: tuple[tuple[str, BBox], ...]  # ("N. name", box) in order

    def index_map(self) -> dict[int, BBox]:
        return {i + 1: box for i, (_, box) in enumerate(self.objects)}

    def to_dict(self) -> dict:
        return {
            "reasoning": self.reasoning,
            "prompt": self.prompt,
            "objects": {key: box.as_list() for key, box in self.objects},
        }


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_OBJECT_KEY_RE = re.compile(r"^(\d+)\.\s+(.+)$")


def parse_planner_output(raw: str) -> PlannerOutput:
    """Parse and validate raw planner text against the wire schema."""
    m = _FENCE_RE.search(raw)
    payload = m.group(1) if m else raw
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise NotJson(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NotJson(f"expected a JSON object, got {type(doc).__name__}")

    for name in ("reasoning", "prompt", "objects"):
        if name not in doc:
            raise MissingField(name)
    reasoning, prompt, objects = doc["reasoning"], doc["prompt"], doc["objects"]
    if not isinstance(reasoning, str):
        raise MissingField("reasoning")
    if not isinstance(prompt, str):
        raise MissingField("prompt")
    if not isinstance(objects, dict):
        raise MissingField("objects")

    entries: list[tuple[str, BBox]] = []
    for expected, (key, value) in enumerate(objects.items(), start=1):
        km = _OBJECT_KEY_RE.match(key)
        if not km:
            raise MalformedObjectKey(key)
        index = int(km.group(1))
        if index != expected:
            raise IndexGap(expected, index)
        if not (
            isinstance(value, list)
            and len(value) == 4
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        ):
            raise InvalidBox(key, f"expected 4 integers, got {value!r}")
        try:
            box = BBox.from_list(value)
        except BoxError as exc:
            raise InvalidBox(key, str(exc)) from exc
        entries.append((key, box))

    placeholder_indices = [int(n) for n in codec._PLACEHOLDER_RE.findall(prompt)]
    if sorted(placeholder_indices) != list(range(1, len(entries) + 1)):
        raise PlaceholderMismatch(
            f"prompt placeholders {sorted(placeholder_indices)} do not match "
            f"object indices 1..{len(entries)}"
        )
    return PlannerOutput(reasoning=reasoning, prompt=prompt, objects=tuple(entries))


def to_instruction(out: PlannerOutput) -> codec.InterleavedInstruction:
    """Materialize the executable instruction; any text after the last
    placeholder remains as trailing context tokens."""
    return codec.substitute_placeholders(out.prompt, out.index_map())


# --- the deterministic layout procedure -------------------------------


def _grid_assignment(spec: SceneSpec) -> dict[str, tuple[Grid, tuple[int, int]]]:
    out: dict[str, tuple[Grid, tuple[int, int]]] = {}
    for c in spec.constraints:
        if isinstance(c, Grid):
            for eid, cell in c.assignments:
                out[eid] = (c, cell)
    return out


def propose_initial(
    spec: SceneSpec,
    seed: int = 0,
    size_priors: Mapping[str, float] | None = None,
) -> dict[str, BBox]:
    """Coarse placement: background entities span the canvas, grid
    assignments sit at their cell centers, and everything else packs
    left-to-right, top-to-bottom with seeded jitter. size_priors may
    override the default box side per size class."""
    rng = random.Random(seed)
    sides = dict(_DEFAULT_SIZE_SIDE)
    if size_priors:
        sides.update(size_priors)
    boxes: dict[str, BBox] = {}
    grid_cells = _grid_assignment(spec)

    packed = [
        e for e in spec.entities
        if e.size != "background" and e.id not in grid_cells
    ]
    n = len(packed)
    ncols = max(1, math.ceil(math.sqrt(n)))
    nrows = max(1, math.ceil(n / ncols)) if n else 1
    cell_w, cell_h = CANVAS / ncols, CANVAS / nrows

    slot = 0
    for e in spec.entities:
        if e.size == "background":
            boxes[e.id] = BBox(0, 0, CANVAS, CANVAS)
        elif e.id in grid_cells:
            grid, (row, col) = grid_cells[e.id]
            x1, y1, x2, y2 = grid.cell_rect(row, col)
            cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
            w, h = 0.8 * (x2 - x1), 0.8 * (y2 - y1)
            boxes[e.id] = _materialize(cx, cy, w, h)
        else:
            row, col = divmod(slot, ncols)
            slot += 1
            side = sides[e.size]
            # ±5% seeded jitter on position and size
            cx = (col + 0.5) * cell_w + rng.uniform(-0.05, 0.05) * CANVAS
            cy = (row + 0.5) * cell_h + rng.uniform(-0.05, 0.05) * CANVAS
            w = side * rng.uniform(0.95, 1.05)
            h = side * rng.uniform(0.95, 1.05)
            boxes[e.id] = _materialize(cx, cy, w, h)
    return boxes


def _materialize(cx: float, cy: float, w: float, h: float) -> BBox:
    """Integer box from a float center/size, clamped into the canvas."""
    w = min(max(w, 1.0), CANVAS)
    h = min(max(h, 1.0), CANVAS)
    x1 = cx - w / 2
    y1 = cy - h / 2
    x1 = min(max(x1, 0.0), CANVAS - w)
    y1 = min(max(y1, 0.0), CANVAS - h)
    xmin = int(math.floor(x1 + 0.5))
    ymin = int(math.floor(y1 + 0.5))
    xmax = min(CANVAS, xmin + max(1, int(math.floor(w + 0.5))))
    ymax = min(CANVAS, ymin + max(1, int(math.floor(h + 0.5))))
    if xmin >= xmax:
        xmin = xmax - 1
    if ymin >= ymax:
        ymin = ymax - 1
    return BBox(xmin, ymin, xmax, ymax)


def _shift(box: BBox, dx: float, dy: float) -> BBox:
    cx, cy = center(box)
    return _materialize(cx + dx, cy + dy, box.width, box.height)


def _resize(box: BBox, dw: float, dh: float) -> BBox:
    cx, cy = center(box)
    return _materialize(cx, cy, box.width + dw, box.height + dh)


def _at_least_unit(x: float) -> float:
    """Quantization floor: a nonzero move must span a full canvas unit."""
    if x > 0:
        return max(1.0, x)
    if x < 0:
        return min(-1.0, x)
    return 0.0


def _moves_for(v: Violation, boxes: Mapping[str, BBox], step: float) -> dict[str, BBox]:
    """Propose updated boxes that shrink this violation's magnitude."""
    c = v.constraint
    if isinstance(c, (LeftOf, RightOf, Above, Below)):
        shift = _at_least_unit(step * v.magnitude / 2)
        if isinstance(c, LeftOf):
            return {c.a: _shift(boxes[c.a], -shift, 0), c.b: _shift(boxes[c.b], shift, 0)}
        if isinstance(c, RightOf):
            return {c.a: _shift(boxes[c.a], shift, 0), c.b: _shift(boxes[c.b], -shift, 0)}
        if isinstance(c, Above):
            return {c.a: _shift(boxes[c.a], 0, -shift), c.b: _shift(boxes[c.b], 0, shift)}
        return {c.a: _shift(boxes[c.a], 0, shift), c.b: _shift(boxes[c.b], 0, -shift)}

    if isinstance(c, Contains):
        outer, inner = boxes[c.outer], boxes[c.inner]
        new_inner = inner
        over_w = inner.width - (outer.width + 2 * c.margin)
        over_h = inner.height - (outer.height + 2 * c.margin)
        if over_w > 0 or over_h > 0:
            new_inner = _resize(
                new_inner,
                -step * max(0.0, over_w) - (2 if over_w > 0 else 0),
                -step * max(0.0, over_h) - (2 if over_h > 0 else 0),
            )
        dx = dy = 0.0
        if new_inner.xmin < outer.xmin - c.margin:
            dx = _at_least_unit(step * ((outer.xmin - c.margin) - new_inner.xmin))
        elif new_inner.xmax > outer.xmax + c.margin:
            dx = _at_least_unit(-step * (new_inner.xmax - (outer.xmax + c.margin)))
        if new_inner.ymin < outer.ymin - c.margin:
            dy = _at_least_unit(step * ((outer.ymin - c.margin) - new_inner.ymin))
        elif new_inner.ymax > outer.ymax + c.margin:
            dy = _at_least_unit(-step * (new_inner.ymax - (outer.ymax + c.margin)))
        return {c.inner: _shift(new_inner, dx, dy)}

    if isinstance(c, NonOverlap):
        a, b = boxes[c.a], boxes[c.b]
        ox = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
        oy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
        if ox <= 0 or oy <= 0:
            return {}
        ca, cb = center(a), center(b)
        if ox <= oy:
            sign = -1.0 if ca[0] <= cb[0] else 1.0
            d = _at_least_unit(step * (ox / 2 + 1))
            return {c.a: _shift(a, sign * d, 0), c.b: _shift(b, -sign * d, 0)}
        sign = -1.0 if ca[1] <= cb[1] else 1.0
        d = _at_least_unit(step * (oy / 2 + 1))
        return {c.a: _shift(a, 0, sign * d), c.b: _shift(b, 0, -sign * d)}

    if isinstance(c, AdjacentTo):
        a, b = boxes[c.a], boxes[c.b]
        gx = max(a.xmin, b.xmin) - min(a.xmax, b.xmax)
        gy = max(a.ymin, b.ymin) - min(a.ymax, b.ymax)
        d = _at_least_unit(step * v.magnitude / 2)
        ca, cb = center(a), center(b)
        if gx >= gy:
            sign = 1.0 if ca[0] <= cb[0] else -1.0
            return {c.a: _shift(a, sign * d, 0), c.b: _shift(b, -sign * d, 0)}
        sign = 1.0 if ca[1] <= cb[1] else -1.0
        return {c.a: _shift(a, 0, sign * d), c.b: _shift(b, 0, -sign * d)}

    if isinstance(c, (AlignedRow, AlignedCol)):
        axis = 1 if isinstance(c, AlignedRow) else 0
        coords = [center(boxes[i])[axis] for i in c.ids]
        mean = sum(coords) / len(coords)
        out = {}
        for eid, coord in zip(c.ids, coords):
            delta = step * (mean - coord)
            if delta:
                delta = _at_least_unit(delta)
                out[eid] = _shift(boxes[eid], 0 if axis else delta, delta if axis else 0)
        return out

    if isinstance(c, Grid):
        out = {}
        for eid, (row, col) in c.assignments:
            x1, y1, x2, y2 = c.cell_rect(row, col)
            cx, cy = center(boxes[eid])
            px = min(max(cx, x1), x2)
            py = min(max(cy, y1), y2)
            if (px, py) != (cx, cy):
                out[eid] = _shift(
                    boxes[eid],
                    _at_least_unit(step * (px - cx)),
                    _at_least_unit(step * (py - cy)),
                )
        for row, col in c.empty_cells:
            x1, y1, x2, y2 = c.cell_rect(row, col)
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

    return {}  # counting constraints have no geometric move


def repair(
    boxes: Mapping[str, BBox],
    spec: SceneSpec,
    max_iters: int = 200,
    step_start: float = 0.5,
    step_decay: float = 0.95,
    step_floor: float = 0.05,
    _trace: list | None = None,
) -> LayoutPlan:
    """Iterative local repair: per sweep, each violated constraint
    proposes a translate/resize move scaled by the decaying step; a move
    is kept only if the total violation magnitude strictly decreases, so
    the objective never increases across accepted moves. Residual
    violations are reported, never dropped.

    Each candidate move rescores only the constraints that watch a moved
    entity (a Grid with empty cells watches every entity); the others
    keep their cached violations. The total is re-summed over all
    constraints in their original order, so it is the same float a full
    `total_magnitude` would give and every accept/reject decision is
    unchanged. Once a sweep at the floor step accepts nothing, every
    later sweep would repeat it exactly, so repair stops there and
    reports ``iterations == max_iters``, as running them out would."""
    current = dict(boxes)
    cats = spec.categories
    cs = spec.constraints
    watchers: dict[str, list[int]] = {}
    for i, con in enumerate(cs):
        for eid in _constraint_ids(con):
            watchers.setdefault(eid, []).append(i)
    everywhere = {i for i, con in enumerate(cs) if isinstance(con, Grid) and con.empty_cells}
    # found[i] == check(current, cats, [cs[i]]); an accepted move rebinds
    # the lists it changed instead of mutating them
    found = [constraints.check(current, cats, [con]) for con in cs]
    total = _total(found)
    if _trace is not None:
        _trace.append(total)
    iterations = 0
    step = step_start
    while total > 0 and iterations < max_iters:
        iterations += 1
        sweep_start = total
        for i in range(len(cs)):
            for violation in found[i]:
                moves = _moves_for(violation, current, step)
                if not moves:
                    continue
                candidate = dict(current)
                candidate.update(moves)
                touched = set(everywhere)
                for eid in moves:
                    touched.update(watchers.get(eid, ()))
                rescored = list(found)
                for j in touched:
                    rescored[j] = constraints.check(candidate, cats, [cs[j]])
                new_total = _total(rescored)
                if new_total < total:
                    current, found, total = candidate, rescored, new_total
                    if _trace is not None:
                        _trace.append(total)
        if total > sweep_start:
            raise RuntimeError("repair must never increase the objective")
        if total == 0:
            break
        next_step = max(step_floor, step * step_decay)
        if total == sweep_start and next_step == step:
            iterations = max_iters
            break
        step = next_step
    residual = tuple(v for vs in found for v in vs)
    return LayoutPlan(boxes=current, iterations=iterations, residual=residual)


def _total(found: Sequence[Sequence[Violation]]) -> float:
    """The sum `constraints.total_magnitude` computes, in the same order."""
    return sum(v.magnitude for vs in found for v in vs)


def plan(
    spec: SceneSpec,
    seed: int = 0,
    max_iters: int = 200,
    size_priors: Mapping[str, float] | None = None,
) -> LayoutPlan:
    """The full layout procedure: propose an initial placement, then
    repair it against the constraint set. Pure in its arguments."""
    return repair(
        propose_initial(spec, seed, size_priors=size_priors), spec, max_iters=max_iters
    )


def plan_to_output(spec: SceneSpec, layout_plan: LayoutPlan) -> PlannerOutput:
    """Emit the heuristic plan in the same wire schema an external
    planner would produce."""
    parts = []
    for n, e in enumerate(spec.entities, start=1):
        parts.append(f"{e.phrase}<|bbox_{n}|>")
    prompt = ", ".join(parts)
    if spec.tail:
        prompt = f"{prompt} {spec.tail}" if prompt else spec.tail
    objects = tuple(
        (f"{n}. {e.phrase}", layout_plan.boxes[e.id])
        for n, e in enumerate(spec.entities, start=1)
    )
    reasoning = (
        f"Deterministic local-search layout: {len(spec.entities)} entities, "
        f"{len(spec.constraints)} constraints, {layout_plan.iterations} repair "
        f"iterations, {len(layout_plan.residual)} residual violations."
    )
    return PlannerOutput(reasoning=reasoning, prompt=prompt, objects=objects)


# --- scene spec (de)serialization --------------------------------------


def spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "entities": [
            {
                "id": e.id,
                "phrase": e.phrase,
                "category": e.category,
                "attrs": dict(e.attributes),
                "size": e.size,
            }
            for e in spec.entities
        ],
        "constraints": [constraints.constraint_to_dict(c) for c in spec.constraints],
        "tail": spec.tail,
    }


def spec_from_dict(d: Mapping) -> SceneSpec:
    entities = tuple(
        EntitySpec(
            id=e["id"],
            phrase=e["phrase"],
            category=e.get("category", ""),
            attributes=dict(e.get("attrs", {})),
            size=e.get("size", "medium"),
        )
        for e in d.get("entities", [])
    )
    cons = tuple(constraints.constraint_from_dict(c) for c in d.get("constraints", []))
    spec = SceneSpec(entities=entities, constraints=cons, tail=d.get("tail"))
    known = {e.id for e in entities}
    for c in cons:
        for eid in _constraint_ids(c):
            if eid not in known:
                raise constraints.UnknownEntityId(eid)
    return spec


def _constraint_ids(c: Constraint) -> Sequence[str]:
    if isinstance(c, (LeftOf, RightOf, Above, Below, NonOverlap, AdjacentTo)):
        return (c.a, c.b)
    if isinstance(c, Contains):
        return (c.outer, c.inner)
    if isinstance(c, (AlignedRow, AlignedCol)):
        return c.ids
    if isinstance(c, Grid):
        return [eid for eid, _ in c.assignments]
    return ()
