"""Layout planning: scene specs, the deterministic propose-check-revise
procedure, and the planner-output wire schema.

The heuristic here is the offline, testable stand-in for an external
multimodal planner; both emit the same wire schema (a JSON object with
"reasoning", "prompt" and "objects", where the prompt carries
``<|bbox_N|>`` placeholders and objects are keyed ``"N. name"``).
"""

from __future__ import annotations

import math
import random
import re
from typing import TYPE_CHECKING, Mapping

from . import wire
from .constraints import Constraint, Grid, Violation, require_boxes
from .geometry import CANVAS, BBox, place
from .wire import Record, assign

if TYPE_CHECKING:
    from . import codec

SIZE_CLASSES = ("background", "large", "medium", "small")
_SIZE_SIDE = {"large": 400.0, "medium": 250.0, "small": 120.0}
# The codec's block markers, which no prompt may hold, and the prompt's
# placeholder for object N (group 1 is N).
_BLOCK_MARKERS = ("<|box|>", "<|/box|>")
_PLACEHOLDER_RE = re.compile(r"<\|bbox_(\d+)\|>")
_PLACEHOLDER_PREFIX_RE = re.compile(r"<\|bbox_[^|>]*\|?>?")
_MALFORMED = "malformed placeholder: {!r}"
# Text that would break the prompt and objects `plan_to_output` builds; a
# phrase ending in codec.tokenize's peeled punctuation would ground on it.
_MARKERS = (*_BLOCK_MARKERS, "<|bbox_")
_TRAILING_PUNCT = '.,;:!?"'


class PlannerOutputError(ValueError):
    """Planner text that does not follow the wire schema; its message is
    what the client feeds back to the model."""


class EntitySpec(Record):
    """One entity awaiting a box: phrase, attribute summary, category,
    and a coarse size prior."""

    id: str
    phrase: str
    category: str
    attrs: Mapping[str, str]
    size: str

    def __init__(self, id, phrase, category="", attrs=None, size="medium"):
        if size not in SIZE_CLASSES:
            raise ValueError(f"size must be one of {SIZE_CLASSES}, got {size!r}")
        if not phrase.strip() or "\n" in phrase or any(m in phrase for m in _MARKERS):
            raise ValueError("phrase must be one line of text with no block marker "
                             f"or placeholder, got {phrase!r}")
        if phrase.rstrip()[-1] in _TRAILING_PUNCT:
            raise ValueError(f"phrase must not end in any of {_TRAILING_PUNCT!r}, got {phrase!r}")
        assign(self, "id", id)
        assign(self, "phrase", phrase)
        assign(self, "category", category)
        assign(self, "attrs", {} if attrs is None else attrs)
        assign(self, "size", size)


class SceneSpec(Record):
    entities: tuple[EntitySpec, ...]
    constraints: tuple[Constraint, ...]
    tail: str | None

    def __init__(self, entities=(), constraints=(), tail=None):
        ids = {e.id for e in entities}
        if len(ids) != len(entities):
            raise ValueError("entity ids must be unique")
        require_boxes(ids, constraints)
        if tail is not None and any(m in tail for m in _MARKERS):
            raise ValueError(f"tail must hold no block marker or placeholder, got {tail!r}")
        assign(self, "entities", entities)
        assign(self, "constraints", constraints)
        assign(self, "tail", tail)

    @property
    def categories(self) -> dict[str, str]:
        return {e.id: e.category for e in self.entities}


class LayoutPlan(Record):
    boxes: dict[str, BBox]
    iterations: int
    residual: tuple[Violation, ...]

    def __init__(self, boxes, iterations, residual):
        assign(self, "boxes", boxes)
        assign(self, "iterations", iterations)
        assign(self, "residual", residual)


class PlannerOutput(Record):
    """The wire schema: reasoning text, a placeholder prompt, and the
    ordered objects map. Object N is keyed "N. name", and the prompt holds
    its placeholder ``<|bbox_N|>`` once, after a word; consecutive
    placeholders share that word. Any other key or placeholder, or a block
    marker in the prompt, raises PlannerOutputError."""

    reasoning: str
    prompt: str
    objects: tuple[tuple[str, BBox], ...]  # ("N. name", box) in order

    def __init__(self, reasoning, prompt, objects):
        for expected, (key, _) in enumerate(objects, start=1):
            km = _OBJECT_KEY_RE.match(key)
            if not km:
                raise PlannerOutputError(f'object key must look like "N. name", got {key!r}')
            index = _number(km.group(1))
            if index != expected:
                raise PlannerOutputError(
                    f"object indices must run 1..N, expected {expected} got {index}")
        _check_placeholders(prompt, len(objects))
        assign(self, "reasoning", reasoning)
        assign(self, "prompt", prompt)
        assign(self, "objects", objects)

    def to_dict(self) -> dict:
        return wire.write(self)


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_OBJECT_KEY_RE = re.compile(r"^(\d+)\.\s+.+$")


def _number(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise PlannerOutputError(str(exc)) from None


def _check_placeholders(prompt: str, count: int) -> None:
    """Raise PlannerOutputError unless placeholders 1..count each appear
    once in prompt, the first after a word, with no block marker between
    them."""
    for m in _PLACEHOLDER_PREFIX_RE.finditer(prompt):
        if not _PLACEHOLDER_RE.fullmatch(m.group(0)):
            raise PlannerOutputError(_MALFORMED.format(m.group(0)))
    matches = list(_PLACEHOLDER_RE.finditer(prompt))
    seen: set[int] = set()
    for m in matches:
        n = _number(m.group(1))
        if not 1 <= n <= count:
            raise PlannerOutputError(f"placeholder <|bbox_{n}|> has no matching object")
        if n in seen:
            raise PlannerOutputError(_MALFORMED.format(m.group(0)))
        seen.add(n)
    for n in range(1, count + 1):
        if n not in seen:
            raise PlannerOutputError(f"object {n} has no matching placeholder")
    for k, segment in enumerate(_PLACEHOLDER_RE.split(prompt)[::2]):
        if any(marker in segment for marker in _BLOCK_MARKERS):
            raise PlannerOutputError(f"stray block marker near: {segment!r}")
        if k == 0 and matches and not segment.split():
            raise PlannerOutputError(_MALFORMED.format(matches[0].group(0)))


def parse_planner_output(raw: str) -> PlannerOutput:
    """`planner_output_from_dict` of raw planner text: JSON, or else the
    JSON in its first code fence."""
    try:
        doc = _loads(raw)
    except PlannerOutputError:
        m = _FENCE_RE.search(raw)
        if not m:
            raise
        doc = _loads(m.group(1))
    return planner_output_from_dict(doc)


def _loads(text: str):
    try:
        return wire.loads(text)
    except ValueError as exc:
        raise PlannerOutputError(f"not valid JSON: {exc}") from exc


def planner_output_from_dict(doc) -> PlannerOutput:
    """The PlannerOutput of a decoded JSON document: its fields must have
    their JSON types and its object values be boxes, and PlannerOutput
    checks the rest."""
    if not isinstance(doc, dict):
        raise PlannerOutputError(f"expected a JSON object, got {type(doc).__name__}")

    for name, kind in (("reasoning", str), ("prompt", str), ("objects", dict)):
        if not isinstance(doc.get(name), kind):
            raise PlannerOutputError(f"planner output is missing field {name!r}")

    objects: list[tuple[str, BBox]] = []
    for key, value in doc["objects"].items():
        try:
            objects.append((key, BBox.from_wire(value, "box")))
        except ValueError as exc:
            raise PlannerOutputError(f"invalid box for {key!r}: {exc}") from exc
    return PlannerOutput(doc["reasoning"], doc["prompt"], tuple(objects))


def to_instruction(out: PlannerOutput) -> codec.InterleavedInstruction:
    """Decode the prompt with each placeholder replaced by its object's
    coordinate block; any text after the last placeholder remains as
    trailing context tokens."""
    from . import codec

    return codec.parse_instruction(_PLACEHOLDER_RE.sub(
        lambda m: codec.block(out.objects[int(m.group(1)) - 1][1]), out.prompt))


# --- the deterministic layout procedure -------------------------------


def propose_initial(spec: SceneSpec, seed: int = 0) -> dict[str, BBox]:
    """Coarse placement: background entities span the canvas, grid
    assignments sit at their cell centers, and everything else packs
    left-to-right, top-to-bottom with seeded jitter around the box side
    of its size class."""
    rng = random.Random(seed)
    boxes: dict[str, BBox] = {}
    grid_cells = {eid: (c, cell) for c in spec.constraints if isinstance(c, Grid)
                  for eid, cell in c.assignments}

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
            boxes[e.id] = place(cx, cy, w, h)
        else:
            row, col = divmod(slot, ncols)
            slot += 1
            side = _SIZE_SIDE[e.size]
            # ±5% seeded jitter on position and size
            cx = (col + 0.5) * cell_w + rng.uniform(-0.05, 0.05) * CANVAS
            cy = (row + 0.5) * cell_h + rng.uniform(-0.05, 0.05) * CANVAS
            w = side * rng.uniform(0.95, 1.05)
            h = side * rng.uniform(0.95, 1.05)
            boxes[e.id] = place(cx, cy, w, h)
    return boxes


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

    Each candidate rescores, by magnitudes(), only the constraints whose
    entity_ids() hold a moved entity, plus those with watches_all set,
    and sums the constraints that have violations in their original
    order: the others add nothing, so the total is the float
    `total_magnitude` gives. Until a move is accepted the layout stays
    put, so moves equal to ones rejected since the last acceptance are
    rejected again unscored. No accept/reject decision changes. Once a
    sweep at the floor step accepts nothing, every later sweep would
    repeat it exactly, so repair stops there and reports
    ``iterations == max_iters``, as running them out would."""
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    current, cats, cs = dict(boxes), spec.categories, spec.constraints
    require_boxes(current, cs)
    everywhere = {i for i, con in enumerate(cs) if con.watches_all}
    touches = {eid: set(everywhere) for eid in current}  # what moving eid can change
    for i, con in enumerate(cs):
        for eid in con.entity_ids():
            touches[eid].add(i)
    # found[i] == cs[i].magnitudes(current, cats), and violated lists the
    # i with a nonempty found[i] in order; an accepted move rebinds them
    found = [con.magnitudes(current, cats) for con in cs]
    violated = [i for i, ms in enumerate(found) if ms]
    total = sum([m for i in violated for m in found[i]])
    if _trace is not None:
        _trace.append(total)
    touched_by: dict[tuple[str, ...], set[int]] = {}  # by the ids a move changes
    rejected: set[tuple] = set()  # moves rejected since the last acceptance
    iterations, step = 0, step_start
    while total > 0 and iterations < max_iters:
        iterations += 1
        sweep_start = total
        for i, con in enumerate(cs):
            for magnitude in found[i]:
                moves = con.moves(magnitude, current, step)
                key = tuple(moves.items())
                if key in rejected:
                    continue
                touched = touched_by.get(ids := tuple(moves))
                if touched is None:
                    touched = touched_by[ids] = set().union(*[touches[eid] for eid in ids])
                candidate = {**current, **moves}
                rescored = found.copy()
                order = [j for j in violated if j not in touched]
                for j in touched:
                    rescored[j] = ms = cs[j].magnitudes(candidate, cats)
                    if ms:
                        order.append(j)
                order.sort()
                new_total = sum([m for j in order for m in rescored[j]])
                if new_total < total:
                    current, found, violated, total = candidate, rescored, order, new_total
                    rejected.clear()
                    if _trace is not None:
                        _trace.append(total)
                else:
                    rejected.add(key)
        if total > sweep_start:
            raise RuntimeError("repair must never increase the objective")
        if total == 0:
            break
        next_step = max(step_floor, step * step_decay)
        if total == sweep_start and next_step == step:
            iterations = max_iters
            break
        step = next_step
    residual = tuple(v for con in cs for v in con.violations(current, cats))
    return LayoutPlan(boxes=current, iterations=iterations, residual=residual)


def plan(spec: SceneSpec, seed: int = 0, max_iters: int = 200) -> LayoutPlan:
    """The full layout procedure: propose an initial placement, then
    repair it against the constraint set. Pure in its arguments."""
    return repair(propose_initial(spec, seed), spec, max_iters=max_iters)


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


def spec_from_dict(d: Mapping) -> SceneSpec:
    return wire.read(SceneSpec, d, "scene")
