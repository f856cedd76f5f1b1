"""Seeded input generators for the benchmark.

Every generator is a pure function of the workload seed: the same seed
gives byte-identical files. Scenes are written in the wire format that
`scot plan` / `check` / `repair` read, so the program only ever sees
generated files. Hard scenes are satisfiable by construction and each
one is checked against its hidden layout before it is used.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

NOUNS = [
    "apple", "bench", "tree", "lamp", "mug", "sofa", "vase", "book",
    "chair", "ball", "hat", "drum", "kite", "shoe", "clock", "plant",
    "radio", "stool", "towel", "basket", "jar", "candle", "mirror", "rug",
]
ADJS = ["red", "blue", "green", "yellow", "wooden", "small", "shiny", "striped"]
TAILS = ["on a table.", "in a sunny park.", "in a quiet room.", None]

_GOLDEN_RE = re.compile(r"Output:\s*```json\s*(.*?)```", re.DOTALL)


class GeneratorError(RuntimeError):
    """A generator could not build a valid input; never silently skipped."""


def rng_for(*parts) -> random.Random:
    """Independent stream per (workload, seed, item); string seeding is
    hashed with SHA-512, so it does not depend on PYTHONHASHSEED."""
    return random.Random("scotbench/" + "/".join(str(p) for p in parts))


def dumps(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


def _center(box):
    return ((box[0] + box[2]) / 2, (box[1] + box[3]) / 2)


def _disjoint(a, b) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def _entities(rng: random.Random, n: int, size: str) -> list[dict]:
    out = []
    for i in range(n):
        noun = NOUNS[i % len(NOUNS)]
        adj = rng.choice(ADJS)
        out.append({"id": f"e{i}", "phrase": f"{adj} {noun}", "category": noun,
                    "attrs": {"color": adj}, "size": size})
    return out


def _directional(a: str, b: str, ca, cb, axis: int) -> dict:
    if axis == 0:
        kind = "left_of" if ca[0] < cb[0] else "right_of"
    else:
        kind = "above" if ca[1] < cb[1] else "below"
    return {"kind": kind, "a": a, "b": b, "margin": 0.0}


def hard_scene(seed: int, index: int, n: int) -> tuple[dict, dict[str, list[int]]]:
    """A hidden random disjoint layout of n boxes, all-pairs NonOverlap,
    and 2n directional relations that the hidden layout witnesses."""
    rng = rng_for("plan_hard", seed, index, n)
    hidden: list[list[int]] = []
    tries = 0
    while len(hidden) < n:
        tries += 1
        if tries > 200_000:
            raise GeneratorError(f"could not place {n} disjoint boxes (seed {seed}, scene {index})")
        w, h = rng.randint(70, 150), rng.randint(70, 150)
        x, y = rng.randint(0, 1000 - w), rng.randint(0, 1000 - h)
        box = [x, y, x + w, y + h]
        if all(_disjoint(box, other) for other in hidden):
            hidden.append(box)
    entities = _entities(rng, n, "small")
    ids = [e["id"] for e in entities]
    boxes = dict(zip(ids, hidden))
    cons = [{"kind": "non_overlap", "a": a, "b": b, "epsilon": 0.0}
            for i, a in enumerate(ids) for b in ids[i + 1:]]
    seen: set[tuple[str, str, int]] = set()
    while len(seen) < 2 * n:
        a, b = rng.sample(ids, 2)
        axis = rng.randrange(2)
        ca, cb = _center(boxes[a]), _center(boxes[b])
        if abs(ca[axis] - cb[axis]) < 30 or (a, b, axis) in seen:
            continue
        seen.add((a, b, axis))
        cons.append(_directional(a, b, ca, cb, axis))
    doc = {"entities": entities, "constraints": cons, "tail": rng.choice(TAILS)}
    return doc, boxes


def small_scene(seed: int, index: int) -> tuple[dict, dict[str, list[int]]]:
    """Acceptance-family scene: 2-12 entities on a jittered grid, a few
    witnessed directional and NonOverlap relations, sometimes a row
    alignment and a containing background."""
    rng = rng_for("cli_small", seed, index)
    n = rng.randint(2, 12)
    ncols = 1
    while ncols * ncols < n:
        ncols += 1
    nrows = -(-n // ncols)
    cw, ch = 1000 / ncols, 1000 / nrows
    entities = _entities(rng, n, "small" if n > 6 else "medium")
    ids = [e["id"] for e in entities]
    boxes: dict[str, list[int]] = {}
    for i, eid in enumerate(ids):
        row, col = divmod(i, ncols)
        cx = (col + 0.5) * cw + rng.uniform(-0.1, 0.1) * cw
        cy = (row + 0.5) * ch + rng.uniform(-0.1, 0.1) * ch
        w, h = rng.uniform(0.3, 0.5) * cw, rng.uniform(0.3, 0.5) * ch
        boxes[eid] = [int(cx - w / 2), int(cy - h / 2), int(cx + w / 2), int(cy + h / 2)]
    cons = []
    wanted = rng.randint(1, max(1, n - 1))
    for _ in range(40):
        if len(cons) >= wanted:
            break
        a, b = rng.sample(ids, 2)
        ca, cb = _center(boxes[a]), _center(boxes[b])
        axis = 0 if abs(ca[0] - cb[0]) >= 60 and rng.random() < 0.5 else 1
        if abs(ca[axis] - cb[axis]) >= 60:
            cons.append(_directional(a, b, ca, cb, axis))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(ids, 2)
        cons.append({"kind": "non_overlap", "a": a, "b": b, "epsilon": 0.0})
    if nrows > 1 and rng.random() < 0.3:
        members = ids[:ncols]
        if len(members) >= 2:
            ys = [_center(boxes[m])[1] for m in members]
            dev = max(abs(y - sum(ys) / len(ys)) for y in ys)
            cons.append({"kind": "aligned_row", "ids": members, "tol": float(int(dev) + 15)})
    if rng.random() < 0.25:
        entities.append({"id": "scene", "phrase": "the scene", "category": "scene",
                         "attrs": {}, "size": "background"})
        boxes["scene"] = [0, 0, 1000, 1000]
        cons.append({"kind": "contains", "outer": "scene", "inner": rng.choice(ids),
                     "margin": 0.0})
    doc = {"entities": entities, "constraints": cons, "tail": rng.choice(TAILS)}
    return doc, boxes


def perturbed(boxes: dict[str, list[int]], rng: random.Random) -> dict[str, list[int]]:
    """Shift each box by up to 120 units, kept on the canvas, so `check`
    and `repair` see real violations."""
    out = {}
    for eid, (x1, y1, x2, y2) in boxes.items():
        dx = max(-x1, min(1000 - x2, rng.randint(-120, 120)))
        dy = max(-y1, min(1000 - y2, rng.randint(-120, 120)))
        out[eid] = [x1 + dx, y1 + dy, x2 + dx, y2 + dy]
    return out


def plan_doc(scene: dict, boxes: dict[str, list[int]]) -> dict:
    """Planner wire output for a scene and its boxes (render input)."""
    parts = [f"{e['phrase']}<|bbox_{i}|>" for i, e in enumerate(scene["entities"], 1)]
    return {
        "reasoning": "benchmark layout",
        "prompt": ", ".join(parts) + (f" {scene['tail']}" if scene["tail"] else ""),
        "objects": {f"{i}. {e['phrase']}": boxes[e["id"]]
                    for i, e in enumerate(scene["entities"], 1)},
    }


def predictions(records: list[dict], seed: int) -> list[dict]:
    """Perturbed copies of reference records: per entity, a seeded drop
    (10%), category swap (10%) or box jitter of up to 15% of each side;
    about 5% of records are dropped whole."""
    rng = rng_for("corpus-preds", seed)
    out = []
    for rec in records:
        if rng.random() < 0.05:
            continue
        ents = []
        for e in rec["entities"]:
            r = rng.random()
            if r < 0.10:
                continue
            attrs = dict(e["attrs"])
            if r < 0.20:
                attrs["category"] = rng.choice(NOUNS)
            x1, y1, x2, y2 = e["box"]
            jx, jy = max(1, (x2 - x1) * 15 // 100), max(1, (y2 - y1) * 15 // 100)
            nx1 = min(max(0, x1 + rng.randint(-jx, jx)), 999)
            ny1 = min(max(0, y1 + rng.randint(-jy, jy)), 999)
            nx2 = max(min(1000, x2 + rng.randint(-jx, jx)), nx1 + 1)
            ny2 = max(min(1000, y2 + rng.randint(-jy, jy)), ny1 + 1)
            ents.append({"phrase": e["phrase"], "attrs": attrs, "box": [nx1, ny1, nx2, ny2]})
        out.append({**rec, "entities": ents, "source": "prediction"})
    return out


def golden_replies(prompt_text: str) -> list[str]:
    """The worked planner outputs shipped inside the system prompt."""
    blocks = [f"```json\n{m}\n```" for m in _GOLDEN_RE.findall(prompt_text)]
    if len(blocks) != 7:
        raise GeneratorError(f"expected 7 golden replies in the system prompt, found {len(blocks)}")
    return blocks


BAD_REPLIES = (
    "I could not produce a layout for this request.",
    '{"reasoning": "r", "prompt": "a cat<|bbox_1|>"}',
    '{"reasoning": "r", "prompt": "a cat<|bbox_2|>", "objects": {"1. cat": [1, 2, 30, 40]}}',
    '{"reasoning": "r", "prompt": "a cat<|bbox_1|>", "objects": {"1. cat": [1, 2, 3000, 40]}}',
)


BAD_SHARE = 0.3  # of `plan --mllm` calls whose first reply fails validation


def mllm_schedule(seed: int, count: int, n_golden: int) -> list[tuple[str | None, int]]:
    """Per `plan --mllm` call: an invalid first reply (or None) and the
    index of the golden reply that follows it."""
    rng = rng_for("mllm", seed)
    return [
        (rng.choice(BAD_REPLIES) if rng.random() < BAD_SHARE else None, i % n_golden)
        for i in range(count)
    ]


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path
