"""Behaviour lock: SHA-256 digests of everything `plan` and `repair`
emit over fixed scene families, of the constraint wire records and
`scot check` output, of the codec's outputs and first errors, and of a
`toy train` checkpoint and loss curve, a `toy sample` points file, one
plan's SVG and a synthetic corpus file, and of the stdout of the four
record commands (`encode`, `decode`, `eval`, `dataset stats`) on a fixed
corpus at one, two and three worker CPUs.

Each planner digest covers, per scene and planner seed: the sorted boxes, the
iteration count, the residual messages with `repr` of each magnitude,
the repair objective trace, the `plan_to_output` JSON, and a second
repair with a short budget and a small starting step. Any changed byte
changes a digest. The planner values were recorded before repair became
incremental, the wire and codec values before each constraint kind
became one class, the checkpoint, SVG and corpus values before an
instruction stopped storing its token stream, and the loss-curve and
points values before the flow-matching steps reused their buffers, and
the record-command values before those commands ran on forked workers; a
deliberate behaviour change must update them and say so.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random

import pytest

from scotkit import codec
from scotkit.cli import main
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
from scotkit.dataset import record_to_instruction, save_records, synth_generate
from scotkit.geometry import BBox
from scotkit.planner import (
    EntitySpec,
    SceneSpec,
    parse_planner_output,
    plan,
    plan_to_output,
    propose_initial,
    repair,
    to_instruction,
)
from scotkit.render import render_svg

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
    return _sha([_record(spec, seed) for spec in specs for seed in PLANNER_SEEDS])


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


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


# one instance of every kind, with default and with non-default tolerances
WIRE_CONSTRAINTS = {
    "default": [
        LeftOf("a", "b"),
        RightOf("a", "b"),
        Above("a", "b"),
        Below("a", "b"),
        Contains("a", "b"),
        NonOverlap("a", "b"),
        AdjacentTo("a", "b"),
        AlignedRow(("a", "b", "c")),
        AlignedCol(("a", "b")),
        CountEquals("apple", 2),
        Grid(2, 3, (("a", (0, 1)),)),
    ],
    "tuned": [
        LeftOf("a", "b", 5.0),
        RightOf("b", "a", 2.5),
        Above("c", "a", 1.0),
        Below("a", "c", 7.25),
        Contains("c", "b", 3.0),
        NonOverlap("b", "c", 10.0),
        AdjacentTo("a", "c", 4.5),
        AlignedRow(("c", "a"), 3.0),
        AlignedCol(("b", "a", "c"), 0.5),
        CountEquals("bench", 0),
        Grid(3, 2, (("a", (2, 1)), ("b", (0, 0))), ((1, 1), (0, 1))),
    ],
}

WIRE_GOLDEN = {
    "default": "3a39b3d9febeb19d4febb4288abb7174d2c9c5ae6c567f2bf1d476f2da4f9872",
    "tuned": "a4690343464549f7c6d3703d64755a189baac510903408205c279fa69519f4fc",
}


@pytest.mark.parametrize("name", sorted(WIRE_GOLDEN))
def test_constraint_wire_records_match_pinned_digest(name):
    records = [c.to_wire() for c in WIRE_CONSTRAINTS[name]]
    assert _sha(records) == WIRE_GOLDEN[name]


# boxes chosen so that every constraint kind reports a violation
CHECK_SCENE = {
    "entities": [
        {"id": "a", "phrase": "red apple", "category": "apple", "size": "small"},
        {"id": "b", "phrase": "bench", "category": "bench", "size": "medium"},
        {"id": "c", "phrase": "tree", "category": "tree", "size": "medium"},
        {"id": "d", "phrase": "lamp", "category": "lamp", "size": "small"},
    ],
    "constraints": [
        {"kind": "left_of", "a": "a", "b": "b", "margin": 12.5},
        {"kind": "right_of", "a": "b", "b": "a"},
        {"kind": "above", "a": "a", "b": "b", "margin": 3},
        {"kind": "below", "a": "b", "b": "a"},
        {"kind": "contains", "outer": "b", "inner": "a", "margin": 5},
        {"kind": "non_overlap", "a": "b", "b": "c", "epsilon": 100},
        {"kind": "adjacent_to", "a": "a", "b": "d", "max_gap": 10},
        {"kind": "aligned_row", "ids": ["a", "b", "d"], "tol": 2},
        {"kind": "aligned_col", "ids": ["b", "d"]},
        {"kind": "count_equals", "category": "apple", "count": 3},
        {"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [0, 0]},
         "empty_cells": [[0, 0]]},
    ],
    "boxes": {
        "a": [600, 600, 700, 700],
        "b": [100, 100, 300, 300],
        "c": [150, 150, 250, 450],
        "d": [800, 50, 900, 150],
    },
}

CHECK_GOLDEN = "2ace299e48be6fea68a1a6e17b254b6de943c37abd830a4ba1169b0dcf796f33"


def test_check_stdout_matches_pinned_digest(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(CHECK_SCENE))
    assert main(["check", str(scene)]) == 0
    out = capsys.readouterr().out
    kinds = {v["constraint"]["kind"] for v in json.loads(out)["violations"]}
    assert kinds == {c["kind"] for c in CHECK_SCENE["constraints"]}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_GOLDEN


def _instruction_record(instr: codec.InterleavedInstruction) -> list:
    # (kind, text, index) per word and per block part, each entity's block
    # (open marker, four coordinates, close marker) after its span end; the
    # {} is the empty attribute map the entities once carried
    parts = [("word", w) for w in instr.words]
    for e in reversed(instr.entities):
        end = e.span[1]
        parts[end:end] = [("box_open", codec.BOX_OPEN),
                          *(("coord", str(c)) for c in e.box.as_list()),
                          ("box_close", codec.BOX_CLOSE)]
    return [
        [(kind, text, i) for i, (kind, text) in enumerate(parts)],
        [(e.phrase, {}, e.box.as_list(), list(e.span)) for e in instr.entities],
    ]


CODEC_GOLDEN = {
    "synth": "1bcf7d1e8f57e9ccbcf31d18eafb4b0876be0f96523256ff228981f968758657",
    "examples": "d54ea9421fa7d240d3957f3d46e890103f18d936a7095bd34cab2a2659e11a98",
}


def test_codec_round_trip_matches_pinned_digest():
    records = []
    for record in synth_generate(0, 200):
        line = codec.serialize(record_to_instruction(record))
        caption, entities = codec.parse(line)
        records.append([
            line,
            caption,
            [(e.phrase, e.box.as_list(), list(e.span)) for e in entities],
            _instruction_record(codec.parse_instruction(line)),
        ])
    assert _sha(records) == CODEC_GOLDEN["synth"]


def test_system_prompt_examples_match_pinned_digest(golden_examples):
    records = []
    for raw in golden_examples:
        instr = to_instruction(parse_planner_output(raw))
        records.append([codec.serialize(instr), _instruction_record(instr)])
    assert _sha(records) == CODEC_GOLDEN["examples"]


_B = BBox(10, 20, 30, 40)

# (input, kind, message of the first error raised); the kind names the
# row in test ids, and both are None for input that decodes
PARSE_ERRORS = [
    ("x <|box|>1,2<|/box|>", "CoordCountNot4", "coordinate block must hold exactly 4 values: '1,2'"),
    ("cat <|box|>0,0,1500,10<|/box|>", "CoordOutOfRange", "coordinate out of [0, 1000]: '1500'"),
    ("cat <|box|>1,2,3,4", "UnbalancedBlock", "stray block marker near: 'cat <|box|>1,2,3,4'"),
    ("<|box|>1,2,3,4<|/box|> cat", "UnbalancedBlock", "coordinate block with no preceding token"),
    ("cat <|box|>a,b<|/box|> dog <|/box|>", "CoordCountNot4",
     "coordinate block must hold exactly 4 values: 'a,b'"),
    ("cat <|/box|> <|box|>1,2,3,4<|/box|>", "UnbalancedBlock", "stray block marker near: 'cat <|/box|> '"),
    ("<|box|>1,2,3<|/box|> cat", "UnbalancedBlock", "coordinate block with no preceding token"),
    ("cat <|box|><|box|>1,2,3,4<|/box|>", "UnbalancedBlock",
     "nested block marker in payload: '<|box|>1,2,3,4'"),
    ("cat <|box|>5,5,5,9<|/box|>", "BoxError", "need 0 <= xmin < xmax <= 1000, got [5, 5, 5, 9]"),
    ("cat <|box|>1,2,3,-4<|/box|> <|box|>", "CoordOutOfRange", "coordinate out of [0, 1000]: '-4'"),
    ("cat <|box|>1,2,3,4<|/box|> dog <|box|>1,2,3<|/box|> <|/box|>", "CoordCountNot4",
     "coordinate block must hold exactly 4 values: '1,2,3'"),
    ("cat <|box|>1,2,3,4<|/box|><|box|>5,6,7,8<|/box|> <|box|>", "UnbalancedBlock",
     "stray block marker near: ' <|box|>'"),
    ("a <|box|>1,2,3,4<|/box|> <|box|>1,2,3,4<|/box|>", None, None),
    ("", None, None),
]

SUBSTITUTE_ERRORS = [
    ("cat <|bbox_1|>", {}, "MissingObject", "placeholder <|bbox_1|> has no matching object"),
    ("cat <|bbox_1|>", {1: _B, 2: _B}, "UnusedObject", "object 2 has no matching placeholder"),
    ("cat <|bbox_x|>", {1: _B}, "MalformedPlaceholder", "malformed placeholder: '<|bbox_x|>'"),
    ("<|bbox_1|> cat", {1: _B}, "MalformedPlaceholder", "malformed placeholder: '<|bbox_1|>'"),
    ("cat <|bbox_1|> <|bbox_1|>", {1: _B}, "MalformedPlaceholder", "malformed placeholder: '<|bbox_1|>'"),
    ("<|bbox_1|> dog <|bbox_3|>", {1: _B, 2: _B}, "MissingObject",
     "placeholder <|bbox_3|> has no matching object"),
    ("<|bbox_1|> dog <|bbox_2|> <|bbox_", {1: _B, 2: _B}, "MalformedPlaceholder",
     "malformed placeholder: '<|bbox_'"),
    ("<|bbox_2|> dog <|bbox_1|>", {1: _B, 2: _B}, "MalformedPlaceholder",
     "malformed placeholder: '<|bbox_2|>'"),
    ("dog <|bbox_2|><|bbox_1|> cat", {1: _B, 2: _B}, None, None),
]


def _first_error(call, *args):
    try:
        call(*args)
    except ValueError as exc:  # the message is what the table pins
        return str(exc)
    return None


@pytest.mark.parametrize("text, expected", [(text, message) for text, _, message in PARSE_ERRORS],
                         ids=[f"{text}-{kind}" for text, kind, _ in PARSE_ERRORS])
def test_parse_raises_pinned_first_error(text, expected):
    assert _first_error(codec.parse, text) == expected


@pytest.mark.parametrize("text, objects, expected",
                         [(text, objects, message) for text, objects, _, message in SUBSTITUTE_ERRORS],
                         ids=[f"{text}-objects{i}-{kind}"
                              for i, (text, _, kind, _) in enumerate(SUBSTITUTE_ERRORS)])
def test_substitute_raises_pinned_first_error(text, objects, expected):
    assert _first_error(codec.substitute_placeholders, text, objects) == expected


FILE_GOLDEN = {
    "checkpoint": "00c73eca53203def17aafcc242fd9fce3184422586e5f5ad88d3025d0cb80df2",
    "curve": "91b39fc94f4d3f402f7f665d2909e3e006809f7e43def1d713480ebd6da303b5",
    "points": "822cceebf6c346c55a47286dd8b03ac21b09a093a5da9d64747a79a55e373731",
    "svg": "b088dd6d1a9a5aa5be857fe3239dc600615866a46930e7f2df30414ef5373180",
    "synth": "20a52682c2d2347a57a314b1691fd3eaac76a192b9eccab23e07a3cff66f9004",
}

TOY_INSTRUCTION = (
    "a red box <|box|>100,120,300,400<|/box|> left of a blue mug "
    "<|box|>600,500,900,800<|/box|>\n"
)


def _file_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _toy_train(tmp_path, capsys, *extra):
    instr, ckpt = tmp_path / "instr.txt", tmp_path / "model.ckpt"
    instr.write_text(TOY_INSTRUCTION)
    argv = ["toy", "train", "--instruction", str(instr), "--output", str(ckpt), "--steps", "25"]
    assert main(argv + list(extra)) == 0
    capsys.readouterr()
    assert _file_sha(ckpt) == FILE_GOLDEN["checkpoint"]
    return instr, ckpt


def test_toy_checkpoint_matches_pinned_digest(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    _toy_train(tmp_path, capsys, "--curve", str(curve))
    assert _file_sha(curve) == FILE_GOLDEN["curve"]


def test_toy_sample_points_match_pinned_digest(tmp_path, capsys):
    instr, ckpt = _toy_train(tmp_path, capsys)
    points = tmp_path / "points.txt"
    argv = ["toy", "sample", "--model", str(ckpt), "--instruction", str(instr), "--output", str(points)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _file_sha(points) == FILE_GOLDEN["points"]


def test_plan_svg_matches_pinned_digest():
    spec = feature_spec(0)
    result = plan(spec, seed=0)
    svgs = [render_svg(plan_to_output(spec, result)), render_svg(result)]
    assert _sha(svgs) == FILE_GOLDEN["svg"]


def test_synth_corpus_file_matches_pinned_digest(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_records(path, synth_generate(0, 200))
    assert _file_sha(path) == FILE_GOLDEN["synth"]


CORPUS_GOLDEN = {
    "encode": "031e21ee212b56c2335b820bb57cc4f9c88576b17c5f12c24410176a90d7b75a",
    "decode": "d162de2ba0ab940170d063467e5a0f20a3791b460d2eec9e1e136310e0af66d1",
    "eval": "20d9388924756e237879c3fec64008cec8bd66249b4d481ffbe59a4c6b8f17a4",
    "stats": "5b9b203f0a7461fcfb4f6252c7a6f89476f1403eacbace0744101b6dc2eac9cd",
}


def _perturbed(records, rng):
    """Predictions: about one record in ten dropped, and each kept
    entity shifted by up to 80 units, dropped or relabelled now and then."""
    preds = []
    for r in records:
        if rng.random() < 0.1:
            continue
        entities = []
        for e in r.entities:
            if rng.random() < 0.05:
                continue
            b = e.box
            dx = max(-b.xmin, min(1000 - b.xmax, rng.randint(-80, 80)))
            dy = max(-b.ymin, min(1000 - b.ymax, rng.randint(-80, 80)))
            attrs = {**e.attrs, "category": rng.choice(NOUNS)} if rng.random() < 0.05 else e.attrs
            box = BBox(b.xmin + dx, b.ymin + dy, b.xmax + dx, b.ymax + dy)
            entities.append(dataclasses.replace(e, attrs=attrs, box=box))
        preds.append(dataclasses.replace(r, entities=tuple(entities)))
    return preds


def corpus_command_stdout(tmp_path) -> dict[str, str]:
    """SHA-256 of each record command's stdout on a fixed synthetic
    corpus and its perturbed predictions."""
    refs, preds, instr = tmp_path / "refs.jsonl", tmp_path / "preds.jsonl", tmp_path / "instr.txt"
    records = synth_generate(11, 300, 12)
    save_records(refs, records)
    save_records(preds, _perturbed(records, random.Random("golden-corpus-preds")))

    def scot(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()

    stdout = {"encode": scot("encode", str(refs))}
    instr.write_text(stdout["encode"], encoding="utf-8")
    stdout["decode"] = scot("decode", str(instr))
    stdout["eval"] = scot("eval", "--refs", str(refs), "--preds", str(preds))
    stdout["stats"] = scot("dataset", "stats", str(refs))
    return {name: hashlib.sha256(out.encode("utf-8")).hexdigest() for name, out in stdout.items()}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_record_command_stdout_matches_pinned_digest(cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert corpus_command_stdout(tmp_path) == CORPUS_GOLDEN
