"""The `scot` contract under malformed input: valid scene, plan, layout,
record and instruction documents, mutated at random (values replaced,
keys and lines removed or added), never make a command raise past
`cli.main`, exit with a code other than 0, 1 or 2, or print to stdout
when it fails. Commands run in process, on a fixed hypothesis seed.
Whatever plan `plan` prints for a scene, `render` accepts."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from scotkit.cli import main

SCENE = {
    "entities": [
        {"id": "a", "phrase": "red apple", "category": "apple", "size": "small"},
        {"id": "b", "phrase": "blue bench", "category": "bench", "attrs": {"color": "blue"}},
        {"id": "c", "phrase": "park", "category": "scene", "size": "background"},
    ],
    "constraints": [
        {"kind": "left_of", "a": "a", "b": "b", "margin": 5},
        {"kind": "non_overlap", "a": "a", "b": "b"},
        {"kind": "contains", "outer": "c", "inner": "a"},
        {"kind": "aligned_row", "ids": ["a", "b"], "tol": 10},
        {"kind": "count_equals", "category": "bench", "count": 1},
        {"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [0, 0]}, "empty_cells": [[1, 1]]},
    ],
    "tail": "in a park.",
    "boxes": {"a": [10, 10, 100, 100], "b": [300, 20, 500, 200], "c": [0, 0, 1000, 1000]},
}
PLAN = {
    "reasoning": "r",
    "prompt": "a red apple<|bbox_1|> by a bench<|bbox_2|>.",
    "objects": {"1. apple": [10, 10, 100, 100], "2. bench": [300, 20, 500, 200]},
}
LAYOUT = {"boxes": SCENE["boxes"], "iterations": 3, "residual": ["a is not left of b"]}
RECORDS = [
    {"v": 1, "id": f"r{i}", "image": None, "caption": f"A scene with a red apple and {tail}.",
     "entities": [{"phrase": "red apple", "attrs": {"category": "apple"}, "box": [10, 10, 100, 100]},
                  {"phrase": tail, "attrs": {}, "box": [300, 20, 500, 200 + i]}],
     "source": "synthetic"}
    for i, tail in enumerate(["a bench", "two cats", "a lamp"])
]
INSTRUCTIONS = [
    "A red apple <|box|>10,10,100,100<|/box|> and a bench <|box|>300,20,500,200<|/box|>.",
    "two cats <|box|>0,0,1000,1000<|/box|> on a rug",
]

# (argv after `scot`, input document); {input}, {other} and {out} are paths
COMMANDS = [
    (["check", "{input}"], SCENE),
    (["repair", "{input}", "--max-iters", "3"], SCENE),
    (["plan", "{input}", "--max-iters", "3"], SCENE),
    (["render", "{input}", "{out}"], PLAN),
    (["render", "{input}", "{out}"], LAYOUT),
    (["encode", "{input}"], RECORDS),
    (["eval", "--refs", "{input}", "--preds", "{other}"], RECORDS),
    (["eval", "--refs", "{other}", "--preds", "{input}"], RECORDS),
    (["decode", "{input}"], INSTRUCTIONS),
    (["dataset", "stats", "{input}"], RECORDS),
]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 1002),
    st.floats(), st.text(max_size=6), st.sampled_from(["a", "b", "c", "cat", "grid", "left_of"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
FRAGMENTS = ["<|box|>", "<|/box|>", "1,2,3,4", "1,2", "-1", "1500", ",", ".", " ", "cat", "\n", "٣"]


def _paths(doc, prefix=()):
    """Every path to a value inside doc, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate_json(data, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = data.draw(st.sampled_from(paths))
        action = data.draw(st.sampled_from(["replace", "remove", "add"]))
        if not path:
            doc = data.draw(JSON_VALUES) if action == "replace" else doc
            continue
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if action == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif action == "remove":
            del parent[key]
        elif isinstance(parent[key], dict):
            parent[key][data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
        elif isinstance(parent[key], list):
            parent[key].append(data.draw(JSON_VALUES))
    return doc


def _mutate_lines(data, lines, mutate_line):
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["remove", "duplicate", "insert", "edit"]))
        if not lines:
            lines.append(data.draw(TEXT))
            continue
        i = data.draw(st.integers(0, len(lines) - 1))
        if action == "remove":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "insert":
            lines.insert(i, data.draw(st.sampled_from(["", " ", "{", "null", "cat <|box|>"])))
        else:
            lines[i] = mutate_line(lines[i])
    return "\n".join(lines) + "\n"


def _edit_text(data):
    def edit(line):
        at = data.draw(st.integers(0, len(line)))
        cut = data.draw(st.integers(0, 8))
        return line[:at] + data.draw(st.sampled_from(FRAGMENTS)) + line[at + cut:]
    return edit


def _mutated_input(data, doc) -> str:
    if doc is INSTRUCTIONS:
        return _mutate_lines(data, INSTRUCTIONS, _edit_text(data))
    if doc is RECORDS:
        def edit(line):
            try:
                return json.dumps(_mutate_json(data, json.loads(line)))
            except ValueError:  # a line inserted earlier that is not JSON
                return _edit_text(data)(line)
        return _mutate_lines(data, [json.dumps(r) for r in RECORDS], edit)
    return json.dumps(_mutate_json(data, doc))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_mutated_input_exits_0_1_or_2_and_prints_nothing_on_failure(data):
    argv, doc = data.draw(st.sampled_from(COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        files = {"input": Path(tmp) / "input", "other": Path(tmp) / "other", "out": Path(tmp) / "out.svg"}
        files["input"].write_text(_mutated_input(data, doc), encoding="utf-8")
        files["other"].write_text("".join(json.dumps(r) + "\n" for r in RECORDS), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**files) for arg in argv])
    assert code in (0, 1, 2)
    assert code == 0 or stdout.getvalue() == ""


# phrase and tail text: plain words, whitespace, and the markers the
# planner's prompt and object keys are built from
SCENE_TEXT = st.lists(st.sampled_from(
    ["", " ", "a", "cat", ".", "\n", "\t", "<|box|>", "<|/box|>", "<|bbox_2|>", "<|bbox_9|>",
     "<|bbox", "<|box|", "|>", "```"]), max_size=4).map("".join)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SCENE_TEXT, SCENE_TEXT, st.none() | SCENE_TEXT)
def test_a_plan_that_plan_prints_is_one_that_render_accepts(first, second, tail):
    scene = {"entities": [{"id": "a", "phrase": first}, {"id": "b", "phrase": second}], "tail": tail}
    with tempfile.TemporaryDirectory() as tmp:
        scene_path, plan_path = Path(tmp) / "scene.json", Path(tmp) / "plan.json"
        scene_path.write_text(json.dumps(scene), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["plan", str(scene_path)])
        if code != 0:
            return
        plan_path.write_text(stdout.getvalue(), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["render", str(plan_path), str(Path(tmp) / "out.svg")]) == 0
