"""End-to-end CLI tests (in-process main() invocations)."""

import argparse
import dataclasses
import io
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import scotkit
from scotkit.cli import build_parser, main
from scotkit.dataset import load_records, save_records, synth_generate


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_records(path, synth_generate(seed=3, n=5, max_entities=4))
    return path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCENE = {
    "entities": [
        {"id": "a", "phrase": "red apple", "category": "apple", "size": "small"},
        {"id": "b", "phrase": "blue bench", "category": "bench", "size": "medium"},
    ],
    "constraints": [
        {"kind": "left_of", "a": "a", "b": "b"},
        {"kind": "non_overlap", "a": "a", "b": "b"},
    ],
    "tail": "in a park.",
}


def python_subprocess(*args: str) -> subprocess.CompletedProcess:
    """Run Python on this scotkit source tree in a fresh interpreter."""
    src = str(Path(scotkit.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def scot_subprocess(*argv: str) -> subprocess.CompletedProcess:
    """Run `scot` in a fresh interpreter, so a traceback reaches stderr."""
    return python_subprocess("-m", "scotkit.cli", *argv)


# Runs one `scot` command (or, for a null argv, `import scotkit`) and
# prints its exit code and the scotkit and watched modules it loaded.
_IMPORT_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = 0
if argv is None:
    import scotkit
else:
    from scotkit import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
watched = ("numpy", "requests", "urllib.request")
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scotkit.") or m in watched)]))
"""

_CODEC = ["scotkit.cli", "scotkit.codec", "scotkit.geometry", "scotkit.wire"]
_DATA = _CODEC + ["scotkit.dataset"]
_PLAN = _CODEC + ["scotkit.constraints", "scotkit.planner"]
_TOY = _CODEC + ["numpy", "scotkit.flowmatch"]
# what each command loads: no command loads requests, and only
# `plan --mllm` loads the client and urllib
COMMAND_MODULES = {
    "import scotkit": [],
    "--help": ["scotkit.cli"],
    "dataset synth": _DATA,
    "dataset stats": _DATA,
    "encode": _DATA,
    "decode": _DATA,
    "eval": _DATA + ["scotkit.metrics"],
    "plan": _PLAN,
    "check": _PLAN,
    "repair": _PLAN,
    "render": _PLAN + ["scotkit.render"],
    "plan --mllm": _PLAN + ["scotkit.client", "scotkit.resources", "urllib.request"],
    "toy train": _TOY,
    "toy sample": _TOY,
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, mock_endpoint, golden_examples,
                                                     monkeypatch):
    base_url, state = mock_endpoint
    state.replies = [golden_examples[0]]
    monkeypatch.setenv("SCOT_API_KEY", "test-key")
    scene, corpus = tmp_path / "scene.json", tmp_path / "corpus.jsonl"
    scene.write_text(json.dumps({**SCENE, "boxes": {"a": [0, 0, 90, 90], "b": [50, 0, 300, 90]}}))
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"boxes": {"a": [0, 0, 90, 90]}}))
    instr, ckpt = tmp_path / "instr.txt", tmp_path / "model.ckpt"
    instr.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
    steps = {
        "import scotkit": None,
        "--help": ["--help"],
        "dataset synth": ["dataset", "synth", "--n", "3", "--output", str(corpus)],
        "dataset stats": ["dataset", "stats", str(corpus)],
        "encode": ["encode", str(corpus)],
        "decode": ["decode", str(instr)],
        "eval": ["eval", "--refs", str(corpus), "--preds", str(corpus)],
        "plan": ["plan", str(scene), "--max-iters", "5"],
        "check": ["check", str(scene)],
        "repair": ["repair", str(scene), "--max-iters", "5"],
        "render": ["render", str(layout), str(tmp_path / "out.svg")],
        "plan --mllm": ["plan", str(scene), "--mllm", "--base-url", base_url, "--model", "mock"],
        "toy train": ["toy", "train", "--instruction", str(instr), "--output", str(ckpt),
                      "--steps", "2", "--batch-size", "4"],
        "toy sample": ["toy", "sample", "--model", str(ckpt), "--instruction", str(instr),
                       "--n", "4", "--n-steps", "2"],
    }
    report = {}
    for label, argv in steps.items():
        proc = python_subprocess("-c", _IMPORT_PROBE, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        report[label] = json.loads(proc.stdout.splitlines()[-1])
    assert report == {label: [0, sorted(mods)] for label, mods in COMMAND_MODULES.items()}


def _closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"


@pytest.mark.parametrize("case, code, posts", [
    ("closed port", 2, 0),
    ("status 503", 2, 1),
    ("invalid output", 1, 1),
    ("no api key", 1, 0),
])
def test_plan_mllm_exit_codes(case, code, posts, tmp_path, mock_endpoint, monkeypatch):
    base_url, state = mock_endpoint
    state.replies = ["not a plan"]
    monkeypatch.setenv("SCOT_API_KEY", "test-key")
    config = {"base_url": base_url, "model_name": "mock", "timeout": 10, "max_retries": 0}
    if case == "closed port":
        config["base_url"] = _closed_port_url()
    elif case == "status 503":
        state.status = 503
    elif case == "no api key":
        monkeypatch.delenv("SCOT_API_KEY")
    scene, config_file = tmp_path / "scene.json", tmp_path / "config.json"
    scene.write_text(json.dumps(SCENE))
    config_file.write_text(json.dumps(config))
    proc = scot_subprocess("plan", str(scene), "--mllm", "--config", str(config_file))
    assert (proc.returncode, proc.stdout) == (code, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert len(state.requests) == posts


def _command_paths(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """Every runnable command under parser, as its words after `scot`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, prefix + (name,))
            return
    yield prefix


def test_readme_command_block_lists_every_command_and_no_other():
    commands = set(_command_paths(build_parser()))
    groups = {path[0] for path in commands if len(path) > 1}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    listed = set()
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["scot"]:
            listed.add(tuple(words[1:3] if words[1] in groups else words[1:2]))
    assert listed == commands


def _long_options(parser: argparse.ArgumentParser):
    """Every long option of parser and of each command under it."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _long_options(sub)
        yield from (opt for opt in action.option_strings if opt.startswith("--"))


def test_every_long_option_is_passed_by_some_test_or_workload():
    # an option nothing passes is a constant with untested code behind it
    root = Path(__file__).resolve().parents[1]
    text = "".join(path.read_text(encoding="utf-8")
                   for folder in ("tests", "bench") for path in sorted((root / folder).rglob("*.py")))
    unpassed = {opt for opt in _long_options(build_parser())
                if opt != "--help" and f'"{opt}"' not in text and f"'{opt}'" not in text}
    assert unpassed == set()


class TestEncodeDecode:
    def test_encode_then_decode_round_trip(self, tmp_path, corpus, capsys):
        code, out, _ = run(capsys, "encode", str(corpus))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text(out)
        code, out2, _ = run(capsys, "decode", str(instr_file))
        assert code == 0
        originals = load_records(corpus)
        for line, original in zip(out2.strip().splitlines(), originals):
            doc = json.loads(line)
            assert [e["box"] for e in doc["entities"]] == [
                e.box.as_list() for e in original.entities
            ]

    def test_decode_dash_reads_stdin(self, tmp_path, capsys, monkeypatch):
        text = "a cat <|box|>1,2,30,40<|/box|>\n\na dog <|box|>5,5,9,9<|/box|>\n"
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text(text)
        from_file = run(capsys, "decode", str(instr_file))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "decode", "-") == from_file
        assert from_file[0] == 0 and len(from_file[1].splitlines()) == 2

    def test_blank_record_lines_are_skipped_but_counted(self, tmp_path, capsys):
        data = tmp_path / "records.jsonl"
        data.write_text(json.dumps(_RECORD) + "\n\n" + json.dumps({**_RECORD, "id": 7}) + "\n")
        code, out, err = run(capsys, "encode", str(data))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: ")

    def test_encode_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "encode", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error" in err

    def test_decode_invalid_instruction(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("cat <|box|>1,2<|/box|>\n")
        code, _, err = run(capsys, "decode", str(bad))
        assert code == 1

    def test_decode_prints_nothing_when_a_later_line_fails_and_names_it(self, tmp_path, capsys):
        # the blank line 2 is skipped but counted, as encode counts it
        instr = tmp_path / "instr.txt"
        instr.write_text("a cat <|box|>1,2,30,40<|/box|>\n\nbad <|box|>1,2<|/box|>\n")
        assert run(capsys, "decode", str(instr)) == (
            1, "", "error: line 3: coordinate block must hold exactly 4 values: '1,2'\n")

    def test_decode_rejects_a_record_that_encode_would_reject(self, tmp_path, capsys):
        # two blocks after one word decode to the phrase "cat" twice in a
        # caption that holds it once
        instr = tmp_path / "instr.txt"
        instr.write_text("a cat <|box|>1,2,30,40<|/box|> <|box|>5,6,70,80<|/box|>\n")
        assert run(capsys, "decode", str(instr)) == (
            1, "", "error: line 1: every occurrence of 'cat' is already claimed\n")

    def test_decode_rejects_non_ascii_digits(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a cat <|box|>١,٢,٣٠,٤٠<|/box|>\n", encoding="utf-8")
        proc = scot_subprocess("decode", str(bad))
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ")


class TestPlanCheckRepair:
    def test_plan(self, tmp_path, capsys):
        spec_file = tmp_path / "scene.json"
        spec_file.write_text(json.dumps(SCENE))
        code, out, _ = run(capsys, "plan", str(spec_file), "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"reasoning", "prompt", "objects"}
        assert list(doc["objects"]) == ["1. red apple", "2. blue bench"]
        assert "red apple<|bbox_1|>" in doc["prompt"]

    def test_plan_determinism(self, tmp_path, capsys):
        spec_file = tmp_path / "scene.json"
        spec_file.write_text(json.dumps(SCENE))
        _, out1, _ = run(capsys, "plan", str(spec_file), "--seed", "4")
        _, out2, _ = run(capsys, "plan", str(spec_file), "--seed", "4")
        assert out1 == out2

    def test_plan_prints_each_residual_violation_to_stderr(self, tmp_path, capsys):
        # the first proposal packs a left of b, and no sweep may move it
        spec_file = tmp_path / "scene.json"
        spec_file.write_text(json.dumps({**SCENE, "constraints": [{"kind": "left_of", "a": "b", "b": "a"}]}))
        code, out, err = run(capsys, "plan", str(spec_file), "--max-iters", "0")
        assert code == 0 and set(json.loads(out)) == {"reasoning", "prompt", "objects"}
        [line] = err.splitlines()
        assert line.startswith("residual: b left of a: centers off by ")

    def test_check_and_repair(self, tmp_path, capsys):
        scene = dict(SCENE)
        scene["boxes"] = {"a": [600, 0, 700, 100], "b": [100, 0, 200, 100]}
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(scene))
        code, out, _ = run(capsys, "check", str(scene_file))
        assert code == 0
        report = json.loads(out)
        assert report["total_magnitude"] > 0
        assert report["violations"][0]["constraint"]["kind"] == "left_of"

        code, out, _ = run(capsys, "repair", str(scene_file))
        assert code == 0
        repaired = json.loads(out)
        assert repaired["residual"] == []
        boxes = repaired["boxes"]
        assert sum(boxes["a"][0::2]) / 2 <= sum(boxes["b"][0::2]) / 2

    def test_plan_rejects_invalid_spec(self, tmp_path, capsys):
        scene = dict(SCENE)
        scene["constraints"] = [
            {"kind": "grid", "rows": 2, "cols": 2, "assignments": {"a": [0, 2]}}
        ]
        spec_file = tmp_path / "scene.json"
        spec_file.write_text(json.dumps(scene))
        code, out, err = run(capsys, "plan", str(spec_file))
        assert code == 1 and out == "" and "outside 2 x 2" in err

    def test_plan_reports_malformed_record_without_traceback(self, tmp_path):
        scene = dict(SCENE)
        scene["constraints"] = [
            {"kind": "grid", "rows": 2, "cols": 2, "assignments": [["a", [0, 0]]]}
        ]
        spec_file = tmp_path / "scene.json"
        spec_file.write_text(json.dumps(scene))
        proc = scot_subprocess("plan", str(spec_file))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: assignments must be an object, got [['a', [0, 0]]]"
        ]

    def test_check_requires_boxes(self, tmp_path, capsys):
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(SCENE))
        code, _, err = run(capsys, "check", str(scene_file))
        assert code == 1 and "boxes" in err

    @pytest.mark.parametrize("command", ["check", "repair"])
    def test_a_box_for_no_entity_is_named(self, command, tmp_path, capsys):
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps({**SCENE, "boxes": _STRAY_BOXES}))
        assert run(capsys, command, str(scene_file)) == (
            1, "", "error: boxes names 'zzz', which is not a scene entity\n")


_ENTITY = {"id": "a", "phrase": "cat"}
# every entity of SCENE has a box, and one more box names no entity
_STRAY_BOXES = {"a": [0, 0, 9, 9], "b": [20, 0, 29, 9], "zzz": [5, 5, 50, 50]}
_RECORD = {"v": 1, "id": "r1", "caption": "a cat", "source": "",
           "entities": [{"phrase": "cat", "attrs": {}, "box": [1, 2, 30, 40]}]}
_BAD_RECORD = {**_RECORD, "entities": [{"phrase": ["cat"], "attrs": {}, "box": [1, 2, 30, 40]}]}

_PLAN_DOC = {"reasoning": "r", "prompt": "a cat<|bbox_1|>", "objects": {"1. cat": [0, 0, 9, 9]}}

# (command, JSON document); an "encode" document is the second records
# line, and an "mllm" one the --config file, which fails before any
# request is sent
MALFORMED_INPUTS = {
    "entity id list": ("plan", {"entities": [{"id": ["x"], "phrase": "cat"}]}),
    "entity attrs list": ("plan", {"entities": [{**_ENTITY, "attrs": [1]}]}),
    "entity attrs value number": ("plan", {"entities": [{**_ENTITY, "attrs": {"n": 5}}]}),
    "entities string": ("plan", {"entities": "ab"}),
    "scene list": ("plan", [1, 2]),
    "check boxes list": ("check", {**SCENE, "boxes": [1, 2]}),
    "repair boxes list": ("repair", {**SCENE, "boxes": [1, 2]}),
    "check box missing": ("check", {**SCENE, "boxes": {"a": [0, 0, 9, 9]}}),
    "repair box missing": ("repair", {**SCENE, "boxes": {"a": [0, 0, 9, 9]}}),
    "check stray box id": ("check", {**SCENE, "boxes": _STRAY_BOXES}),
    "repair stray box id": ("repair", {**SCENE, "boxes": _STRAY_BOXES}),
    "render boxes list": ("render", {"boxes": [1, 2]}),
    "render layout unknown key": ("render", {"boxes": {"a": [0, 0, 9, 9]}, "junk": 1}),
    "render layout misspelt iterations": ("render", {"boxes": {"a": [0, 0, 9, 9]}, "iteration": 3}),
    "render planner output unknown key": ("render", {**_PLAN_DOC, "junk": 1}),
    "render planner output with boxes": ("render", {**_PLAN_DOC, "boxes": {"a": [0, 0, 9, 9]}}),
    "render scene with boxes": ("render", {**SCENE, "boxes": {"a": [0, 0, 9, 9], "b": [20, 0, 29, 9]}}),
    "render residual number": ("render", {"boxes": {"a": [0, 0, 9, 9]}, "residual": 5}),
    "render input number": ("render", 5),
    "config list": ("mllm", [1]),
    "config timeout string": ("mllm", {"base_url": "http://localhost:9", "timeout": "abc"}),
    "config retries string": ("mllm", {"base_url": "http://localhost:9", "max_retries": "2"}),
    "record list": ("encode", [1]),
    "record phrase list": ("encode", _BAD_RECORD),
    "record id list": ("encode", {**_RECORD, "id": [1]}),
    "record id integer": ("encode", {**_RECORD, "id": 7}),
    "scene tail number": ("plan", {**SCENE, "tail": 5}),
    "scene self pair": ("plan", {**SCENE, "constraints": [{"kind": "left_of", "a": "a", "b": "a"}]}),
    "record source number": ("encode", {**_RECORD, "source": 5}),
    "record image list": ("encode", {**_RECORD, "image": [1]}),
    "record attrs list value": ("encode", {**_RECORD, "entities": [
        {"phrase": "cat", "attrs": {"category": ["x"]}, "box": [1, 2, 30, 40]}]}),
    "record version true": ("encode", {**_RECORD, "v": True}),
    "render iterations list": ("render", {"boxes": {"a": [0, 0, 9, 9]}, "iterations": [1]}),
    "render iterations fraction": ("render", {"boxes": {"a": [0, 0, 9, 9]}, "iterations": 2.9}),
    "scene misspelt key": ("plan", {"entities": SCENE["entities"], "constraint": SCENE["constraints"]}),
    "constraint misspelt key": ("plan", {**SCENE, "constraints": [
        {"kind": "left_of", "a": "a", "b": "b", "margn": 5}]}),
    "config misspelt key": ("mllm", {"base_url": "http://localhost:9", "max_retry": 0}),
    "record misspelt key": ("encode", {**_RECORD, "images": None}),
    "record caption block marker": ("encode", {**_RECORD, "caption": "a <|box|> cat"}),
    "record caption empty": ("encode", {**_RECORD, "caption": "", "entities": []}),
    "entity size unknown": ("plan", {"entities": [{**_ENTITY, "size": "huge"}]}),
    "entity id repeated": ("plan", {"entities": [_ENTITY, {**_ENTITY, "phrase": "dog"}]}),
    "check box ymin at ymax": ("check", {**SCENE, "boxes": {"a": [0, 9, 9, 9], "b": [20, 0, 29, 9]}}),
    "repair without boxes": ("repair", SCENE),
    "render neither form": ("render", {"iterations": 3}),
    "config without base url": ("mllm", {"model_name": "mock"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_json_input_exits_1_with_one_error_line(case, tmp_path):
    command, doc = MALFORMED_INPUTS[case]
    data = tmp_path / "input.json"
    if command == "encode":
        data.write_text(json.dumps(_RECORD) + "\n" + json.dumps(doc) + "\n")
        argv = ["encode", str(data)]
    elif command == "mllm":
        data.write_text(json.dumps(doc))
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(SCENE))
        argv = ["plan", str(scene), "--mllm", "--config", str(data)]
    else:
        data.write_text(json.dumps(doc))
        argv = [command, str(data)] + ([str(tmp_path / "out.svg")] if command == "render" else [])
    proc = scot_subprocess(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: line 2: " if command == "encode" else "error: ")


# (argv after `scot`, with {scene}, {corpus}, {instr}, {ckpt} and {out} filled in)
# that name a value outside the option's domain: exit 1, nothing on stdout
REJECTED_OPTION_VALUES = {
    "eval threshold 0": ["eval", "--refs", "{corpus}", "--preds", "{corpus}", "--iou-threshold", "0"],
    "eval threshold -1": ["eval", "--refs", "{corpus}", "--preds", "{corpus}", "--iou-threshold", "-1"],
    "eval threshold nan": ["eval", "--refs", "{corpus}", "--preds", "{corpus}", "--iou-threshold", "nan"],
    "eval threshold 1.5": ["eval", "--refs", "{corpus}", "--preds", "{corpus}", "--iou-threshold", "1.5"],
    "toy batch size 0": ["toy", "train", "--instruction", "{instr}", "--output", "{out}",
                         "--steps", "3", "--batch-size", "0"],
    "toy learning rate nan": ["toy", "train", "--instruction", "{instr}", "--output", "{out}",
                              "--steps", "3", "--learning-rate", "nan"],
    "render canvas 0": ["render", "{layout}", "{out}", "--canvas", "0"],
    "render canvas -10": ["render", "{layout}", "{out}", "--canvas", "-10"],
    "plan max iters -3": ["plan", "{scene}", "--max-iters", "-3"],
    "repair max iters -1": ["repair", "{scene}", "--max-iters", "-1"],
    "synth n -4": ["dataset", "synth", "--n", "-4", "--output", "{out}"],
    "synth max entities 25": ["dataset", "synth", "--n", "3", "--max-entities", "25", "--output", "{out}"],
    "toy sample n -1": ["toy", "sample", "--model", "{ckpt}", "--instruction", "{instr}",
                        "--n", "-1", "--output", "{out}"],
}


@pytest.mark.parametrize("case", sorted(REJECTED_OPTION_VALUES))
def test_option_value_outside_its_domain_exits_1_and_writes_nothing(case, tmp_path, corpus, capsys):
    from scotkit import flowmatch

    scene, instr, out = tmp_path / "scene.json", tmp_path / "instr.txt", tmp_path / "out"
    ckpt = tmp_path / "model.ckpt"
    layout = tmp_path / "layout.json"
    scene.write_text(json.dumps({"entities": [_ENTITY], "boxes": {"a": [0, 0, 90, 90]}}))
    layout.write_text(json.dumps({"boxes": {"a": [0, 0, 90, 90]}}))
    instr.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
    flowmatch.save_checkpoint(ckpt, flowmatch.VelocityModel.init(m=8, width=4))
    paths = {"scene": scene, "layout": layout, "corpus": corpus, "instr": instr, "out": out,
             "ckpt": ckpt}
    code, stdout, stderr = run(capsys, *(arg.format(**paths) for arg in REJECTED_OPTION_VALUES[case]))
    assert (code, stdout) == (1, "")
    [line] = stderr.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()


def test_json_output_never_holds_nan(monkeypatch, tmp_path, capsys):
    from scotkit import flowmatch

    instr, ckpt = tmp_path / "instr.txt", tmp_path / "model.ckpt"
    instr.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
    flowmatch.save_checkpoint(ckpt, flowmatch.VelocityModel.init(m=8, width=4))
    monkeypatch.setattr(flowmatch, "in_box_fraction", lambda samples, instruction: float("nan"))
    code, stdout, stderr = run(capsys, "toy", "sample", "--model", str(ckpt),
                               "--instruction", str(instr), "--n", "4")
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: Out of range float values")


class TestEval:
    def test_perfect_predictions(self, tmp_path, corpus, capsys):
        code, out, _ = run(
            capsys, "eval", "--refs", str(corpus), "--preds", str(corpus)
        )
        assert code == 0
        assert "SR:    100.00" in out
        assert "I-SR:  100.00" in out
        assert "mIoU:  100.00" in out

    @pytest.mark.parametrize("side", ["refs", "preds"])
    def test_a_repeated_record_id_is_rejected(self, side, tmp_path, corpus, capsys):
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text(corpus.read_text() * 2)
        files = {"refs": corpus, "preds": corpus, side: doubled}
        code, out, err = run(capsys, "eval", "--refs", str(files["refs"]), "--preds", str(files["preds"]))
        assert (code, out) == (1, "")
        assert err == f"error: record id {load_records(corpus)[0].id!r} appears twice in {doubled}\n"

    def test_a_prediction_with_no_reference_is_rejected(self, tmp_path, corpus, capsys):
        record = load_records(corpus)[1]
        preds = tmp_path / "preds.jsonl"
        save_records(preds, [record, dataclasses.replace(record, id="zzz"),
                             dataclasses.replace(record, id="yyy")])
        code, out, err = run(capsys, "eval", "--refs", str(corpus), "--preds", str(preds))
        assert (code, out) == (1, "")
        assert err == f"error: prediction id 'zzz' in {preds} matches no reference in {corpus}\n"


class TestRender:
    def test_render_planner_output(self, tmp_path, capsys):
        doc = {
            "reasoning": "r",
            "prompt": "a cat<|bbox_1|>",
            "objects": {"1. cat": [100, 100, 400, 400]},
        }
        in_file = tmp_path / "plan.json"
        in_file.write_text(json.dumps(doc))
        out_file = tmp_path / "plan.svg"
        code, out, _ = run(capsys, "render", str(in_file), str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert "1. cat" in svg

    def test_render_repair_output(self, tmp_path, capsys):
        scene_file, layout_file = tmp_path / "scene.json", tmp_path / "layout.json"
        scene_file.write_text(json.dumps({**SCENE, "boxes": {"a": [500, 0, 590, 90], "b": [0, 0, 90, 90]}}))
        code, out, _ = run(capsys, "repair", str(scene_file), "--max-iters", "5")
        assert code == 0 and set(json.loads(out)) == {"boxes", "iterations", "residual"}
        layout_file.write_text(out)
        out_file = tmp_path / "layout.svg"
        assert run(capsys, "render", str(layout_file), str(out_file)) == (0, f"{out_file}\n", "")

    def test_render_on_a_canvas_that_does_not_divide_1000(self, tmp_path, capsys):
        in_file, out_file = tmp_path / "layout.json", tmp_path / "layout.svg"
        in_file.write_text(json.dumps({"boxes": {"a": [0, 0, 100, 100], "b": [10, 20, 30, 40]}}))
        assert run(capsys, "render", str(in_file), str(out_file), "--canvas", "333") == (
            0, f"{out_file}\n", "")
        svg = out_file.read_text()
        assert '<rect x="0" y="0" width="33.30" height="33.30"' in svg
        assert '<rect x="3.33" y="6.66" width="6.66" height="6.66"' in svg

    def test_render_determinism(self, tmp_path, capsys):
        doc = {"boxes": {"a": [0, 0, 500, 500], "b": [500, 500, 1000, 1000]}}
        in_file = tmp_path / "plan.json"
        in_file.write_text(json.dumps(doc))
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", str(in_file), str(f1))
        run(capsys, "render", str(in_file), str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestDataset:
    def test_synth_stats_encode(self, tmp_path, capsys):
        out_file = tmp_path / "synth.jsonl"
        code, _, _ = run(
            capsys, "dataset", "synth", "--seed", "1", "--n", "20",
            "--max-entities", "6", "--output", str(out_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "dataset", "stats", str(out_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 20

        code, out, _ = run(capsys, "encode", str(out_file))
        assert code == 0
        assert len(out.strip().splitlines()) == 20

    def test_synth_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "dataset", "synth", "--seed", "9", "--n", "10", "--output", str(a))
        run(capsys, "dataset", "synth", "--seed", "9", "--n", "10", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestToy:
    def test_train_sample(self, tmp_path, capsys):
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
        ckpt = tmp_path / "model.ckpt"
        curve = tmp_path / "curve.txt"
        code, out, _ = run(
            capsys, "toy", "train", "--instruction", str(instr_file),
            "--output", str(ckpt), "--curve", str(curve),
            "--steps", "30", "--batch-size", "32",
        )
        assert code == 0
        doc = json.loads(out)
        assert ckpt.exists() and curve.exists()
        assert doc["first100_mean"] > 0

        code, out, _ = run(
            capsys, "toy", "sample", "--model", str(ckpt),
            "--instruction", str(instr_file), "--n", "50", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 50
        assert 0.0 <= doc["in_box_fraction"] <= 1.0

    def test_sample_rejects_a_checkpoint_header_without_its_shape(self, tmp_path):
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
        ckpt = tmp_path / "model.ckpt"
        # the last header's parameters would take 72 TB, so its empty blob
        # must be rejected before the header sizes any array
        errors = {
            b'{"m": 3, "width": 4}\n': "checkpoint d must be an integer, got None",
            b'{"d": 0, "m": 3, "width": 4}\n': "checkpoint d, m and width must be >= 1, got 0, 3 and 4",
            b'{"d": 1, "m": 3, "width": 4}\n': "checkpoint d must be 2, got 1",
            b'{"d": 2, "m": 64, "width": 3000000}\n':
                "checkpoint holds 0 parameter bytes, expected 72001704000016 for d=2, m=64, width=3000000",
        }
        for header, message in errors.items():
            ckpt.write_bytes(header)
            proc = scot_subprocess("toy", "sample", "--model", str(ckpt), "--instruction", str(instr_file))
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr.splitlines() == [f"error: {message}"]

    def test_diverging_train_exits_1_and_writes_nothing(self, tmp_path):
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
        ckpt, curve = tmp_path / "model.ckpt", tmp_path / "curve.txt"
        proc = scot_subprocess(
            "toy", "train", "--instruction", str(instr_file), "--output", str(ckpt),
            "--curve", str(curve), "--learning-rate", "1e300", "--steps", "3", "--batch-size", "4",
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: training diverged at step 1: loss is ")
        assert not ckpt.exists() and not curve.exists()

    def test_checkpoint_determinism(self, tmp_path, capsys):
        instr_file = tmp_path / "instr.txt"
        instr_file.write_text("a red box <|box|>400,400,600,600<|/box|>\n")
        c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        for ckpt in (c1, c2):
            run(
                capsys, "toy", "train", "--instruction", str(instr_file),
                "--output", str(ckpt), "--steps", "20", "--batch-size", "16",
            )
        assert c1.read_bytes() == c2.read_bytes()
