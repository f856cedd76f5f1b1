"""The record commands' ordered fan-out: `encode`, `decode`, `eval` and
`dataset stats` split a file's non-blank lines into one contiguous share
per CPU, run the shares after the first in forked children and join the
results in line order. Their stdout and errors must not depend on the
worker count, and no child may outlive a call."""

import contextlib
import dataclasses
import io
import json
import os
import random

import pytest

from scotkit import dataset
from scotkit.cli import main
from scotkit.dataset import GroundedRecord, RecordEntity, load_records, save_records, synth_generate
from scotkit.geometry import BBox

from test_cli import python_subprocess

CPUS = [1, 2, 3]
# a caption with U+2028 or U+0085 is one line in a records file, though
# str.splitlines would cut it
ODD_CAPTIONS = [
    GroundedRecord(id="odd-2028", caption="A red apple\u2028beside a blue mug.",
                   entities=(RecordEntity("red apple", attrs={"category": "apple"}, box=BBox(10, 10, 200, 200)),
                             RecordEntity("blue mug", attrs={"category": "mug"}, box=BBox(300, 300, 500, 480)))),
    GroundedRecord(id="odd-0085", caption="A lamp\x85and a rug.",
                   entities=(RecordEntity("lamp", box=BBox(0, 0, 100, 300)),
                             RecordEntity("rug", box=BBox(100, 600, 900, 1000)))),
]


def _scot(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def files(tmp_path):
    """About 200 records with the two odd captions in different shares,
    their perturbed predictions, and encode's output of them."""
    records = synth_generate(21, 198, 12)
    records[40:40] = ODD_CAPTIONS[:1]
    records[150:150] = ODD_CAPTIONS[1:]
    rng = random.Random("fanout-preds")
    preds = [dataclasses.replace(r, entities=tuple(
                 dataclasses.replace(e, box=BBox(e.box.xmin, e.box.ymin,
                                                 max(e.box.xmin + 1, e.box.xmax - rng.randint(0, 60)),
                                                 e.box.ymax)) for e in r.entities))
             for r in records if rng.random() < 0.9]
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("refs", "preds")}
    save_records(paths["refs"], records)
    save_records(paths["preds"], preds)
    paths["instr"] = tmp_path / "instr.txt"
    code, out, _ = _scot("encode", paths["refs"])
    assert code == 0
    paths["instr"].write_text(out, encoding="utf-8")
    return paths


def _outputs(files) -> dict[str, tuple[int, str, str]]:
    return {
        "encode": _scot("encode", files["refs"]),
        "decode": _scot("decode", files["instr"]),
        "eval": _scot("eval", "--refs", files["refs"], "--preds", files["preds"]),
        "stats": _scot("dataset", "stats", files["refs"]),
    }


def test_odd_captions_stay_on_one_line(files):
    records = load_records(files["refs"])
    assert len(records) == 200
    assert [r.caption for r in records if r.id.startswith("odd-")] == [r.caption for r in ODD_CAPTIONS]


@pytest.mark.parametrize("cpus", CPUS)
def test_stdout_does_not_depend_on_the_worker_count(cpus, files, monkeypatch):
    _cpus(monkeypatch, 1)
    sequential = _outputs(files)
    _cpus(monkeypatch, cpus)
    assert _outputs(files) == sequential
    _no_children_left()
    assert all(code == 0 and err == "" for code, _, err in sequential.values())
    assert [out.count("\n") for _, out, _ in (sequential["encode"], sequential["decode"])] == [200, 200]
    records = load_records(files["refs"])
    assert json.loads(sequential["stats"][1]) == dataset.stats(records).to_dict()


def _break_lines(path, numbers, text):
    lines = path.read_text(encoding="utf-8").split("\n")
    for n in numbers:
        lines[n - 1] = text
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("cpus", CPUS)
def test_the_lowest_failing_line_is_reported(cpus, files, monkeypatch):
    # lines 12 and 190 fall in different shares at 2 and 3 workers
    _break_lines(files["refs"], [12, 190], '{"v": 1}')
    _break_lines(files["instr"], [12, 190], "a cat <|box|>1,2<|/box|>")
    _cpus(monkeypatch, cpus)
    results = _outputs(files)
    _no_children_left()
    for name, (code, out, err) in results.items():
        assert (code, out) == (1, ""), name
        assert err.startswith("error: line 12: "), name


@pytest.mark.parametrize("cpus", CPUS)
def test_eval_reports_refs_errors_before_preds_errors(cpus, files, monkeypatch):
    # the preds file's error is on a lower line, but refs are read first
    first = load_records(files["refs"])[0].id
    _break_lines(files["preds"], [3], "{")
    files["refs"].write_text(files["refs"].read_text(encoding="utf-8") * 2, encoding="utf-8")
    _cpus(monkeypatch, cpus)
    code, out, err = _scot("eval", "--refs", files["refs"], "--preds", files["preds"])
    assert (code, out, err) == (1, "", f"error: record id {first!r} appears twice in {files['refs']}\n")
    _no_children_left()


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_non_value_error_in_a_child_reaches_the_caller(cpus, files, monkeypatch):
    last = load_records(files["refs"])[-1].id
    counts = dataset.record_counts

    def record_counts(r):
        if r.id == last:  # only the last share, which runs in a child
            raise Boom(f"no counts for {r.id}")
        return counts(r)

    monkeypatch.setattr(dataset, "record_counts", record_counts)
    _cpus(monkeypatch, cpus)
    with pytest.raises(Boom, match=f"^no counts for {last}$"):
        _scot("dataset", "stats", files["refs"])
    _no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_child_that_exits_without_a_result_is_an_os_error(cpus, monkeypatch):
    def work(start, lines):
        if start:
            os._exit(3)
        return [x for _, x in lines]

    _cpus(monkeypatch, cpus)
    lines = [(n, n) for n in range(1, 61)]
    share = {2: "31-60", 3: "21-40"}[cpus]
    with pytest.raises(OSError, match=rf"^worker for lines {share} ended without a result \(wait status 768\)$"):
        dataset.fan_out(work, lines)
    _no_children_left()


def test_help_loads_no_new_module():
    # the modules `scot --help` loads beyond cli.py's own top-level imports
    probe = (
        "import sys, json, argparse, pathlib, typing\n"
        "before = set(sys.modules)\n"
        "from scotkit import cli\n"
        "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = python_subprocess("-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == ["__future__", "_locale", "locale", "scotkit", "scotkit.cli", "textwrap"]
