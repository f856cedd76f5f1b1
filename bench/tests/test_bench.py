"""Tests of the benchmark itself: seeded generators, the tail-percentile
rule, output checks that must reject corrupted outputs, and span
self-time accounting."""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
from checks import CheckFailed  # noqa: E402
from proc import Call, tail_percentile  # noqa: E402
from trace_run import MOVES, self_times  # noqa: E402
from workloads import (SCENE_SET_SIZE, WORKLOADS, Tally, corpus_inputs, plan_hard,  # noqa: E402
                       plan_scenes, plan_schedule, toy_instruction)

from scotkit import planner  # noqa: E402


def test_benchmark_json_names_every_workload_and_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(MOVES)


# --- generators -------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 24])
def test_hard_scene_is_deterministic_and_satisfiable(n):
    first = gen.hard_scene(7, 3, n)
    assert gen.dumps(first) == gen.dumps(gen.hard_scene(7, 3, n))
    assert gen.dumps(first) != gen.dumps(gen.hard_scene(8, 3, n))
    doc, hidden = first
    checks.verify_hidden(doc, hidden, n)
    kinds = [c["kind"] for c in doc["constraints"]]
    assert kinds.count("non_overlap") == n * (n - 1) // 2
    assert len(kinds) - kinds.count("non_overlap") == 2 * n


def test_plan_schedule_is_seeded_over_a_fixed_scene_set():
    def first(seed, count):
        return list(itertools.islice(plan_schedule(seed), count))

    assert first(5, 30) == first(5, 30)
    assert first(5, 30) != first(6, 30)
    scenes = [s for s, _ in first(5, 1 + SCENE_SET_SIZE)]
    assert scenes[0] == 0 and sorted(scenes[1:]) == list(range(1, SCENE_SET_SIZE + 1))
    # every workload seed plans each n=16 scene with the same planner seed
    assert sorted(first(5, 30)[1:]) != sorted(first(7, 30)[1:])
    assert set(first(5, 40)[1:]) == set(first(6, 40)[1:])
    a, b = plan_scenes(5), plan_scenes(6)
    assert a[0] != b[0] and a[1:] == b[1:]
    assert [len(doc["entities"]) for doc in a] == [24] + [16] * SCENE_SET_SIZE


def test_hidden_layout_check_fails_loudly():
    doc, hidden = gen.hard_scene(1, 0, 16)
    overlapping = dict(hidden, e1=list(hidden["e0"]))
    with pytest.raises(gen.GeneratorError):
        checks.verify_hidden(doc, overlapping, 16)
    missing = {k: v for k, v in hidden.items() if k != "e5"}
    with pytest.raises(gen.GeneratorError):
        checks.verify_hidden(doc, missing, 16)


def test_small_scenes_schedule_and_predictions_are_deterministic():
    assert gen.dumps(gen.small_scene(4, 2)) == gen.dumps(gen.small_scene(4, 2))
    assert gen.mllm_schedule(4, 20, 7) == gen.mllm_schedule(4, 20, 7)
    assert gen.mllm_schedule(4, 40, 7) != gen.mllm_schedule(5, 40, 7)
    doc, hidden = gen.small_scene(4, 2)
    boxes = gen.perturbed(hidden, gen.rng_for("t", 4))
    assert boxes == gen.perturbed(hidden, gen.rng_for("t", 4))
    assert all(checks.on_canvas(b) for b in boxes.values())


def test_corpus_files_are_byte_identical_by_seed(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "CORPUS_RECORDS", 60)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    refs, preds_a = corpus_inputs(3, tmp_path / "a")
    refs_b, preds_b = corpus_inputs(3, tmp_path / "b")
    assert gen.dumps(refs) == gen.dumps(refs_b)
    assert preds_a.read_bytes() == preds_b.read_bytes()
    assert toy_instruction(3) == toy_instruction(3)
    for line in preds_a.read_text().splitlines():
        assert all(checks.on_canvas(e["box"]) for e in json.loads(line)["entities"])


# --- tail percentile ------------------------------------------------------------


def test_no_tail_below_twenty_samples():
    assert tail_percentile([float(i) for i in range(19)]) is None
    assert tail_percentile([]) is None


@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 250, 1000, 1009, 5000])
def test_tail_keeps_ten_samples_beyond_it(n):
    samples = [float(i) for i in range(n)]
    p, value = tail_percentile(samples)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    assert p >= 50
    # one percentile higher would leave fewer than ten beyond it
    if p < 99:
        higher_rank = -(-(p + 1) * n // 100)
        assert n - higher_rank < 10


# --- output checks ------------------------------------------------------------


def _planned(seed=2, index=1):
    doc, _ = gen.small_scene(seed, index)
    spec = planner.spec_from_dict(doc)
    result = planner.plan(spec, seed=0)
    out = planner.plan_to_output(spec, result).to_dict()
    stderr = "".join(f"residual: {v.message}\n" for v in result.residual)
    return doc, out, stderr


def test_plan_check_accepts_real_output():
    doc, out, stderr = _planned()
    solved, residual = checks.plan_output(json.dumps(out), stderr, doc)
    assert solved == (residual == 0)


def test_plan_check_rejects_off_canvas_box():
    doc, out, stderr = _planned()
    key = next(iter(out["objects"]))
    out["objects"][key] = [0, 0, 1001, 10]
    with pytest.raises(CheckFailed):
        checks.plan_output(json.dumps(out), stderr, doc)


def test_plan_check_rejects_missing_object():
    doc, out, stderr = _planned()
    last = list(out["objects"])[-1]
    del out["objects"][last]
    n = len(doc["entities"])
    out["prompt"] = out["prompt"].replace(f"<|bbox_{n}|>", "")
    with pytest.raises(CheckFailed):
        checks.plan_output(json.dumps(out), stderr, doc)


def test_plan_check_rejects_misreported_residual():
    doc, out, stderr = _planned()
    with pytest.raises(CheckFailed):
        checks.plan_output(json.dumps(out), stderr + "residual: invented\n", doc)


def test_decode_eval_and_sample_checks_reject_corruption(tmp_path):
    refs = [{"id": "r1", "entities": [{"box": [1, 2, 30, 40]}]}]
    good = json.dumps({"entities": [{"box": [1, 2, 30, 40]}]})
    checks.decode_output(good + "\n", refs)
    with pytest.raises(CheckFailed):
        checks.decode_output(good.replace("30", "31") + "\n", refs)
    report = "samples:   2\nSR:    60.00\nI-SR:  50.00\nmIoU:  40.00\n"
    with pytest.raises(CheckFailed):
        checks.eval_output(report, 2)
    points = tmp_path / "p.txt"
    points.write_text("0.1 0.2\n0.3 0.4\n")
    assert checks.sample_output('{"n": 2, "in_box_fraction": 0.5}', points, 2) == 0.5
    with pytest.raises(CheckFailed):
        checks.sample_output('{"n": 3, "in_box_fraction": 0.5}', points, 3)


def test_synth_check_ignores_formatting_but_not_content(tmp_path):
    refs = [{"id": "r1", "caption": "a mug", "entities": [{"box": [1, 2, 30, 40]}]}]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(refs[0], indent=None, separators=(", ", ": ")) + "\n")
    checks.synth_output(f"{path}\n", path, refs)
    path.write_text(json.dumps({**refs[0], "caption": "a cup"}) + "\n")
    with pytest.raises(CheckFailed):
        checks.synth_output(f"{path}\n", path, refs)
    path.write_text("")
    with pytest.raises(CheckFailed):
        checks.synth_output(f"{path}\n", path, refs)


class InstantSpawner:
    """Answers every call at once with a failing exit, so a timed loop
    runs as many calls as a very fast program would allow."""

    def __init__(self):
        self.calls = 0

    def scot(self, *args, name=None):
        self.calls += 1
        return Call(name or args[0], 1e-4, 1000, 1, "", "")


def test_plan_hard_loop_has_no_call_limit(tmp_path):
    sp, tally = InstantSpawner(), Tally()
    outcome = plan_hard(sp, tally, tmp_path, seed=3, seconds=0.3)
    assert sp.calls > 100
    assert outcome.items == sp.calls - 1  # all but the untimed n=24 call
    assert tally.attempted == tally.failed == sp.calls


def test_tally_counts_failed_exit_and_failed_check():
    tally = Tally()
    ok = Call("plan", 0.1, 1000, 0, "{}", "")
    assert tally.record(ok, lambda: 42) == 42
    assert tally.record(Call("plan", 0.1, 1000, 1, "", "boom"), lambda: 42) is None
    assert tally.record(ok, lambda: checks.require(False, "bad")) is None
    assert (tally.attempted, tally.failed, len(tally.errors)) == (3, 2, 2)


# --- spans ----------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        {"name": "replay", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "planner.plan", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "constraints.check", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "constraints.check", "start": 6.0, "end": 8.0, "parent": 0},
    ]
    assert self_times(spans) == {"replay": 4.0, "planner.plan": 3.0, "constraints.check": 3.0}
