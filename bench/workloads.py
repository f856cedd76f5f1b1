"""The four closed-loop workloads. One client: the next `scot` call
starts only after the previous one exits. Inputs are generated at set-up
from the seed; every call's output is checked before the next starts.

- plan_hard: `plan` on hard satisfiable scenes, so planner repair sweeps
  dominate. The timed calls cycle through a fixed set of n=16 scenes,
  each with a fixed planner seed (`--seed`), from a starting point the
  workload seed picks; a seeded n=24 scene is planned and checked first,
  outside the timed loop (its wall is reported as plan_n24_s). On a
  2-vCPU VM one plan's cost varied about 6x between scenes and 2.5x
  between planner seeds, and a 20 s run makes only about 16 calls, so
  seeded scenes or planner seeds in the timed loop moved its throughput
  and median call by 10-30% from seed to seed.
- corpus: synth -> encode -> decode -> eval -> stats on a 5000-record
  corpus, so record I/O, the codec and matching dominate.
- cli_small: short plan/check/repair/render/plan --mllm calls, so
  interpreter start and imports dominate.
- toy: toy train then two toy samples, the only flow-matching load.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
from checks import CheckFailed
from mock import MockEndpoint
from proc import Call, Spawner

SCENE_SET_SEED = 0  # generates the fixed n=16 scene set that every seed plans
SCENE_SET_SIZE = 12  # fewer than one 20 s run plans, so every run covers the set
QUALITY_SCENES = 4  # the n=24 call and the first three timed ones: quality and the trace use them
CORPUS_RECORDS = 5000
CORPUS_MAX_ENTITIES = 12
SMALL_SCENES = 12
TOY_STEPS = 1000
TOY_BATCH = 256
TOY_SAMPLES = 4000
TOY_EULER_STEPS = 50
API_KEY_VAR = "SCOT_API_KEY"


@dataclass
class Tally:
    """Calls made by a workload and how many failed their checks."""

    calls: list[Call] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, call: Call, check, timed: bool = True):
        """Count one operation; a non-zero exit or a failed check fails it.
        Untimed calls count but stay out of the timing metrics. Returns
        the check's result, or None on failure."""
        if timed:
            self.calls.append(call)
        self.attempted += 1
        try:
            if call.code != 0:
                raise CheckFailed(f"exit {call.code}: {call.stderr.strip()[-300:]}")
            return check()
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{call.name}: {exc}")
            return None


@dataclass
class Outcome:
    """What a workload did: work items over the summed wall of the calls
    that did them, plus workload-specific figures for the report."""

    items: int
    items_wall_s: float
    item_name: str
    extra: dict = field(default_factory=dict)


def _verified(seed, index: int, n: int) -> dict:
    doc, hidden = gen.hard_scene(seed, index, n)
    checks.verify_hidden(doc, hidden, n)
    return doc


def plan_schedule(seed: int) -> Iterator[tuple[int, int]]:
    """(scene index, planner seed) per plan_hard call, without end: scene
    0 is the seeded n=24 scene with a seeded planner seed, then the fixed
    n=16 set with its fixed planner seeds, cycled from a seeded start.
    The first 1 + SCENE_SET_SIZE entries plan every scene once."""
    rng = gen.rng_for("plan_hard-planner-seeds", seed)
    yield 0, rng.randrange(1_000_000)
    fixed = gen.rng_for("plan_hard-planner-seeds", SCENE_SET_SEED)
    planner_seeds = [fixed.randrange(1_000_000) for _ in range(SCENE_SET_SIZE)]
    start = rng.randrange(SCENE_SET_SIZE)
    for j in itertools.count(start):
        i = j % SCENE_SET_SIZE
        yield 1 + i, planner_seeds[i]


def plan_scenes(seed: int) -> list[dict]:
    """The seeded n=24 scene, then the fixed n=16 set."""
    return [_verified(seed, 0, 24)] + [_verified(SCENE_SET_SEED, i, 16)
                                       for i in range(1, SCENE_SET_SIZE + 1)]


def _loop(seconds: float, minimum: int):
    """Item indices until the run has lasted `seconds`, at least `minimum`."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        yield i
        i += 1


def plan_hard(sp: Spawner, tally: Tally, work: Path, seed: int, seconds: float) -> Outcome:
    scenes = plan_scenes(seed)
    paths = [gen.write(work / f"hard-{i:02d}.json", gen.dumps(doc)) for i, doc in enumerate(scenes)]
    schedule = plan_schedule(seed)

    def plan(timed: bool = True):
        scene, planner_seed = next(schedule)
        call = sp.scot("plan", str(paths[scene]), "--seed", str(planner_seed))
        return call, tally.record(call, lambda: checks.plan_output(call.stdout, call.stderr, scenes[scene]),
                                  timed)

    n24, first = plan(timed=False)
    quality = [first]
    walls = 0.0
    done = 0
    for i in _loop(seconds, QUALITY_SCENES - 1):
        call, result = plan()
        walls += call.wall_s
        done += 1
        if i < QUALITY_SCENES - 1:
            quality.append(result)
    extra = {"plan_n24_s": (n24.wall_s, "s", "lower")}
    if None not in quality:
        extra["plan_solved_frac"] = (sum(s for s, _ in quality) / len(quality), "ratio", "higher")
        extra["plan_residual_mean"] = (sum(r for _, r in quality) / len(quality), "magnitude", "lower")
    return Outcome(done, walls, "scenes", extra)


def corpus_inputs(seed: int, work: Path) -> tuple[list[dict], Path]:
    """Reference records (as the program's synth generates them) and a
    perturbed prediction file for `eval`."""
    from scotkit import dataset

    records = dataset.synth_generate(seed, CORPUS_RECORDS, CORPUS_MAX_ENTITIES)
    refs = [dataset.record_to_dict(r) for r in records]
    preds = gen.write(work / "preds.jsonl", "".join(gen.dumps(p) for p in gen.predictions(refs, seed)))
    return refs, preds


def corpus(sp: Spawner, tally: Tally, work: Path, seed: int, seconds: float) -> Outcome:
    refs, preds = corpus_inputs(seed, work)
    n = len(refs)
    data, instr = work / "corpus.jsonl", work / "instructions.txt"
    reports: list[dict] = []
    walls = 0.0
    rounds = 0

    def eval_check(call: Call):
        values = checks.eval_output(call.stdout, n)
        checks.require(not reports or values == reports[0], "eval report differs between rounds")
        reports.append(values)

    for _ in _loop(seconds, 1):
        data.unlink(missing_ok=True)
        call = sp.scot("dataset", "synth", "--seed", str(seed), "--n", str(n),
                       "--max-entities", str(CORPUS_MAX_ENTITIES), "--output", str(data),
                       name="dataset synth")
        tally.record(call, lambda: checks.synth_output(call.stdout, data, refs))
        round_calls = [call]
        call = sp.scot("encode", str(data))
        tally.record(call, lambda: checks.encode_output(call.stdout, n))
        instr.write_text(call.stdout, encoding="utf-8")
        round_calls.append(call)
        call = sp.scot("decode", str(instr))
        tally.record(call, lambda: checks.decode_output(call.stdout, refs))
        round_calls.append(call)
        call = sp.scot("eval", "--refs", str(data), "--preds", str(preds))
        tally.record(call, lambda: eval_check(call))
        round_calls.append(call)
        call = sp.scot("dataset", "stats", str(data), name="dataset stats")
        tally.record(call, lambda: checks.stats_output(call.stdout, n))
        round_calls.append(call)
        walls += sum(c.wall_s for c in round_calls)
        rounds += 1
    return Outcome(rounds * n, walls, "records")


def cli_small(sp: Spawner, tally: Tally, work: Path, seed: int, seconds: float) -> Outcome:
    prompt_text = (sp.src / "scotkit" / "resources" / "planner_system_prompt.txt").read_text(encoding="utf-8")
    golden = gen.golden_replies(prompt_text)
    schedule = gen.mllm_schedule(seed, 4 * SMALL_SCENES, len(golden))
    scenes = []
    for i in range(SMALL_SCENES):
        doc, hidden = gen.small_scene(seed, i)
        boxes = gen.perturbed(hidden, gen.rng_for("cli_small-boxes", seed, i))
        scenes.append({
            "doc": doc, "boxes": boxes, "n": len(doc["entities"]),
            "spec": gen.write(work / f"small-{i:02d}.json", gen.dumps(doc)),
            "scene": gen.write(work / f"small-{i:02d}-boxes.json", gen.dumps({**doc, "boxes": boxes})),
            "plan": gen.write(work / f"small-{i:02d}-plan.json", gen.dumps(gen.plan_doc(doc, hidden))),
        })
    svg = work / "plan.svg"
    posts, plans = 0, 0
    walls = 0.0
    done = 0
    with MockEndpoint() as mock:
        for i in _loop(seconds, 5):
            s = scenes[(i // 5) % len(scenes)]
            kind = i % 5
            if kind == 0:
                call = sp.scot("plan", str(s["spec"]), "--seed", "0")
                tally.record(call, lambda: checks.plan_output(call.stdout, call.stderr, s["doc"]))
            elif kind == 1:
                call = sp.scot("check", str(s["scene"]))
                tally.record(call, lambda: checks.check_output(call.stdout, s["doc"], s["boxes"]))
            elif kind == 2:
                call = sp.scot("repair", str(s["scene"]))
                tally.record(call, lambda: checks.repair_output(call.stdout, s["doc"], s["boxes"]))
            elif kind == 3:
                svg.unlink(missing_ok=True)
                call = sp.scot("render", str(s["plan"]), str(svg))
                tally.record(call, lambda: checks.render_output(call.stdout, svg, s["n"]))
            else:
                bad, k = schedule[(i // 5) % len(schedule)]
                replies = ([bad] if bad else []) + [golden[k]]
                mock.queue(replies)
                before = mock.posts
                call = sp.scot("plan", str(s["spec"]), "--mllm", "--base-url", mock.base_url,
                               "--model", "bench", name="plan --mllm")

                def mllm_check():
                    checks.mllm_output(call.stdout, golden[k])
                    checks.require(mock.posts - before == len(replies) and mock.pending() == 0,
                                   f"expected {len(replies)} POSTs, saw {mock.posts - before}")

                tally.record(call, mllm_check)
                posts += mock.posts - before
                plans += 1
            walls += call.wall_s
            done += 1
    extra = {"mllm_attempts_per_plan": (posts / plans, "count", "lower")} if plans else {}
    return Outcome(done, walls, "calls", extra)


def toy_instruction(seed: int) -> str:
    """One corpus instruction with 3-6 boxes, picked by the seed."""
    from scotkit import codec, dataset

    records = [r for r in dataset.synth_generate(seed, 200, CORPUS_MAX_ENTITIES)
               if 3 <= len(r.entities) <= 6]
    record = records[gen.rng_for("toy", seed).randrange(len(records))]
    return codec.serialize(dataset.record_to_instruction(record)) + "\n"


def toy(sp: Spawner, tally: Tally, work: Path, seed: int, seconds: float) -> Outcome:
    instr = gen.write(work / "instruction.txt", toy_instruction(seed))
    ckpt, points = work / "model.ckpt", work / "points.txt"
    train_wall = sample_wall = 0.0
    rounds = 0
    first: dict[str, float] = {}

    def repeatable(key: str, value: float) -> float:
        """Training and sampling are seeded, so every round must agree."""
        checks.require(first.setdefault(key, value) == value, f"{key} differs between rounds")
        return value

    for _ in _loop(seconds, 1):
        ckpt.unlink(missing_ok=True)
        call = sp.scot("toy", "train", "--instruction", str(instr), "--output", str(ckpt),
                       "--steps", str(TOY_STEPS), "--batch-size", str(TOY_BATCH), name="toy train")
        tally.record(call, lambda: repeatable("final loss", checks.train_output(call.stdout, ckpt)))
        train_wall += call.wall_s
        for sample_seed in (0, 1):
            points.unlink(missing_ok=True)
            call = sp.scot("toy", "sample", "--model", str(ckpt), "--instruction", str(instr),
                           "--n", str(TOY_SAMPLES), "--n-steps", str(TOY_EULER_STEPS),
                           "--seed", str(sample_seed), "--output", str(points), name="toy sample")
            tally.record(call, lambda: repeatable(
                f"in-box fraction {sample_seed}", checks.sample_output(call.stdout, points, TOY_SAMPLES)))
            sample_wall += call.wall_s
        rounds += 1
    extra = {
        "train_steps_per_s": (rounds * TOY_STEPS / train_wall, "steps/s", "higher"),
        "samples_per_s": (rounds * 2 * TOY_SAMPLES / sample_wall, "samples/s", "higher"),
    }
    if "final loss" in first and "in-box fraction 0" in first:
        extra["toy_final_loss"] = (first["final loss"], "loss", "lower")
        extra["toy_in_box_frac"] = (first["in-box fraction 0"], "ratio", "higher")
    return Outcome(rounds, train_wall + sample_wall, "rounds", extra)


WORKLOADS = {"plan_hard": plan_hard, "corpus": corpus, "cli_small": cli_small, "toy": toy}
