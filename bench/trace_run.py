"""Traced in-process replay: the same generated inputs as the workloads,
fed to each module's public functions, with a span around every call.

Spans (name, start, end, parent, request id) are kept in memory and
written to `bench/out/` at the end, with each span name's self time
(duration minus the time its child spans cover). Per-layer metrics are
aggregated from the spans. The selected workload is also replayed with
spans off, to give the tracing overhead; every workload is replayed
traced, so that every per-layer metric is reported on any run.
Repair is replayed one sweep at a time through the public
`repair(..., max_iters=1, step_start=s)`, with `s` decayed as `repair`
decays it, and the final boxes must equal a single `plan` call's: on
the quality scenes in every pass, and on every plan_hard scene in the
warm-up pass of a plan_hard run.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from scotkit import client, codec, constraints, dataset, flowmatch, metrics, planner, render
from scotkit.geometry import BBox, iou

import gen
from mock import MockEndpoint
from proc import Spawner, median
from workloads import (API_KEY_VAR, QUALITY_SCENES, SCENE_SET_SIZE, SMALL_SCENES, TOY_BATCH,
                       TOY_EULER_STEPS, TOY_SAMPLES, TOY_STEPS, plan_scenes, plan_schedule,
                       toy_instruction)

LAYERS = ("geometry", "codec", "constraints", "planner", "client", "dataset",
          "metrics", "flowmatch", "render", "cli")
TRACE_RECORDS = 1000


class Tracer:
    """In-memory span recorder. Disabled, it records nothing but still
    counts, so the untraced replay does the same work."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.request: str | None = None
        self.mismatches: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def _span(self, name: str):
        record = {"name": name, "start": time.perf_counter() - self.origin, "end": None,
                  "parent": self._stack[-1] if self._stack else None, "request": self.request}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext({})

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def expect(self, cond: bool, message: str) -> None:
        self.count("checks")
        if not cond:
            self.mismatches.append(message)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the part of it that
    child spans cover (children of one span never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
    return out


def coverage(spans: list[dict], wall: float) -> float:
    """Share of the replay wall covered by outermost layer spans."""
    layer = [s["name"].split(".")[0] in LAYERS for s in spans]
    covered = sum(
        s["end"] - s["start"] for s, is_layer in zip(spans, layer)
        if is_layer and (s["parent"] is None or not layer[s["parent"]])
    )
    return covered / wall


# --- replays ------------------------------------------------------------


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def replay_plan_hard(tr: Tracer, seed: int, work: Path, count: int = QUALITY_SCENES) -> None:
    """The first `count` plan_hard calls; 1 + SCENE_SET_SIZE covers every scene."""
    # the sweep schedule `plan` uses: its max_iters, repair's step defaults
    max_iters = _default(planner.plan, "max_iters")
    step_decay, step_floor = _default(planner.repair, "step_decay"), _default(planner.repair, "step_floor")
    quality = []
    scenes = plan_scenes(seed)
    for i, (scene, planner_seed) in enumerate(itertools.islice(plan_schedule(seed), count)):
        tr.request = f"plan_hard/{i}"
        with tr.span("replay.scene"):
            spec = planner.spec_from_dict(scenes[scene])
            cats, cs = spec.categories, spec.constraints
            tr.count(f"constraints.count_n{len(spec.entities)}", len(cs))
            tr.count(f"scenes_n{len(spec.entities)}")
            with tr.span("planner.plan"):
                single = planner.plan(spec, seed=planner_seed)
            with tr.span("planner.propose_initial"):
                boxes = planner.propose_initial(spec, planner_seed)
            with tr.span("constraints.total_magnitude"):
                total = constraints.total_magnitude(boxes, cats, cs)
            step, sweeps = _default(planner.repair, "step_start"), 0
            while total > 0 and sweeps < max_iters:
                with tr.span("planner.repair_sweep") as rec:
                    layout = planner.repair(boxes, spec, max_iters=1, step_start=step)
                sweeps += 1
                new_total = sum(v.magnitude for v in layout.residual)
                rec["useful"] = new_total < total
                tr.count("planner.useful_sweeps", new_total < total)
                boxes, total = layout.boxes, new_total
                step = max(step_floor, step * step_decay)
            tr.count("planner.sweeps", sweeps)
            tr.expect(boxes == single.boxes, f"{tr.request}: sweep replay boxes differ from plan()")
            with tr.span("geometry.bbox") as rec:
                rebuilt = {eid: BBox.from_list(b.as_list()) for eid, b in single.boxes.items()}
            rec["n"] = len(rebuilt)
            with tr.span("constraints.check"):
                found = constraints.check(rebuilt, cats, cs)
            quality.append((not found, sum(v.magnitude for v in found)))
    tr.count("quality.plan_solved", sum(s for s, _ in quality))
    tr.count("quality.plan_residual", sum(r for _, r in quality))


def replay_corpus(tr: Tracer, seed: int, work: Path) -> None:
    tr.request = "corpus/io"
    n = TRACE_RECORDS
    with tr.span("dataset.synth_generate") as rec:
        records = dataset.synth_generate(seed, n, 12)
    rec["n"] = n
    path = work / "trace-corpus.jsonl"
    with tr.span("dataset.save_records") as rec:
        dataset.save_records(path, records)
    rec["n"] = n
    with tr.span("dataset.load_records") as rec:
        loaded = dataset.load_records(path)
    rec["n"] = n
    tr.expect(loaded == records, "load_records does not return the saved records")
    for i, r in enumerate(records):
        tr.request = f"corpus/{i}"
        with tr.span("codec.locate_spans"):
            codec.locate_spans(codec.tokenize(r.caption), [e.phrase for e in r.entities])
        with tr.span("codec.encode"):
            line = codec.serialize(codec.interleave(r.caption, [(e.phrase, e.box) for e in r.entities]))
        with tr.span("codec.decode"):
            _, entities = codec.parse(line)
        tr.expect([e.box for e in entities] == [e.box for e in r.entities], f"decode changed {r.id}")
        with tr.span("geometry.bbox") as rec:
            for e in r.entities:
                BBox.from_list(e.box.as_list())
        rec["n"] = len(r.entities)
    tr.request = "corpus/eval"
    preds = {p["id"]: p for p in gen.predictions([dataset.record_to_dict(r) for r in records], seed)}
    samples = []
    for r in records:
        refs = tuple((e.attrs.get("category", e.phrase), e.box) for e in r.entities)
        pred = preds.get(r.id, {"entities": []})
        guesses = tuple((e["attrs"].get("category", e["phrase"]), BBox.from_list(e["box"]))
                        for e in pred["entities"])
        samples.append(metrics.EvalSample(r.id, refs, guesses))
    pairs = [(a, b) for s in samples for ca, a in s.references for cb, b in s.predictions if ca == cb]
    tr.count("metrics.pairs", len(pairs))
    tr.count("metrics.samples", len(samples))
    with tr.span("geometry.iou") as rec:
        for a, b in pairs:
            iou(a, b)
    rec["n"] = len(pairs)
    with tr.span("metrics.evaluate") as rec:
        report = metrics.evaluate(samples)
    rec["n"] = len(samples)
    tr.expect(0 <= report.sr <= report.isr <= 100, "evaluate broke SR <= I-SR <= 100")
    with tr.span("dataset.stats") as rec:
        dataset.stats(records)
    rec["n"] = n


def replay_toy(tr: Tracer, seed: int, work: Path) -> None:
    tr.request = "toy/0"
    instruction = codec.parse_instruction(toy_instruction(seed).strip())
    config = flowmatch.TrainConfig(steps=TOY_STEPS, batch_size=TOY_BATCH)
    with tr.span("flowmatch.embed_instruction"):
        e = flowmatch.embed_instruction(instruction, m=config.m)
    sampler = flowmatch.box_union_sampler(instruction, m=config.m)
    with tr.span("flowmatch.train") as rec:
        model, curve = flowmatch.train(config, sampler)
    rec["n"] = TOY_STEPS
    with tr.span("flowmatch.sample") as rec:
        points = flowmatch.sample(model, e, TOY_SAMPLES, n_steps=TOY_EULER_STEPS, seed=0)
    rec["n"] = TOY_EULER_STEPS
    tr.expect(points.shape == (TOY_SAMPLES, 2), "sample returned the wrong shape")
    tr.count("quality.toy_final_loss", float(statistics.fmean(curve[-100:])))
    tr.count("quality.toy_in_box_frac", flowmatch.in_box_fraction(points, instruction))


def _prompt(doc: dict) -> str:
    text = ", ".join(e["phrase"] for e in doc["entities"])
    return f"{text}. {doc['tail']}" if doc["tail"] else text


def replay_cli_small(tr: Tracer, seed: int, work: Path) -> None:
    src = Path(planner.__file__).resolve().parent
    golden = gen.golden_replies((src / "resources" / "planner_system_prompt.txt").read_text(encoding="utf-8"))
    schedule = gen.mllm_schedule(seed, 4 * SMALL_SCENES, len(golden))
    os.environ.setdefault(API_KEY_VAR, "scotbench-key")
    with MockEndpoint() as mock:
        config = client.ClientConfig(base_url=mock.base_url, model_name="bench",
                                     api_key_env_var=API_KEY_VAR)
        for i in range(SMALL_SCENES):
            tr.request = f"cli_small/{i}"
            doc, hidden = gen.small_scene(seed, i)
            boxes = {k: BBox.from_list(v) for k, v in
                     gen.perturbed(hidden, gen.rng_for("cli_small-boxes", seed, i)).items()}
            spec = planner.spec_from_dict(doc)
            with tr.span("planner.plan"):
                layout = planner.plan(spec, seed=0)
            raw = json.dumps(planner.plan_to_output(spec, layout).to_dict())
            with tr.span("planner.parse_planner_output"):
                output = planner.parse_planner_output(raw)
            with tr.span("constraints.check"):
                constraints.check(boxes, spec.categories, spec.constraints)
            with tr.span("planner.repair"):
                planner.repair(boxes, spec)
            with tr.span("render.render_svg"):
                render.render_svg(output)
            bad, k = schedule[i]
            replies = ([bad] if bad else []) + [golden[k]]
            mock.queue(replies)
            before = mock.posts
            with tr.span("client.build_request"):
                client.build_request(_prompt(doc))
            with tr.span("client.request_plan"):
                got = client.request_plan(config, _prompt(doc))
            with tr.span("planner.parse_planner_output"):
                want = planner.parse_planner_output(golden[k])
            tr.expect(got == want and mock.posts - before == len(replies),
                      f"{tr.request}: request_plan did not return the mock's valid reply")
            tr.count("client.plans")
            tr.count("client.attempts", mock.posts - before)


REPLAYS = {"plan_hard": replay_plan_hard, "corpus": replay_corpus,
           "cli_small": replay_cli_small, "toy": replay_toy}


# --- interpreter and import costs ------------------------------------------


def _importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the top-level `scotkit` imports and
    of the first numpy and requests entries in `-X importtime` output."""
    out = {"scotkit": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        seconds = int(cumulative) / 1e6
        if name.startswith(" scotkit"):
            out["scotkit"] += seconds
        elif name.strip() in ("numpy", "requests") and name.strip() not in out:
            out[name.strip()] = seconds
    return out


def cli_costs(work: Path, repeats: int = 3) -> dict[str, float]:
    sp = Spawner(Path(planner.__file__).resolve().parents[1], work)
    sp.run([sys.executable, "-c", "pass"], "warmup")
    interpreter = [sp.run([sys.executable, "-c", "pass"], "python").wall_s for _ in range(repeats)]
    imports = [_importtime(sp.run([sys.executable, "-X", "importtime", "-c", "import scotkit.cli"],
                                  "importtime").stderr) for _ in range(repeats)]
    return {
        "cli.interpreter_s": median(interpreter),
        "cli.import_s": median(i["scotkit"] for i in imports),
        "cli.import_numpy_s": median(i.get("numpy", 0.0) for i in imports),
        "cli.import_requests_s": median(i.get("requests", 0.0) for i in imports),
    }


# --- per-layer metrics ------------------------------------------------------------


def _per(spans: list[dict], name: str, workload: str | None = None, scale: float = 1.0) -> float:
    """Seconds per unit of work (span field n, default 1) over matching
    spans, times scale."""
    chosen = [s for s in spans if s["name"] == name
              and (workload is None or s["request"].startswith(workload + "/"))]
    units = sum(s.get("n", 1) for s in chosen)
    if not units:
        raise RuntimeError(f"the replay recorded no {name} work for {workload or 'any workload'}")
    return scale * sum(s["end"] - s["start"] for s in chosen) / units


# The end-to-end metric and workload each per-layer metric should move;
# a change that claims a gain on one layer names its row here.
_PLAN_HARD = "items_per_s and call_p50_s on plan_hard"
_CORPUS = "items_per_s and call_p50_s on corpus"
_CLI_SMALL = "call_p50_s and items_per_s on cli_small"
_TOY = "items_per_s on toy (train_steps_per_s, samples_per_s in the report)"
MOVES = {
    **dict.fromkeys(["planner.plan_s", "planner.propose_ms", "planner.sweep_ms", "planner.sweeps",
                     "planner.useful_sweep_frac", "planner.idle_sweep_time_frac",
                     "constraints.check_ms", "constraints.total_magnitude_ms",
                     "constraints.count_n16", "constraints.count_n24"], _PLAN_HARD),
    "geometry.bbox_us": f"{_PLAN_HARD}; {_CORPUS}",
    **dict.fromkeys(["geometry.iou_us", "codec.encode_us", "codec.decode_us", "codec.locate_spans_us",
                     "dataset.synth_us", "dataset.save_us", "dataset.load_us", "dataset.stats_us",
                     "metrics.evaluate_us", "metrics.pairs"], _CORPUS),
    **dict.fromkeys(["flowmatch.train_step_ms", "flowmatch.euler_step_ms", "flowmatch.embed_ms"], _TOY),
    **dict.fromkeys(["client.build_request_us", "client.request_plan_ms", "client.attempts_per_plan",
                     "client.retry_frac", "planner.parse_output_ms", "render.svg_ms"], _CLI_SMALL),
    **dict.fromkeys(["cli.interpreter_s", "cli.import_s", "cli.import_numpy_s", "cli.import_requests_s"],
                    f"setup_s on every workload; {_CLI_SMALL}"),
    **dict.fromkeys(["quality.plan_solved_frac", "quality.plan_residual_mean"],
                    "none: a plan_hard quality guard, the same figures as its report"),
    **dict.fromkeys(["quality.toy_final_loss", "quality.toy_in_box_frac"],
                    "none: a toy quality guard, the same figures as its report"),
    **dict.fromkeys(["trace.overhead_frac", "trace.coverage_frac"], "none: the health of this trace"),
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    sp, c = tr.spans, tr.counts
    sweeps = [s for s in sp if s["name"] == "planner.repair_sweep"]
    sweep_time = sum(s["end"] - s["start"] for s in sweeps)
    idle_time = sum(s["end"] - s["start"] for s in sweeps if not s["useful"])
    scenes = QUALITY_SCENES
    return {
        "planner.plan_s": (_per(sp, "planner.plan", "plan_hard"), "s"),
        "planner.propose_ms": (_per(sp, "planner.propose_initial", "plan_hard", 1e3), "ms"),
        "planner.sweep_ms": (_per(sp, "planner.repair_sweep", "plan_hard", 1e3), "ms"),
        "planner.sweeps": (c["planner.sweeps"] / scenes, "count"),
        "planner.useful_sweep_frac": (c["planner.useful_sweeps"] / c["planner.sweeps"], "ratio"),
        "planner.idle_sweep_time_frac": (idle_time / sweep_time, "ratio"),
        "planner.parse_output_ms": (_per(sp, "planner.parse_planner_output", "cli_small", 1e3), "ms"),
        "constraints.check_ms": (_per(sp, "constraints.check", "plan_hard", 1e3), "ms"),
        "constraints.total_magnitude_ms": (_per(sp, "constraints.total_magnitude", "plan_hard", 1e3), "ms"),
        "constraints.count_n16": (c["constraints.count_n16"] / c["scenes_n16"], "count"),
        "constraints.count_n24": (c["constraints.count_n24"] / c["scenes_n24"], "count"),
        "geometry.bbox_us": (_per(sp, "geometry.bbox", None, 1e6), "us"),
        "geometry.iou_us": (_per(sp, "geometry.iou", "corpus", 1e6), "us"),
        "codec.encode_us": (_per(sp, "codec.encode", "corpus", 1e6), "us"),
        "codec.decode_us": (_per(sp, "codec.decode", "corpus", 1e6), "us"),
        "codec.locate_spans_us": (_per(sp, "codec.locate_spans", "corpus", 1e6), "us"),
        "dataset.synth_us": (_per(sp, "dataset.synth_generate", "corpus", 1e6), "us"),
        "dataset.save_us": (_per(sp, "dataset.save_records", "corpus", 1e6), "us"),
        "dataset.load_us": (_per(sp, "dataset.load_records", "corpus", 1e6), "us"),
        "dataset.stats_us": (_per(sp, "dataset.stats", "corpus", 1e6), "us"),
        "metrics.evaluate_us": (_per(sp, "metrics.evaluate", "corpus", 1e6), "us"),
        "metrics.pairs": (c["metrics.pairs"] / c["metrics.samples"], "count"),
        "flowmatch.train_step_ms": (_per(sp, "flowmatch.train", "toy", 1e3), "ms"),
        "flowmatch.euler_step_ms": (_per(sp, "flowmatch.sample", "toy", 1e3), "ms"),
        "flowmatch.embed_ms": (_per(sp, "flowmatch.embed_instruction", "toy", 1e3), "ms"),
        "client.build_request_us": (_per(sp, "client.build_request", "cli_small", 1e6), "us"),
        "client.request_plan_ms": (_per(sp, "client.request_plan", "cli_small", 1e3), "ms"),
        "client.attempts_per_plan": (c["client.attempts"] / c["client.plans"], "count"),
        "client.retry_frac": ((c["client.attempts"] - c["client.plans"]) / c["client.attempts"], "ratio"),
        "render.svg_ms": (_per(sp, "render.render_svg", "cli_small", 1e3), "ms"),
        "quality.plan_solved_frac": (c["quality.plan_solved"] / scenes, "ratio"),
        "quality.plan_residual_mean": (c["quality.plan_residual"] / scenes, "magnitude"),
        "quality.toy_final_loss": (c["quality.toy_final_loss"], "loss"),
        "quality.toy_in_box_frac": (c["quality.toy_in_box_frac"], "ratio"),
    }


def traced(workload: str, seed: int, work: Path, out_dir: Path) -> tuple[dict, dict]:
    """Replays the selected workload once to warm up (for plan_hard, over
    every scene), then untraced and traced in turn, twice each, for the
    tracing overhead; then replays the other workloads into the last
    traced pass's spans. Returns the result line and the report."""
    replay = REPLAYS[workload]
    warm = Tracer(enabled=False)
    if workload == "plan_hard":
        replay_plan_hard(warm, seed, work, 1 + SCENE_SET_SIZE)
    else:
        replay(warm, seed, work)
    walls: dict[bool, list[float]] = {False: [], True: []}
    for enabled in (False, True, False, True):
        tr = Tracer(enabled)
        start = time.perf_counter()
        replay(tr, seed, work)
        walls[enabled].append(time.perf_counter() - start)
    untraced_wall, traced_wall = sum(walls[False]), sum(walls[True])
    selected_spans = len(tr.spans)
    for other, replay in REPLAYS.items():
        if other != workload:
            replay(tr, seed, work)

    values = layer_metrics(tr)
    values.update({k: (v, "s") for k, v in cli_costs(work).items()})
    values["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    values["trace.coverage_frac"] = (coverage(tr.spans[:selected_spans], walls[True][-1]), "ratio")

    selves = self_times(tr.spans)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "request"],
        "spans": [[s["name"], s["start"], s["end"], s["parent"], s["request"]] for s in tr.spans],
        "self_s": selves,
    }), encoding="utf-8")

    checked = int(tr.counts.get("checks", 0) + warm.counts.get("checks", 0))
    mismatches = warm.mismatches + tr.mismatches
    failed = len(mismatches)
    result = {"correct": failed == 0, "attempted": max(checked, 1), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    report = {"spans": len(tr.spans), "trace_file": str(trace_file),
              "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "self_s": dict(sorted(selves.items(), key=lambda kv: -kv[1])[:12]),
              "errors": mismatches[:5], "moves": MOVES}
    return result, report
