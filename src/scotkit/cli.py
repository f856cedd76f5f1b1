"""Command-line entry point tying the pipeline together.

Machine-readable output goes to stdout, diagnostics to stderr. Exit
codes: 0 success, 1 validation failure, 2 I/O or transport failure.

Each command imports the scotkit modules it runs, so that a call loads
no module its command does not use (`scot --help` loads none).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from . import codec, planner
    from .client import ClientConfig
    from .geometry import BBox

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _read_json(path: str) -> dict:
    return json.loads(_read_text(path))


def _print_json(doc) -> None:
    print(json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False))


def _read_boxes(doc: dict) -> dict[str, BBox]:
    """The document's "boxes" map of entity id to box literal."""
    from . import wire
    from .geometry import BBox

    return wire.read(Mapping[str, BBox], doc["boxes"], "boxes")


def _load_scene(path: str) -> tuple[planner.SceneSpec, dict[str, BBox] | None]:
    from . import planner, wire

    doc = wire.read(Mapping[str, object], _read_json(path), "scene")
    spec = planner.spec_from_dict({k: v for k, v in doc.items() if k != "boxes"})
    if "boxes" not in doc:
        return spec, None
    boxes = _read_boxes(doc)
    ids = {e.id for e in spec.entities}
    for eid in boxes:
        if eid not in ids:
            raise ValueError(f"boxes names {eid!r}, which is not a scene entity")
    return spec, boxes


def cmd_encode(args) -> int:
    from . import codec, dataset

    def encode(record):
        return codec.serialize(dataset.record_to_instruction(record))

    for line in dataset.map_records(encode, args.input):
        print(line)
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import codec, dataset

    # nothing is printed until every line has become a record that
    # load_records would read back
    def decode(start, lines):
        records = []
        for index, (lineno, line) in enumerate(lines, start=start + 1):
            try:
                caption, entities = codec.parse(line)
                record = dataset.GroundedRecord(
                    id=f"decoded-{index:05d}",
                    caption=caption,
                    entities=tuple(dataset.RecordEntity(e.phrase, box=e.box) for e in entities),
                    source="decoded",
                )
                record.validate()
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            records.append(dataset.record_json(record))
        return records

    for line in dataset.fan_out(decode, dataset.numbered_lines(_read_text(args.input).split("\n"))):
        print(line)
    return EXIT_OK


def cmd_plan(args) -> int:
    spec, _ = _load_scene(args.spec)
    if args.mllm:
        from .client import request_plan

        output = request_plan(_client_config(args), _spec_prompt(spec))
    else:
        from . import planner

        result = planner.plan(spec, seed=args.seed, max_iters=args.max_iters)
        output = planner.plan_to_output(spec, result)
        if result.residual:
            for violation in result.residual:
                print(f"residual: {violation.message}", file=sys.stderr)
    _print_json(output.to_dict())
    return EXIT_OK


def _spec_prompt(spec: planner.SceneSpec) -> str:
    parts = [e.phrase for e in spec.entities]
    text = ", ".join(parts)
    if spec.tail:
        text = f"{text}. {spec.tail}" if text else spec.tail
    return text


def _client_config(args) -> ClientConfig:
    """ClientConfig from the --config file, each key read by the type of
    its field; the file wins over --base-url and --model, and keys it
    does not set take the field defaults."""
    from . import wire
    from .client import ClientConfig

    doc = {}
    if args.config:
        doc = wire.read(Mapping[str, object], _read_json(args.config), "client config")
    values = {"base_url": args.base_url or "", "model_name": args.model or "", **doc}
    config = wire.read(ClientConfig, values, "client config")
    if not config.base_url:
        raise ValueError("--mllm needs --base-url or a config file with base_url")
    return config


def cmd_check(args) -> int:
    from . import constraints, wire

    spec, boxes = _load_scene(args.scene)
    if boxes is None:
        raise ValueError('check needs a "boxes" map in the scene file')
    violations = constraints.check(boxes, spec.categories, spec.constraints)
    _print_json(
        {
            "violations": [wire.write(v) for v in violations],
            "total_magnitude": sum(v.magnitude for v in violations),
        }
    )
    return EXIT_OK


def cmd_repair(args) -> int:
    from . import planner

    spec, boxes = _load_scene(args.scene)
    if boxes is None:
        raise ValueError('repair needs a "boxes" map in the scene file')
    result = planner.repair(boxes, spec, max_iters=args.max_iters)
    _print_json(
        {
            "boxes": {eid: b.as_list() for eid, b in result.boxes.items()},
            "iterations": result.iterations,
            "residual": [v.message for v in result.residual],
        }
    )
    return EXIT_OK


def _instances_by_id(path: str) -> dict[str, tuple[tuple[str, int, int, int, int], ...]]:
    """Each record's entities as (category, x1, y1, x2, y2), by record id."""
    from . import dataset

    def instances(r):
        return r.id, tuple((e.attrs.get("category", e.phrase), *e.box.as_list())
                           for e in r.entities)

    by_id = {}
    for record_id, boxes in dataset.map_records(instances, path):
        if record_id in by_id:
            raise ValueError(f"record id {record_id!r} appears twice in {path}")
        by_id[record_id] = boxes
    return by_id


def cmd_eval(args) -> int:
    from . import dataset, metrics
    from .geometry import BBox

    refs = _instances_by_id(args.refs)
    preds = _instances_by_id(args.preds)

    def boxes(instances):
        return tuple((category, BBox(*xyxy)) for category, *xyxy in instances)

    def score(start, lines):
        return [metrics.score(metrics.EvalSample(record_id, boxes(instances),
                                                 boxes(preds.get(record_id, ()))),
                              args.iou_threshold)
                for _, (record_id, instances) in lines]

    scores = dataset.fan_out(score, list(enumerate(refs.items(), start=1)))
    report = metrics.aggregate(scores, args.iou_threshold)
    for record_id in preds:
        if record_id not in refs:
            raise ValueError(f"prediction id {record_id!r} in {args.preds} matches no "
                             f"reference in {args.refs}")
    print(metrics.format_report(report))
    return EXIT_OK


def _reject_unread_keys(doc: Mapping[str, object], read: tuple[str, ...]) -> None:
    """A render input key its form does not read is a misspelling, not
    a default."""
    unknown = next((key for key in doc if key not in read), None)
    if unknown is not None:
        raise ValueError(f"unknown field {unknown!r} in render input")


def cmd_render(args) -> int:
    from . import planner, render, wire

    doc = wire.read(Mapping[str, object], _read_json(args.input), "render input")
    if "objects" in doc:
        _reject_unread_keys(doc, ("reasoning", "prompt", "objects"))
        output = planner.parse_planner_output(json.dumps(doc))
        svg = render.render_svg(output, args.canvas)
    elif "boxes" in doc:
        # the form `scot repair` prints; its residual messages are checked, not drawn
        _reject_unread_keys(doc, ("boxes", "iterations", "residual"))
        wire.read(tuple[str, ...], doc.get("residual", []), "residual")
        lp = planner.LayoutPlan(
            boxes=_read_boxes(doc),
            iterations=wire.read(int, doc.get("iterations", 0), "iterations"),
            residual=(),
        )
        svg = render.render_svg(lp, args.canvas)
    else:
        raise ValueError('render input needs "objects" or "boxes"')
    Path(args.output).write_text(svg, encoding="utf-8")
    print(args.output)
    return EXIT_OK


def cmd_dataset_synth(args) -> int:
    from . import dataset

    records = dataset.synth_generate(args.seed, args.n, args.max_entities)
    dataset.save_records(args.output, records)
    print(args.output)
    return EXIT_OK


def cmd_dataset_stats(args) -> int:
    from . import dataset

    counts = dataset.map_records(dataset.record_counts, args.input)
    _print_json(dataset.summarize(counts).to_dict())
    return EXIT_OK


def _instruction_from_file(path: str) -> codec.InterleavedInstruction:
    from . import codec

    return codec.parse_instruction(_read_text(path).strip())


def cmd_toy_train(args) -> int:
    import numpy as np

    from . import flowmatch

    instruction = _instruction_from_file(args.instruction)
    config = flowmatch.TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
    )
    sampler = flowmatch.box_union_sampler(instruction, m=config.m)
    model, curve = flowmatch.train(config, sampler)
    meta = {
        "seeds": [config.init_seed, config.data_seed, config.noise_seed],
        "steps": config.steps,
    }
    flowmatch.save_checkpoint(args.output, model, meta=meta)
    if args.curve:
        flowmatch.save_loss_curve(args.curve, curve)
    _print_json(
        {
            "checkpoint": str(args.output),
            "first100_mean": float(np.mean(curve[:100])),
            "final100_mean": float(np.mean(curve[-100:])),
        }
    )
    return EXIT_OK


def cmd_toy_sample(args) -> int:
    from . import flowmatch

    model, _ = flowmatch.load_checkpoint(args.model)
    instruction = _instruction_from_file(args.instruction)
    e = flowmatch.embed_instruction(instruction, m=model.m)
    samples = flowmatch.sample(model, e, args.n, n_steps=args.n_steps, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            for row in samples:
                f.write(" ".join(repr(float(v)) for v in row) + "\n")
    _print_json(
        {
            "n": int(samples.shape[0]),
            "in_box_fraction": flowmatch.in_box_fraction(samples, instruction),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scot",
        description="Spatial layout planning over interleaved text-coordinate instructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="grounded records -> instruction text")
    p.add_argument("input", help="records file (JSON lines)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="instruction text -> grounded records")
    p.add_argument("input", help="instruction text file, one per line ('-' for stdin)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("plan", help="scene spec -> planner output")
    p.add_argument("spec", help="scene spec file (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--mllm", action="store_true", help="delegate to the external planner")
    p.add_argument("--config", help="client config file (JSON)")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("check", help="layout + constraints -> violations")
    p.add_argument("scene", help="scene file with entities, constraints, and boxes")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repair", help="layout + constraints -> repaired plan")
    p.add_argument("scene", help="scene file with entities, constraints, and boxes")
    p.add_argument("--max-iters", type=int, default=200)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("eval", help="reference/prediction records -> metrics report")
    p.add_argument("--refs", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="plan -> SVG")
    p.add_argument("input", help="planner output or layout plan (JSON)")
    p.add_argument("output", help="SVG file to write")
    p.add_argument("--canvas", type=int, default=1000)
    p.set_defaults(func=cmd_render)

    pd = sub.add_parser("dataset", help="synthetic corpora and statistics")
    dsub = pd.add_subparsers(dest="dataset_command", required=True)

    p = dsub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-entities", type=int, default=12)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_dataset_synth)

    p = dsub.add_parser("stats", help="corpus statistics")
    p.add_argument("input")
    p.set_defaults(func=cmd_dataset_stats)

    pt = sub.add_parser("toy", help="flow-matching toy")
    tsub = pt.add_subparsers(dest="toy_command", required=True)

    p = tsub.add_parser("train", help="train a velocity model on one instruction")
    p.add_argument("--instruction", required=True, help="instruction text file")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--curve", help="loss curve output path")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=1e-2)
    p.set_defaults(func=cmd_toy_train)

    p = tsub.add_parser("sample", help="sample latents from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--instruction", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--n-steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write samples as two-column text")
    p.set_defaults(func=cmd_toy_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
