"""Output checks for every `scot` call the benchmark makes.

The rules hold for any correct version of the program, not only for
today's bytes: plans must parse, keep one on-canvas box per entity and
report exactly the residual an independent check finds; decoding must
return the encoded boxes; metric reports must satisfy SR <= I-SR <= 100.
A failed rule raises CheckFailed and counts the call as failed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from scotkit import constraints, planner
from scotkit.geometry import BBox

from gen import GeneratorError


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def on_canvas(coords) -> bool:
    return (
        isinstance(coords, (list, tuple)) and len(coords) == 4
        and all(isinstance(v, int) and not isinstance(v, bool) for v in coords)
        and 0 <= coords[0] < coords[2] <= 1000 and 0 <= coords[1] < coords[3] <= 1000
    )


def _violations(doc: dict, boxes: dict[str, list[int]]):
    spec = planner.spec_from_dict(doc)
    layout = {eid: BBox.from_list(b) for eid, b in boxes.items()}
    return constraints.check(layout, spec.categories, spec.constraints)


def verify_hidden(doc: dict, boxes: dict[str, list[int]], n: int) -> None:
    """A generated hard scene must place every entity and its hidden
    layout must satisfy every constraint."""
    ids = [e["id"] for e in doc["entities"]]
    if len(ids) != n or set(boxes) != set(ids) or not all(on_canvas(b) for b in boxes.values()):
        raise GeneratorError(f"hidden layout places {len(boxes)} of {n} entities")
    found = _violations(doc, boxes)
    if found:
        raise GeneratorError(f"hidden layout violates {len(found)} constraints: {found[0].message}")


def plan_output(stdout: str, stderr: str, doc: dict) -> tuple[bool, float]:
    """Returns (solved, residual total magnitude), both recomputed here
    from the output boxes."""
    try:
        out = planner.parse_planner_output(stdout)
    except planner.PlannerOutputError as exc:
        raise CheckFailed(f"plan output rejected by the wire schema: {exc}") from exc
    entities = doc["entities"]
    require(len(out.objects) == len(entities),
            f"{len(out.objects)} objects for {len(entities)} entities")
    boxes = {}
    for (_, box), entity in zip(out.objects, entities):
        require(on_canvas(box.as_list()), f"box off the canvas: {box.as_list()}")
        boxes[entity["id"]] = box.as_list()
    found = _violations(doc, boxes)
    reported = sorted(line[len("residual: "):] for line in stderr.splitlines()
                      if line.startswith("residual: "))
    require(reported == sorted(v.message for v in found),
            f"plan reports {len(reported)} residual violations, an independent check finds {len(found)}")
    return not found, sum(v.magnitude for v in found)


def check_output(stdout: str, doc: dict, boxes: dict[str, list[int]]) -> None:
    report = _json(stdout)
    found = _violations(doc, boxes)
    require(len(report.get("violations", ())) == len(found),
            f"check lists {len(report.get('violations', ()))} violations, expected {len(found)}")
    expected = sum(v.magnitude for v in found)
    require(math.isclose(report.get("total_magnitude", -1.0), expected, rel_tol=1e-9, abs_tol=1e-9),
            f"check total {report.get('total_magnitude')} != {expected}")


def repair_output(stdout: str, doc: dict, boxes: dict[str, list[int]]) -> None:
    report = _json(stdout)
    out = report.get("boxes", {})
    require(set(out) == {e["id"] for e in doc["entities"]}, "repair must return one box per entity")
    require(all(on_canvas(b) for b in out.values()), "repair returned a box off the canvas")
    found = _violations(doc, out)
    require(sorted(report.get("residual", ())) == sorted(v.message for v in found),
            "repair residual differs from an independent check")
    before = sum(v.magnitude for v in _violations(doc, boxes))
    require(sum(v.magnitude for v in found) <= before, "repair raised the objective")


def render_output(stdout: str, svg_path: Path, n: int) -> None:
    require(stdout.strip() == str(svg_path), "render must print the output path")
    svg = svg_path.read_text(encoding="utf-8")
    require(svg.startswith("<?xml") and svg.rstrip().endswith("</svg>"), "not an SVG document")
    require(svg.count("<rect ") == n + 1 and svg.count("<text ") == n,
            f"SVG must draw the canvas plus {n} labelled boxes")


def mllm_output(stdout: str, golden: str) -> None:
    try:
        got = planner.parse_planner_output(stdout).to_dict()
    except planner.PlannerOutputError as exc:
        raise CheckFailed(f"plan --mllm output rejected: {exc}") from exc
    require(got == planner.parse_planner_output(golden).to_dict(),
            "plan --mllm must return the endpoint's valid reply")


def synth_output(stdout: str, path: Path, refs: list[dict]) -> None:
    """synth must write the seeded corpus: the same records in order,
    whatever the JSON formatting."""
    require(stdout.strip() == str(path), "synth must print the output path")
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    require(len(lines) == len(refs), f"synth wrote {len(lines)} records, expected {len(refs)}")
    for line, ref in zip(lines, refs):
        require(_json(line) == ref, f"synth record differs from the seeded corpus at {ref['id']}")


def encode_output(stdout: str, n: int) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    require(len(lines) == n, f"encode wrote {len(lines)} instructions for {n} records")


def decode_output(stdout: str, refs: list[dict]) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    require(len(lines) == len(refs), f"decode wrote {len(lines)} records for {len(refs)} instructions")
    for line, ref in zip(lines, refs):
        got = [e["box"] for e in _json(line)["entities"]]
        require(got == [e["box"] for e in ref["entities"]], f"decode changed the boxes of {ref['id']}")


_REPORT_RE = re.compile(r"^(samples|SR|I-SR|mIoU):\s+([0-9.]+)$", re.MULTILINE)


def eval_output(stdout: str, n: int) -> dict[str, float]:
    values = {k: float(v) for k, v in _REPORT_RE.findall(stdout)}
    require(set(values) == {"samples", "SR", "I-SR", "mIoU"}, "eval report is incomplete")
    require(values["samples"] == n, f"eval scored {values['samples']} samples of {n}")
    require(0 <= values["SR"] <= values["I-SR"] <= 100, "eval must satisfy SR <= I-SR <= 100")
    require(0 <= values["mIoU"] <= 100, "mIoU must lie in [0, 100]")
    return values


def stats_output(stdout: str, n: int) -> None:
    doc = _json(stdout)
    require(doc.get("count") == n, f"stats counts {doc.get('count')} records of {n}")
    require(sum(doc.get("entity_histogram", {}).values()) == n, "entity histogram does not sum to count")


def train_output(stdout: str, checkpoint: Path) -> float:
    doc = _json(stdout)
    final = doc.get("final100_mean")
    require(isinstance(final, float) and math.isfinite(final), "train must report a finite final loss")
    require(checkpoint.is_file() and checkpoint.stat().st_size > 0, "train wrote no checkpoint")
    return final


def sample_output(stdout: str, points: Path, n: int) -> float:
    doc = _json(stdout)
    require(doc.get("n") == n, f"sample returned {doc.get('n')} points, asked for {n}")
    rows = points.read_text(encoding="utf-8").splitlines()
    require(len(rows) == n, f"sample wrote {len(rows)} points, asked for {n}")
    require(all(len(r.split()) == 2 for r in rows), "every sample must be a 2-D point")
    frac = doc.get("in_box_fraction")
    require(isinstance(frac, float) and 0.0 <= frac <= 1.0, "in-box fraction must lie in [0, 1]")
    return frac
