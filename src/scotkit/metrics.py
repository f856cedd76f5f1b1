"""Layout-compliance metrics over reference/prediction box sets.

Matching is geometry-only: within each category, references and
predictions are paired greedily in descending IoU order, one-to-one.
An instance is successful when its matched IoU reaches the threshold;
I-SR is the successful fraction of reference instances, SR the fraction
of samples whose instances all succeed, and mIoU the mean matched IoU.
Attribute correctness (e.g. color) needs generated pixels and is out of
scope here; results are therefore upper bounds on image-level scores.
"""

from __future__ import annotations

import math
from typing import Sequence

from .geometry import BBox, iou
from .wire import Record, assign

DEFAULT_IOU_THRESHOLD = 0.5


class EvalSample(Record):
    id: str
    references: tuple[tuple[str, BBox], ...]
    predictions: tuple[tuple[str, BBox], ...]

    def __init__(self, id, references, predictions):
        assign(self, "id", id)
        assign(self, "references", references)
        assign(self, "predictions", predictions)


class EvalReport(Record):
    miou: float
    sr: float
    isr: float
    iou_threshold: float
    samples: int
    instances: int

    def __init__(self, miou, sr, isr, iou_threshold, samples, instances):
        assign(self, "miou", miou)
        assign(self, "sr", sr)
        assign(self, "isr", isr)
        assign(self, "iou_threshold", iou_threshold)
        assign(self, "samples", samples)
        assign(self, "instances", instances)


def greedy_match(pairs: Sequence[tuple[int, int, float]], n_refs: int) -> list[float]:
    """One-to-one matching: walk candidate (ref, pred, iou) pairs in
    descending IoU order (ties broken by indices) and keep each side's
    first appearance. Each reference's matched IoU, 0.0 when unmatched."""
    ordered = sorted(pairs, key=lambda p: (-p[2], p[0], p[1]))
    ious = [0.0] * n_refs
    used_preds: set[int] = set()
    for ref_i, pred_i, value in ordered:
        if value <= 0 or ious[ref_i] or pred_i in used_preds:
            continue
        ious[ref_i] = value  # > 0, so the reference is taken
        used_preds.add(pred_i)
    return ious


def match_instances(sample: EvalSample) -> list[float]:
    """Each reference's matched IoU against the sample's predictions,
    greedy per category; predictions of other categories never match."""
    pairs: list[tuple[int, int, float]] = []
    for ri, (ref_cat, ref_box) in enumerate(sample.references):
        for pi, (pred_cat, pred_box) in enumerate(sample.predictions):
            if pred_cat != ref_cat:
                continue
            pairs.append((ri, pi, iou(ref_box, pred_box)))
    return greedy_match(pairs, len(sample.references))


def _round2(x: float) -> float:
    """Percentage rounding, half away from zero."""
    return math.floor(x * 100 + 0.5) / 100 if x >= 0 else -math.floor(-x * 100 + 0.5) / 100


def score(sample: EvalSample, iou_threshold: float) -> tuple[int, int, float]:
    """(instances, successes, IoU sum) of one sample, for `aggregate`."""
    ious = match_instances(sample)
    return len(ious), sum(1 for v in ious if v >= iou_threshold), sum(ious)


def evaluate(
    samples: Sequence[EvalSample],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> EvalReport:
    """`aggregate` over each sample's `score`."""
    return aggregate([score(s, iou_threshold) for s in samples], iou_threshold)


def check_iou_threshold(iou_threshold: float) -> None:
    """The threshold lies in (0, 1]: at 0 an unmatched reference would count as a success."""
    if not 0 < iou_threshold <= 1:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def aggregate(scores: Sequence[tuple[int, int, float]], iou_threshold: float) -> EvalReport:
    """SR / I-SR / mIoU over each sample's `score`, in sample order, as
    percentages with two decimals. A corpus without any reference
    instance scores 100.00 vacuously (so SR <= I-SR always holds)."""
    if not scores:
        raise ValueError("evaluate needs at least one sample")
    check_iou_threshold(iou_threshold)
    total_instances = total_successful = full_samples = 0
    iou_sum = 0.0
    for instances, successes, sample_iou_sum in scores:
        total_instances += instances
        total_successful += successes
        iou_sum += sample_iou_sum
        full_samples += successes == instances
    sr = 100.0 * full_samples / len(scores)
    isr = 100.0 * total_successful / total_instances if total_instances else 100.0
    miou = 100.0 * iou_sum / total_instances if total_instances else 100.0
    return EvalReport(
        miou=_round2(miou),
        sr=_round2(sr),
        isr=_round2(isr),
        iou_threshold=iou_threshold,
        samples=len(scores),
        instances=total_instances,
    )


def format_report(report: EvalReport) -> str:
    return "\n".join([
        f"samples:   {report.samples}",
        f"instances: {report.instances}",
        f"threshold: {report.iou_threshold}",
        f"SR:    {report.sr:.2f}",
        f"I-SR:  {report.isr:.2f}",
        f"mIoU:  {report.miou:.2f}",
    ])
