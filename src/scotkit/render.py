"""Deterministic SVG rendering of layout plans for human inspection."""

from __future__ import annotations

from . import wire
from .geometry import CANVAS
from .planner import LayoutPlan, PlannerOutput

_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#4699c9",
    "#f032e6", "#808000", "#9a6324", "#568198", "#800000", "#2f6f4f",
)
_STROKE_WIDTH = 3
_LABEL_FONT_SIZE = 24


def render_svg(output: PlannerOutput | LayoutPlan, canvas_size: int = 1000) -> str:
    """One labelled rectangle per entity, drawn in object order on a
    canvas_size-pixel square; byte-identical output for identical inputs."""
    if canvas_size < 1:
        raise ValueError(f"canvas_size must be >= 1, got {canvas_size}")
    wire.read(int, canvas_size, "canvas_size")  # a size no float can hold overflows below
    if isinstance(output, PlannerOutput):
        items = list(output.objects)
    elif isinstance(output, LayoutPlan):
        items = [
            (f"{i}. {eid}", box)
            for i, (eid, box) in enumerate(output.boxes.items(), start=1)
        ]
    else:
        raise TypeError(f"cannot render {type(output).__name__}")

    s = canvas_size / CANVAS
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas_size}" '
        f'height="{canvas_size}" viewBox="0 0 {canvas_size} {canvas_size}">',
        f'<rect x="0" y="0" width="{canvas_size}" height="{canvas_size}" '
        f'fill="#ffffff" stroke="#000000" stroke-width="1"/>',
    ]
    for index, (label, box) in enumerate(items):
        color = _PALETTE[index % len(_PALETTE)]
        x = _fmt(box.xmin * s)
        y = _fmt(box.ymin * s)
        w = _fmt(box.width * s)
        h = _fmt(box.height * s)
        lines.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="{color}" fill-opacity="0.15" stroke="{color}" '
            f'stroke-width="{_STROKE_WIDTH}"/>'
        )
        tx = _fmt(box.xmin * s + 4)
        ty = _fmt(box.ymin * s + _LABEL_FONT_SIZE)
        lines.append(
            f'<text x="{tx}" y="{ty}" font-family="monospace" '
            f'font-size="{_LABEL_FONT_SIZE}" fill="{color}">'
            f"{_escape(label)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
