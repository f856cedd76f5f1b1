"""Tests for SVG rendering."""

import pytest

from scotkit.geometry import BBox
from scotkit.planner import LayoutPlan, PlannerOutput, parse_planner_output
from scotkit.render import render_svg


class TestRenderSvg:
    def test_empty_plan_is_valid_svg(self):
        svg = render_svg(LayoutPlan(boxes={}, iterations=0, residual=()))
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 1  # canvas only

    def test_birthday_cake_example(self, golden_examples):
        out = parse_planner_output(golden_examples[5])
        svg = render_svg(out)
        assert '<rect x="300" y="500" width="400" height="400"' in svg
        assert '<rect x="350" y="550" width="300" height="100"' in svg
        assert "1. birthday cake" in svg

    def test_deterministic_bytes(self, golden_examples):
        out = parse_planner_output(golden_examples[0])
        assert render_svg(out).encode() == render_svg(out).encode()

    def test_layout_plan_labels(self):
        lp = LayoutPlan(
            boxes={"cat": BBox(0, 0, 100, 100), "dog": BBox(200, 200, 400, 300)},
            iterations=3,
            residual=(),
        )
        svg = render_svg(lp)
        assert "1. cat" in svg and "2. dog" in svg
        assert svg.count("<rect") == 3

    def test_canvas_scaling(self):
        lp = LayoutPlan(boxes={"a": BBox(0, 0, 500, 500)}, iterations=0, residual=())
        svg = render_svg(lp, canvas_size=500)
        assert 'width="500" height="500"' in svg
        assert '<rect x="0" y="0" width="250" height="250"' in svg

    def test_label_escaping(self):
        out = PlannerOutput(
            reasoning="", prompt='x<|bbox_1|>', objects=(('1. a <b> & "c"', BBox(0, 0, 10, 10)),)
        )
        svg = render_svg(out)
        assert "&lt;b&gt;" in svg and "&amp;" in svg

    @pytest.mark.parametrize("canvas_size", [0, -10])
    def test_canvas_below_one_pixel_rejected(self, canvas_size):
        lp = LayoutPlan(boxes={"a": BBox(0, 0, 500, 500)}, iterations=0, residual=())
        with pytest.raises(ValueError, match="canvas_size"):
            render_svg(lp, canvas_size=canvas_size)

    def test_unrenderable_type(self):
        with pytest.raises(TypeError):
            render_svg({"boxes": {}})
