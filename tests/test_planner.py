"""Tests for scene planning: wire-schema parsing, the layout procedure,
and conversion to executable instructions."""

import json
import re

import pytest

from scotkit import codec, planner, wire
from scotkit.constraints import Grid, LeftOf, NonOverlap, check
from scotkit.geometry import BBox
from scotkit.planner import (
    EntitySpec,
    LayoutPlan,
    PlannerOutput,
    PlannerOutputError,
    SceneSpec,
    parse_planner_output,
    plan,
    plan_to_output,
    propose_initial,
    repair,
    spec_from_dict,
    to_instruction,
)

from conftest import synth_satisfiable_spec


def fails(message):
    """Expect a PlannerOutputError whose message is exactly `message`."""
    return pytest.raises(PlannerOutputError, match=f"^{re.escape(message)}$")


class TestParsePlannerOutput:
    def test_golden_example_2(self, golden_examples):
        out = parse_planner_output(golden_examples[1])
        assert len(out.objects) == 5
        assert out.objects[0][0] == "1. park scene"
        assert out.objects[0][1] == BBox(0, 0, 1000, 1000)

    def test_golden_example_6(self, golden_examples):
        out = parse_planner_output(golden_examples[5])
        assert len(out.objects) == 2
        assert out.objects[1][1] == BBox(350, 550, 650, 650)

    def test_all_golden_examples_validate(self, golden_examples):
        for raw in golden_examples:
            out = parse_planner_output(raw)
            assert out.objects

    def test_unfenced_json_accepted(self):
        doc = {
            "reasoning": "r",
            "prompt": "a cat<|bbox_1|>",
            "objects": {"1. cat": [0, 0, 10, 10]},
        }
        out = parse_planner_output(json.dumps(doc))
        assert out.objects[0][1] == BBox(0, 0, 10, 10)

    def test_a_fence_inside_a_json_string_is_text(self):
        spec = SceneSpec((EntitySpec("a", "a ```b``` cat"),))
        out = plan_to_output(spec, plan(spec))
        assert parse_planner_output(json.dumps(out.to_dict())) == out

    def test_a_json_string_holding_a_fenced_plan_is_not_an_object(self):
        doc = {"reasoning": "r", "prompt": "a cat<|bbox_1|>", "objects": {"1. cat": [0, 0, 10, 10]}}
        with fails("expected a JSON object, got str"):
            parse_planner_output(json.dumps(f"```json\n{json.dumps(doc)}\n```"))

    def test_not_json(self):
        with fails("not valid JSON: Expecting value: line 1 column 1 (char 0)"):
            parse_planner_output("garbage {{{")

    def test_json_nested_too_deeply(self):
        with fails("not valid JSON: JSON nested too deeply to parse"):
            parse_planner_output("[" * 200_000 + "]" * 200_000)

    # Python refuses to convert an integer of more than 4300 digits; that
    # ValueError is the reply's fault too, so it is fed back to the model
    def test_an_integer_too_long_to_convert(self):
        with pytest.raises(PlannerOutputError, match="^not valid JSON: Exceeds the limit"):
            parse_planner_output('{"x": ' + "1" * 5000 + "}")
        doc = {"reasoning": "", "prompt": "a<|bbox_" + "1" * 5000 + "|>", "objects": {}}
        with pytest.raises(PlannerOutputError, match="^Exceeds the limit"):
            parse_planner_output(json.dumps(doc))

    def test_json_list_is_not_an_object(self):
        with fails("expected a JSON object, got list"):
            parse_planner_output('[{"prompt": "a cat<|bbox_1|>"}]')

    def test_missing_field(self):
        with fails("planner output is missing field 'reasoning'"):
            parse_planner_output('{"prompt": "x", "objects": {}}')

    def test_index_gap(self):
        doc = {
            "reasoning": "",
            "prompt": "a<|bbox_1|>",
            "objects": {"2. a": [0, 0, 1, 1]},
        }
        with fails("object indices must run 1..N, expected 1 got 2"):
            parse_planner_output(json.dumps(doc))

    def test_placeholder_mismatch(self):
        doc = {
            "reasoning": "",
            "prompt": "a<|bbox_1|> b<|bbox_3|>",
            "objects": {"1. a": [0, 0, 1, 1], "2. b": [5, 5, 9, 9]},
        }
        with fails("placeholder <|bbox_3|> has no matching object"):
            parse_planner_output(json.dumps(doc))

    # each prompt numbers its placeholders 1..N and still names no
    # instruction, so the parser rejects it
    @pytest.mark.parametrize("prompt, message", [
        ("a cat<|bbox_1|> and a dog<|bbox_x|>", "malformed placeholder: '<|bbox_x|>'"),
        ("<|bbox_1|> a cat", "malformed placeholder: '<|bbox_1|>'"),
        ("a cat<|bbox_1|> <|bbox_1 |>", "malformed placeholder: '<|bbox_1 |>'"),
    ])
    def test_placeholders_naming_no_instruction_are_rejected(self, prompt, message):
        doc = {"reasoning": "", "prompt": prompt, "objects": {"1. cat": [0, 0, 1, 1]}}
        with fails(message):
            parse_planner_output(json.dumps(doc))

    def test_invalid_box(self):
        doc = {
            "reasoning": "",
            "prompt": "a<|bbox_1|>",
            "objects": {"1. a": [10, 0, 0, 1]},
        }
        with fails("invalid box for '1. a': need 0 <= xmin < xmax <= 1000, got [10, 0, 0, 1]"):
            parse_planner_output(json.dumps(doc))

    def test_malformed_key(self):
        doc = {
            "reasoning": "",
            "prompt": "a<|bbox_1|>",
            "objects": {"first a": [0, 0, 1, 1]},
        }
        with fails("object key must look like \"N. name\", got 'first a'"):
            parse_planner_output(json.dumps(doc))


class TestPlannerOutput:
    @pytest.mark.parametrize("key, prompt, message", [
        ("first a", "a<|bbox_1|>", 'object key must look like "N. name", got \'first a\''),
        ("2. a", "a<|bbox_1|>", "object indices must run 1..N, expected 1 got 2"),
        ("1. a", "a cat", "object 1 has no matching placeholder"),
    ])
    def test_construction_checks_the_keys_and_placeholders(self, key, prompt, message):
        with fails(message):
            PlannerOutput("", prompt, ((key, BBox(0, 0, 1, 1)),))

    @pytest.mark.parametrize("key, prompt", [("9" * 5000 + ". a", "a<|bbox_1|>"),
                                             ("1. a", "a<|bbox_" + "9" * 5000 + "|>")])
    def test_an_index_too_long_to_convert_is_a_planner_output_error(self, key, prompt):
        with pytest.raises(PlannerOutputError, match="^Exceeds the limit"):
            PlannerOutput("", prompt, ((key, BBox(0, 0, 1, 1)),))

    def test_a_bad_box_is_reported_before_a_bad_key(self):
        # the reader builds every box before the record checks its keys
        doc = {"reasoning": "", "prompt": "a<|bbox_1|>",
               "objects": {"first a": [0, 0, 1, 1], "2. b": [5, 5, 5, 5]}}
        with fails("invalid box for '2. b': need 0 <= xmin < xmax <= 1000, got [5, 5, 5, 5]"):
            parse_planner_output(json.dumps(doc))


class TestToInstruction:
    def test_example_1_has_eight_blocks(self, golden_examples):
        out = parse_planner_output(golden_examples[0])
        instr = to_instruction(out)
        assert len(instr.entities) == 8
        assert instr.boxes == [box for _, box in out.objects]

    def test_zero_placeholders(self):
        out = PlannerOutput(reasoning="", prompt="just a scene", objects=())
        instr = to_instruction(out)
        assert instr.entities == ()
        assert instr.caption == "just a scene"

    def test_round_trip_boxes(self, golden_examples):
        for raw in golden_examples:
            out = parse_planner_output(raw)
            recovered = codec.parse_instruction(codec.serialize(to_instruction(out)))
            assert recovered.boxes == [box for _, box in out.objects]


def medium(eid, phrase="thing"):
    return EntitySpec(id=eid, phrase=phrase, category=phrase, size="medium")


class TestProposeInitial:
    def test_background_spans_canvas(self):
        spec = SceneSpec(entities=(EntitySpec(id="bg", phrase="sky", size="background"),))
        assert propose_initial(spec, seed=0) == {"bg": BBox(0, 0, 1000, 1000)}

    def test_four_medium_entities_disjoint(self):
        spec = SceneSpec(entities=tuple(medium(f"e{i}") for i in range(4)))
        boxes = propose_initial(spec, seed=0)
        assert len(boxes) == 4
        ids = list(boxes)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert not check(boxes, {}, [NonOverlap(a, b)])

    def test_grid_assignment_overrides_packing(self):
        g = Grid(3, 4, (("e0", (0, 0)),))
        spec = SceneSpec(entities=(medium("e0"),), constraints=(g,))
        boxes = propose_initial(spec, seed=0)
        cx = (boxes["e0"].xmin + boxes["e0"].xmax) / 2
        cy = (boxes["e0"].ymin + boxes["e0"].ymax) / 2
        assert 0 <= cx <= 250 and 0 <= cy <= 1000 / 3

    def test_deterministic(self):
        spec = SceneSpec(entities=tuple(medium(f"e{i}") for i in range(5)))
        assert propose_initial(spec, seed=3) == propose_initial(spec, seed=3)
        assert propose_initial(spec, seed=3) != propose_initial(spec, seed=4)


class TestRepair:
    def test_already_satisfied_is_untouched(self):
        spec = SceneSpec(
            entities=(medium("a"), medium("b")),
            constraints=(LeftOf("a", "b"),),
        )
        boxes = {"a": BBox(0, 0, 100, 100), "b": BBox(500, 0, 600, 100)}
        result = repair(boxes, spec)
        assert result.iterations == 0
        assert result.boxes == boxes
        assert result.residual == ()

    def test_left_of_repair(self):
        spec = SceneSpec(
            entities=(medium("a"), medium("b")),
            constraints=(LeftOf("a", "b"),),
        )
        boxes = {"a": BBox(600, 0, 700, 100), "b": BBox(100, 0, 200, 100)}
        result = repair(boxes, spec)
        assert result.residual == ()
        cxa = (result.boxes["a"].xmin + result.boxes["a"].xmax) / 2
        cxb = (result.boxes["b"].xmin + result.boxes["b"].xmax) / 2
        assert cxa <= cxb

    def test_unsatisfiable_reports_residual(self):
        spec = SceneSpec(
            entities=(medium("a"), medium("b")),
            constraints=(LeftOf("a", "b", 0.0), LeftOf("b", "a", 1.0)),
        )
        boxes = {"a": BBox(0, 0, 100, 100), "b": BBox(500, 0, 600, 100)}
        result = repair(boxes, spec, max_iters=50)
        assert result.iterations == 50
        assert result.residual

    def test_objective_trace_never_increases(self):
        for seed in range(10):
            spec = synth_satisfiable_spec(seed)
            trace: list[float] = []
            repair(propose_initial(spec, seed), spec, _trace=trace)
            assert all(b <= a for a, b in zip(trace, trace[1:]))


class TestPlan:
    def test_empty_spec(self):
        result = plan(SceneSpec(entities=()))
        assert result.boxes == {} and result.residual == ()

    def test_two_entity_spec_converges(self):
        spec = SceneSpec(
            entities=(medium("a"), medium("b")),
            constraints=(LeftOf("a", "b"), NonOverlap("a", "b")),
        )
        result = plan(spec, seed=0)
        assert result.residual == ()

    def test_grid_scenario_with_empty_cells(self):
        # 3x4 desk grid, 10 occupied cells, 2 required-empty cells
        cells = [(r, c) for r in range(3) for c in range(4)]
        empties = ((0, 3), (2, 0))
        occupied = [cell for cell in cells if cell not in empties]
        entities = tuple(medium(f"d{i}", "desk") for i in range(len(occupied)))
        g = Grid(
            3, 4,
            tuple((e.id, cell) for e, cell in zip(entities, occupied)),
            empties,
        )
        spec = SceneSpec(entities=entities, constraints=(g,))
        result = plan(spec, seed=1)
        assert result.residual == ()

    def test_determinism(self):
        spec = synth_satisfiable_spec(12)
        p1 = plan(spec, seed=7)
        p2 = plan(spec, seed=7)
        assert p1 == p2


class TestPlanToOutput:
    def test_single_entity(self):
        spec = SceneSpec(entities=(EntitySpec(id="c", phrase="cat"),))
        lp = LayoutPlan(boxes={"c": BBox(0, 0, 10, 10)}, iterations=0, residual=())
        out = plan_to_output(spec, lp)
        assert "cat<|bbox_1|>" in out.prompt
        assert out.objects == (("1. cat", BBox(0, 0, 10, 10)),)

    def test_round_trip_instruction(self):
        spec = SceneSpec(
            entities=(medium("a", "apple"), medium("b", "bench")),
            constraints=(LeftOf("a", "b"),),
            tail="in a sunny park.",
        )
        result = plan(spec, seed=0)
        out = plan_to_output(spec, result)
        instr = to_instruction(out)
        assert instr.boxes == [result.boxes["a"], result.boxes["b"]]
        assert instr.caption.endswith("in a sunny park.")

    @pytest.mark.parametrize("phrase", ["red cat.", "mat!", "a cat, ", 'a "cat"'])
    def test_a_phrase_ending_in_punctuation_is_rejected(self, phrase):
        # the codec peels the punctuation into its own word, and the box would follow it
        with pytest.raises(ValueError) as info:
            EntitySpec("a", phrase)
        assert str(info.value) == f"phrase must not end in any of '.,;:!?\"', got {phrase!r}"

    def test_the_punctuation_is_what_the_codec_peels(self):
        assert planner._TRAILING_PUNCT == codec._TRAILING_PUNCT

    def test_the_markers_are_what_the_codec_reads(self):
        # the planner cannot import the codec, so it keeps its own copy
        assert codec.BOX_OPEN in planner._MARKERS and codec.BOX_CLOSE in planner._MARKERS
        assert planner._BLOCK_MARKERS == (codec.BOX_OPEN, codec.BOX_CLOSE)
        assert planner._PLACEHOLDER_PREFIX_RE.pattern.startswith(re.escape(planner._MARKERS[2]))

    def test_placeholder_count(self):
        spec = SceneSpec(entities=tuple(medium(f"e{i}", f"obj{i}") for i in range(6)))
        result = plan(spec, seed=0)
        out = plan_to_output(spec, result)
        assert out.prompt.count("<|bbox_") == 6


class TestSpecSerialization:
    def test_round_trip(self):
        spec = synth_satisfiable_spec(3)
        assert spec_from_dict(wire.write(spec)) == spec

    def test_unknown_constraint_id_rejected(self):
        doc = {
            "entities": [{"id": "a", "phrase": "cat"}],
            "constraints": [{"kind": "left_of", "a": "a", "b": "ghost"}],
        }
        with pytest.raises(ValueError, match="^constraint references unknown entity id 'ghost'$"):
            spec_from_dict(doc)
