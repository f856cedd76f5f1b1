"""Tests for the interleaved text-coordinate instruction codec."""

import random
import re

import pytest

from scotkit.codec import (
    GroundedEntity,
    InterleavedInstruction,
    detokenize,
    interleave,
    locate_spans,
    parse,
    parse_instruction,
    serialize,
    tokenize,
)
from scotkit.geometry import BBox
from scotkit.planner import PlannerOutputError, to_instruction

from conftest import planner_output


def fails(message, error=ValueError):
    """Expect an `error` whose message is exactly `message`."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def unless_colliding(exc):
    """Re-raise a ValueError other than a caption that repeats a phrase."""
    if not str(exc).startswith("every occurrence of"):
        raise exc

WORDS = [
    "table", "apple", "cat", "dog", "mat", "lamp", "mug", "sofa", "tree",
    "bench", "vase", "book", "chair", "ball", "hat", "on", "with", "a",
    "the", "beside", "near", "red", "blue", "small",
]


def random_caption_and_entities(rng: random.Random):
    n_tokens = rng.randint(3, 30)
    toks = [rng.choice(WORDS) for _ in range(n_tokens)]
    caption = " ".join(toks)
    n_entities = rng.randint(0, min(5, n_tokens // 2))
    entities = []
    for _ in range(n_entities):
        start = rng.randrange(n_tokens)
        length = rng.randint(1, min(2, n_tokens - start))
        phrase = " ".join(toks[start : start + length])
        x1, y1 = rng.randint(0, 990), rng.randint(0, 990)
        box = BBox(x1, y1, rng.randint(x1 + 1, 1000), rng.randint(y1 + 1, 1000))
        entities.append((phrase, box))
    return caption, entities


class TestTokenize:
    def test_trailing_period(self):
        assert tokenize("a cat.") == ["a", "cat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_example_caption_token_count(self):
        assert len(tokenize("A wooden table with a severely rotten apple")) == 8

    def test_multiple_trailing_punct(self):
        assert tokenize('he said "stop!"') == ["he", "said", '"stop', "!", '"']

    def test_detokenize_round_trip(self):
        for text in [
            "a cat.",
            "A vibrant marketplace with stalls, crafts.",
            'with "Happy Birthday" written on it.',
        ]:
            assert detokenize(tokenize(text)) == text

    def test_detokenize_idempotent_tokens(self):
        toks = tokenize("fruits, vegetables, and crafts.")
        assert tokenize(detokenize(toks)) == toks


class TestLocateSpans:
    def test_two_phrases(self):
        toks = tokenize("a cat on a mat")
        assert locate_spans(toks, ["cat", "mat"]) == [(2, 2), (5, 5)]

    def test_empty_phrases(self):
        assert locate_spans(tokenize("a cat"), []) == []

    def test_repeated_phrase_claims_next_occurrence(self):
        toks = tokenize("a cat and a cat")
        assert locate_spans(toks, ["cat", "cat"]) == [(2, 2), (5, 5)]

    def test_phrase_not_found(self):
        with fails("phrase not found in caption: 'dog'"):
            locate_spans(tokenize("a cat"), ["dog"])

    def test_overlap_exhausted(self):
        with fails("every occurrence of 'cat' is already claimed"):
            locate_spans(tokenize("a cat"), ["cat", "cat"])

    def test_multiword_phrase(self):
        toks = tokenize("a wooden table with an apple")
        assert locate_spans(toks, ["wooden table"]) == [(2, 3)]


EXAMPLE3_CAPTION = "A wooden table with a severely rotten apple"
EXAMPLE3_ENTITIES = [
    ("table", BBox(128, 120, 968, 920)),
    ("apple", BBox(376, 336, 744, 696)),
]
EXAMPLE3_SERIALIZED = (
    "A wooden table <|box|>128,120,968,920<|/box|> "
    "with a severely rotten apple <|box|>376,336,744,696<|/box|>"
)


class TestInterleave:
    def test_no_entities(self):
        instr = interleave("a cat", [])
        assert instr.words == ("a", "cat")
        assert instr.entities == ()
        assert serialize(instr) == "a cat"

    def test_example3_structure(self):
        instr = interleave(EXAMPLE3_CAPTION, EXAMPLE3_ENTITIES)
        assert serialize(instr) == EXAMPLE3_SERIALIZED
        assert [e.span for e in instr.entities] == [(3, 3), (8, 8)]

    def test_appearance_order_sorting(self):
        instr = interleave("a cat on a mat", [("mat", BBox(0, 0, 10, 10)), ("cat", BBox(5, 5, 20, 20))])
        assert [e.phrase for e in instr.entities] == ["cat", "mat"]
        ends = [e.span[1] for e in instr.entities]
        assert ends == sorted(ends)

    def test_block_marker_in_caption_rejected(self):
        with fails("stray block marker near: 'a <|box|> cat'"):
            interleave("a <|box|> cat", [("cat", BBox(10, 20, 30, 40))])

    def test_strip_blocks_recovers_caption_tokens(self):
        rng = random.Random(5)
        for _ in range(100):
            caption, entities = random_caption_and_entities(rng)
            try:
                instr = interleave(caption, entities)
            except ValueError as exc:
                unless_colliding(exc)
                continue
            assert list(instr.words) == tokenize(caption)


def substitute(prompt, objects):
    """The instruction of the planner output with this prompt and objects."""
    return to_instruction(planner_output(prompt, objects))


# the instruction of a planner output: its placeholders are substituted
# with coordinate blocks and decoded as instruction text
class TestSubstitutePlaceholders:
    def test_marketplace_example(self):
        prompt = "A vibrant marketplace<|bbox_1|> with stalls<|bbox_2|> selling goods."
        instr = substitute(
            prompt, {1: BBox(0, 0, 1000, 1000), 2: BBox(16, 136, 792, 984)}
        )
        assert [e.phrase for e in instr.entities] == ["marketplace", "stalls"]
        assert [e.span for e in instr.entities] == [(3, 3), (5, 5)]
        assert list(instr.words) == tokenize("A vibrant marketplace with stalls selling goods.")

    def test_single_object(self):
        instr = substitute(
            "A transparent glass<|bbox_1|> on the table.", {1: BBox(248, 200, 752, 888)}
        )
        assert len(instr.entities) == 1
        assert instr.entities[0].box == BBox(248, 200, 752, 888)

    def test_missing_object(self):
        with fails("placeholder <|bbox_2|> has no matching object", PlannerOutputError):
            substitute("a dog<|bbox_2|>", {1: BBox(0, 0, 10, 10)})

    def test_unused_object(self):
        with fails("object 2 has no matching placeholder", PlannerOutputError):
            substitute(
                "a dog<|bbox_1|>", {1: BBox(0, 0, 10, 10), 2: BBox(0, 0, 5, 5)}
            )

    def test_malformed_placeholder(self):
        with fails("malformed placeholder: '<|bbox_|>'", PlannerOutputError):
            substitute("a dog<|bbox_|>", {1: BBox(0, 0, 10, 10)})

    def test_consecutive_placeholders_share_span_end(self):
        instr = substitute(
            "Three girls<|bbox_1|><|bbox_2|> smiling.",
            {1: BBox(0, 0, 100, 100), 2: BBox(200, 0, 300, 100)},
        )
        assert [e.span for e in instr.entities] == [(2, 2), (2, 2)]
        assert instr.boxes == [BBox(0, 0, 100, 100), BBox(200, 0, 300, 100)]

    @pytest.mark.parametrize("marker", ["<|box|>", "x<|/box|>"])
    def test_block_marker_in_prompt_rejected(self, marker):
        with fails(f"stray block marker near: 'a {marker} cat'", PlannerOutputError):
            substitute(f"a {marker} cat<|bbox_1|>", {1: BBox(10, 20, 30, 40)})

    def test_placeholder_at_start_rejected(self):
        with fails("malformed placeholder: '<|bbox_1|>'", PlannerOutputError):
            substitute("<|bbox_1|> a dog", {1: BBox(0, 0, 10, 10)})


class TestInstruction:
    @pytest.mark.parametrize("span", [(0, 1), (3, 2)])
    def test_entity_span_must_be_ordered_and_one_based(self, span):
        with pytest.raises(ValueError, match="invalid span"):
            GroundedEntity("cat", BBox(0, 0, 5, 5), span)

    @pytest.mark.parametrize("ends", [(2, 1), (3,), (1, 3)])
    def test_span_ends_checked_at_construction(self, ends):
        entities = tuple(GroundedEntity("w", BBox(0, 0, 5, 5), (e, e)) for e in ends)
        with pytest.raises(ValueError, match="span ends exceed the caption length"):
            InterleavedInstruction(("a", "cat"), entities)

    def test_equal_span_ends_allowed(self):
        entity = GroundedEntity("cat", BBox(0, 0, 5, 5), (2, 2))
        instr = InterleavedInstruction(("a", "cat"), (entity, entity))
        assert serialize(instr) == "a cat <|box|>0,0,5,5<|/box|> <|box|>0,0,5,5<|/box|>"


class TestParse:
    def test_round_trip_example3(self):
        caption, entities = parse(EXAMPLE3_SERIALIZED)
        assert caption == EXAMPLE3_CAPTION
        assert [e.box for e in entities] == [b for _, b in EXAMPLE3_ENTITIES]
        assert [e.phrase for e in entities] == ["table", "apple"]

    def test_coord_count(self):
        with fails("coordinate block must hold exactly 4 values: '1,2'"):
            parse("x <|box|>1,2<|/box|>")

    def test_coord_out_of_range(self):
        with fails("coordinate out of [0, 1000]: '1500'"):
            parse("cat <|box|>0,0,1500,10<|/box|>")
        with fails("coordinate out of [0, 1000]: '-1'"):
            parse("cat <|box|>-1,0,10,10<|/box|>")

    def test_unbalanced(self):
        with fails("stray block marker near: 'cat <|box|>1,2,3,4'"):
            parse("cat <|box|>1,2,3,4")
        with fails("stray block marker near: 'cat 1,2,3,4<|/box|>'"):
            parse("cat 1,2,3,4<|/box|>")
        with fails("coordinate block with no preceding token"):
            parse("<|box|>1,2,3,4<|/box|> cat")

    def test_non_numeric_coord(self):
        with fails("coordinate out of [0, 1000]: 'a'"):
            parse("cat <|box|>a,b,c,d<|/box|>")

    @pytest.mark.parametrize("payload, bad", [("١,٢,٣٠,٤٠", "١"), ("²,2,30,40", "²")])
    def test_coords_are_ascii_digits_only(self, payload, bad):
        # Arabic-Indic digits would decode to [1,2,30,40] and not round-trip;
        # a superscript two passes str.isdigit() but not int()
        with fails(f"coordinate out of [0, 1000]: {bad!r}"):
            parse(f"a cat <|box|>{payload}<|/box|>")


class TestSerialize:
    def test_empty(self):
        assert serialize(interleave("", [])) == ""

    def test_serialize_parse_identity_on_canonical(self):
        instr = interleave(EXAMPLE3_CAPTION, EXAMPLE3_ENTITIES)
        text = serialize(instr)
        assert serialize(parse_instruction(text)) == text


class TestRoundTrip:
    def test_randomized_round_trips(self):
        rng = random.Random(99)
        done = 0
        while done < 200:
            caption, entities = random_caption_and_entities(rng)
            try:
                instr = interleave(caption, entities)
            except ValueError as exc:
                unless_colliding(exc)
                continue
            done += 1
            recovered = parse_instruction(serialize(instr))
            assert recovered.boxes == instr.boxes
            assert [e.span[1] for e in recovered.entities] == [
                e.span[1] for e in instr.entities
            ]
            assert recovered.words == instr.words

    def test_block_token_kinds(self):
        instr = interleave("a cat", [("cat", BBox(1, 2, 3, 4))])
        assert instr.words == ("a", "cat")
        assert serialize(instr).split(" ") == ["a", "cat", "<|box|>1,2,3,4<|/box|>"]
