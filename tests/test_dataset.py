"""Tests for grounded-record I/O, synthesis, and corpus statistics."""

import json
import re

import pytest

from scotkit import codec
from scotkit.dataset import (
    GroundedRecord,
    RecordEntity,
    load_records,
    record_to_instruction,
    save_records,
    stats,
    synth_generate,
)
from scotkit.geometry import BBox


def make_record(n_entities: int, rid: str = "r1") -> GroundedRecord:
    nouns = ["apple", "bench", "tree", "lamp", "mug", "sofa", "vase", "book",
             "chair", "ball", "hat", "drum"][:n_entities]
    listing = ", ".join(f"a {n}" for n in nouns) if nouns else "nothing"
    entities = tuple(
        RecordEntity(phrase=n, attrs={"category": n}, box=BBox(i * 50, 0, i * 50 + 40, 40))
        for i, n in enumerate(nouns)
    )
    return GroundedRecord(
        id=rid, caption=f"A scene with {listing}.", entities=entities, source="test"
    )


class TestIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_records(path) == []

    def test_save_load_round_trip(self, tmp_path):
        records = synth_generate(seed=0, n=100, max_entities=12)
        path = tmp_path / "corpus.jsonl"
        save_records(path, records)
        assert load_records(path) == records

    def test_invalid_box_reports_line(self, tmp_path):
        good = {
            "v": 1, "id": "a", "image": None,
            "caption": "a cat",
            "entities": [{"phrase": "cat", "attrs": {}, "box": [0, 0, 10, 10]}],
            "source": "t",
        }
        bad = dict(good, entities=[{"phrase": "cat", "attrs": {}, "box": [0, 0, 0, 10]}])
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"^line 2: need 0 <= xmin < xmax <= 1000, got \[0, 0, 0, 10\]$"):
            load_records(path)

    def test_unparseable_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="^line 1: Expecting property name enclosed in double quotes"):
            load_records(path)

    def test_block_marker_in_caption_reports_line(self, tmp_path):
        good = make_record(1)
        bad = {"v": 1, "id": "r2", "caption": "a <|box|> apple",
               "entities": [{"phrase": "apple", "box": [0, 0, 10, 10]}]}
        path = tmp_path / "marker.jsonl"
        save_records(path, [good])
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"^line 2: stray block marker") as exc:
            load_records(path)
        cause = exc.value.__cause__
        assert (type(cause), str(cause)) == (ValueError, "stray block marker near: 'a <|box|> apple'")

    @pytest.mark.parametrize("version", [1.0, True, 2, "1", None])
    def test_schema_version_must_be_the_integer_1(self, version, tmp_path):
        doc = {"v": version, "id": "a", "caption": "a cat",
               "entities": [{"phrase": "cat", "box": [0, 0, 10, 10]}]}
        if version is None:
            del doc["v"]
        path = tmp_path / "version.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match=rf"^line 1: unsupported schema version {re.escape(repr(version))}$"):
            load_records(path)

    def test_unlocatable_phrase_rejected(self, tmp_path):
        doc = {
            "v": 1, "id": "a", "image": None,
            "caption": "a cat",
            "entities": [{"phrase": "dog", "attrs": {}, "box": [0, 0, 10, 10]}],
            "source": "t",
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="^line 1: phrase not found in caption: 'dog'$"):
            load_records(path)


class TestGroundedRecordChecksItself:
    """A record that could not be read back cannot be built."""

    @pytest.mark.parametrize("caption, phrase, message", [
        ("", None, "caption must be non-empty"),
        ("a <|box|> cat", "cat", "stray block marker near: 'a <|box|> cat'"),
        ("a dog", "cat", "phrase not found in caption: 'cat'"),
    ])
    def test_invalid_record_raises_its_message(self, caption, phrase, message):
        entities = () if phrase is None else (RecordEntity(phrase, box=BBox(0, 0, 10, 10)),)
        with pytest.raises(ValueError) as exc:
            GroundedRecord("r", caption, entities)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_no_record_class_has_a_validate_method(self):
        assert not hasattr(GroundedRecord, "validate")
        assert not hasattr(RecordEntity, "validate")


class TestSynthGenerate:
    def test_zero_records(self):
        assert synth_generate(seed=0, n=0) == []

    def test_hundred_records_all_interleave(self):
        records = synth_generate(seed=0, n=100, max_entities=12)
        assert len(records) == 100
        for r in records:
            instr = record_to_instruction(r)
            assert len(instr.entities) == len(r.entities)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_records(a, synth_generate(seed=7, n=50, max_entities=8))
        save_records(b, synth_generate(seed=7, n=50, max_entities=8))
        assert a.read_bytes() == b.read_bytes()

    def test_entity_count_bounds(self):
        records = synth_generate(seed=0, n=300, max_entities=15)
        counts = {len(r.entities) for r in records}
        assert counts <= set(range(1, 16))

    def test_max_entities_validation(self):
        with pytest.raises(ValueError):
            synth_generate(seed=0, n=1, max_entities=0)


class TestRecordToInstruction:
    def test_no_entities(self):
        r = GroundedRecord(id="x", caption="an empty room", entities=(), source="t")
        instr = record_to_instruction(r)
        assert instr.entities == () and instr.caption == "an empty room"

    def test_two_entities_two_blocks(self):
        r = GroundedRecord(
            id="x",
            caption="A wooden table with a severely rotten apple",
            entities=(
                RecordEntity("table", attrs={}, box=BBox(128, 120, 968, 920)),
                RecordEntity("apple", attrs={}, box=BBox(376, 336, 744, 696)),
            ),
            source="t",
        )
        instr = record_to_instruction(r)
        assert codec.serialize(instr).count("<|box|>") == 2

    def test_boxes_preserved(self):
        for r in synth_generate(seed=3, n=20, max_entities=6):
            instr = record_to_instruction(r)
            assert instr.boxes == [e.box for e in r.entities]


class TestStats:
    def test_empty(self):
        assert stats([]) == {"count": 0, "entity_histogram": {},
                             "mean_caption_tokens": 0.0, "many_entity_fraction": 0.0}

    def test_histogram_and_fraction(self):
        records = [make_record(1, "a"), make_record(1, "b"), make_record(11, "c")]
        s = stats(records)
        assert list(s) == ["count", "entity_histogram", "mean_caption_tokens", "many_entity_fraction"]
        assert list(s["entity_histogram"].items()) == [("1", 2), ("11", 1)]
        assert s["many_entity_fraction"] == pytest.approx(1 / 3)

    def test_synth_histogram_support(self):
        s = stats(synth_generate(seed=0, n=1000, max_entities=15))
        keys = [int(k) for k in s["entity_histogram"]]
        assert keys == sorted(keys) and set(keys) <= set(range(1, 16))
        assert s["count"] == 1000
