"""Grounded-record corpus I/O: line-delimited JSON records carrying a
caption plus dense object boxes, a synthetic generator for offline
tests, and corpus statistics.

Record line schema (version 1):

    {"v":1,"id":...,"image":...|null,"caption":...,
     "entities":[{"phrase":...,"attrs":{...},"box":[x1,y1,x2,y2]},...],
     "source":...}

Image references are opaque strings; pixel data is never loaded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import codec, wire
from .geometry import CANVAS, BBox

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RecordEntity:
    phrase: str
    attrs: Mapping[str, str] = field(default_factory=dict, kw_only=True)
    box: BBox


@dataclass(frozen=True)
class GroundedRecord:
    id: str
    # kw_only, here and in RecordEntity, keeps the fields in line order
    image: str | None = field(default=None, kw_only=True)
    caption: str
    entities: tuple[RecordEntity, ...]
    source: str = ""

    def validate(self) -> None:
        if not self.caption:
            raise ValueError("caption must be non-empty")
        words = codec.caption_words(self.caption)
        codec.locate_spans(words, [e.phrase for e in self.entities])


def record_to_dict(r: GroundedRecord) -> dict:
    return {"v": SCHEMA_VERSION, **wire.write(r)}


def record_from_dict(d: Mapping) -> GroundedRecord:
    fields = wire.read(Mapping[str, object], d, "record")
    version = fields.pop("v", None)
    record = wire.read(GroundedRecord, fields, "record")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    record.validate()
    return record


def load_records(path: str | Path) -> list[GroundedRecord]:
    """Read one record per line, validating every record; failures carry
    the 1-based line number."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return records


def save_records(path: str | Path, records: Iterable[GroundedRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(record_to_dict(r), ensure_ascii=False, separators=(",", ":")))
            f.write("\n")


_NOUNS = [
    "apple", "bench", "tree", "lamp", "mug", "sofa", "vase", "book",
    "chair", "ball", "hat", "drum", "kite", "shoe", "clock", "plant",
    "radio", "stool", "towel", "basket", "jar", "candle", "mirror", "rug",
]
_ADJS = ["red", "blue", "green", "yellow", "wooden", "small", "shiny", "striped"]


def synth_generate(seed: int, n: int, max_entities: int = 12) -> list[GroundedRecord]:
    """Deterministic synthetic corpus: template captions over a fixed
    noun vocabulary with guaranteed-locatable phrases and valid boxes."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if max_entities < 1:
        raise ValueError("max_entities must be >= 1")
    if max_entities > len(_NOUNS):
        raise ValueError(f"max_entities is capped at {len(_NOUNS)}")
    rng = random.Random(seed)
    records = []
    for i in range(n):
        k = rng.randint(1, max_entities)
        nouns = rng.sample(_NOUNS, k)
        entities = []
        phrases = []
        for noun in nouns:
            adj = rng.choice(_ADJS)
            phrase = f"{adj} {noun}"
            w = rng.randint(60, 400)
            h = rng.randint(60, 400)
            x1 = rng.randint(0, CANVAS - w)
            y1 = rng.randint(0, CANVAS - h)
            entities.append(
                RecordEntity(
                    phrase=phrase,
                    attrs={"category": noun, "color": adj},
                    box=BBox(x1, y1, x1 + w, y1 + h),
                )
            )
            phrases.append(f"a {phrase}")
        if k == 1:
            listing = phrases[0]
        else:
            listing = ", ".join(phrases[:-1]) + " and " + phrases[-1]
        record = GroundedRecord(
            id=f"synth-{seed:04d}-{i:05d}",
            caption=f"A scene with {listing}.",
            entities=tuple(entities),
            source="synthetic",
        )
        record.validate()
        records.append(record)
    return records


def record_to_instruction(r: GroundedRecord) -> codec.InterleavedInstruction:
    """Convert a record into its layout-augmented caption."""
    return codec.interleave(r.caption, [(e.phrase, e.box) for e in r.entities])


@dataclass(frozen=True)
class CorpusStats:
    count: int
    entity_histogram: dict[int, int]
    mean_caption_tokens: float
    many_entity_fraction: float  # records with more than 10 entities

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "entity_histogram": {str(k): v for k, v in sorted(self.entity_histogram.items())},
            "mean_caption_tokens": self.mean_caption_tokens,
            "many_entity_fraction": self.many_entity_fraction,
        }


def stats(records: Sequence[GroundedRecord]) -> CorpusStats:
    histogram: dict[int, int] = {}
    token_total = 0
    many = 0
    for r in records:
        k = len(r.entities)
        histogram[k] = histogram.get(k, 0) + 1
        token_total += len(codec.tokenize(r.caption))
        if k > 10:
            many += 1
    count = len(records)
    return CorpusStats(
        count=count,
        entity_histogram=histogram,
        mean_caption_tokens=token_total / count if count else 0.0,
        many_entity_fraction=many / count if count else 0.0,
    )
