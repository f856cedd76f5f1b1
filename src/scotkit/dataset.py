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
import os
import pickle
import random
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import codec, wire
from .geometry import CANVAS, BBox
from .wire import Record, assign

SCHEMA_VERSION = 1


class RecordEntity(Record):
    phrase: str
    attrs: Mapping[str, str]
    box: BBox

    def __init__(self, phrase, box, *, attrs=None):
        assign(self, "phrase", phrase)
        assign(self, "attrs", {} if attrs is None else attrs)
        assign(self, "box", box)


class GroundedRecord(Record):
    # fields in line order; image, like RecordEntity's attrs, is a
    # keyword-only parameter, as it sits before required fields
    id: str
    image: str | None
    caption: str
    entities: tuple[RecordEntity, ...]
    source: str

    def __init__(self, id, caption, entities, source="", *, image=None):
        if not caption:
            raise ValueError("caption must be non-empty")
        codec.locate_spans(codec.caption_words(caption), [e.phrase for e in entities])
        assign(self, "id", id)
        assign(self, "image", image)
        assign(self, "caption", caption)
        assign(self, "entities", entities)
        assign(self, "source", source)


def record_to_dict(r: GroundedRecord) -> dict:
    return {"v": SCHEMA_VERSION, **wire.write(r)}


def record_from_dict(d: Mapping) -> GroundedRecord:
    fields = wire.read(Mapping[str, object], d, "record")
    version = fields.pop("v", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    return wire.read(GroundedRecord, fields, "record")


def record_json(r: GroundedRecord) -> str:
    """The record's line in a records file, without its newline."""
    return json.dumps(record_to_dict(r), ensure_ascii=False, separators=(",", ":"))


def numbered_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """The non-blank lines with their 1-based line numbers."""
    return [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]


def record_lines(path: str | Path) -> list[tuple[int, str]]:
    """A records file's non-blank lines, split at "\n" only (a caption may hold U+2028)."""
    with open(path, encoding="utf-8") as f:
        return numbered_lines(f)


def read_line(lineno: int, line: str) -> GroundedRecord:
    """One validated record from one line; an error names the line."""
    try:
        return record_from_dict(wire.loads(line.strip()))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def load_records(path: str | Path) -> list[GroundedRecord]:
    """Read one record per line, validating every record; failures carry
    the 1-based line number."""
    return [read_line(n, line) for n, line in record_lines(path)]


def map_records(fn: Callable[[GroundedRecord], object], path: str | Path) -> list:
    """[fn(r) for r in load_records(path)], run by `fan_out`."""
    return fan_out(lambda start, lines: [fn(read_line(n, line)) for n, line in lines],
                   record_lines(path))


def fan_out(work: Callable[[int, list], list], lines: list[tuple[int, object]]) -> list:
    """work(start, lines[start:stop]) over one contiguous share of the numbered
    `lines` per CPU this process may use, joined in order. Shares after the first
    run in forked children, which pickle their results back. Each share stops at
    its first error; the lowest share's is raised, as work(0, lines) would raise it."""
    workers = min(len(os.sched_getaffinity(0)), len(lines))
    if workers <= 1:
        return work(0, lines)
    bounds = [len(lines) * i // workers for i in range(workers + 1)]
    children = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(work, lines, start, stop, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd, start, stop))
        results = work(0, lines[:bounds[1]])
        while children:
            pid, read_fd, start, stop = children.pop(0)
            data, status = _join(pid, read_fd)
            if status:  # a child exits 0 only after it has sent its whole result
                raise OSError(f"worker for lines {lines[start][0]}-{lines[stop - 1][0]} "
                              f"ended without a result (wait status {status})")
            share, error = pickle.loads(data)
            if error is not None:
                raise error
            results += share
        return results
    finally:
        for pid, read_fd, _, _ in children:
            _join(pid, read_fd)


def _run_child(work, lines, start: int, stop: int, write_fd: int) -> None:
    """A forked child's body: it never returns or flushes inherited stdio."""
    status = 1
    try:
        try:
            result = (work(start, lines[start:stop]), None)
        except Exception as exc:
            result = (None, exc)
        with open(write_fd, "wb") as f:
            pickle.dump(result, f, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, read_fd: int) -> tuple[bytes, int]:
    """A child's output, read to EOF before it is reaped, and its wait status."""
    with open(read_fd, "rb") as f:
        return f.read(), os.waitpid(pid, 0)[1]


def save_records(path: str | Path, records: Iterable[GroundedRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(record_json(r))
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
        records.append(GroundedRecord(
            id=f"synth-{seed:04d}-{i:05d}",
            caption=f"A scene with {listing}.",
            entities=tuple(entities),
            source="synthetic",
        ))
    return records


def record_to_instruction(r: GroundedRecord) -> codec.InterleavedInstruction:
    """Convert a record into its layout-augmented caption."""
    return codec.interleave(r.caption, [(e.phrase, e.box) for e in r.entities])


def record_counts(r: GroundedRecord) -> tuple[int, int]:
    """(entities, caption tokens): what `summarize` reads of a record."""
    return len(r.entities), len(codec.tokenize(r.caption))


def stats(records: Sequence[GroundedRecord]) -> dict:
    return summarize([record_counts(r) for r in records])


def summarize(counts: Sequence[tuple[int, int]]) -> dict:
    """The corpus statistics `scot dataset stats` prints, from each
    record's `record_counts`; histogram keys are entity counts in
    ascending order, as strings."""
    histogram: dict[int, int] = {}
    token_total = many = 0
    for k, tokens in counts:
        histogram[k] = histogram.get(k, 0) + 1
        token_total += tokens
        many += k > 10
    count = len(counts)
    return {
        "count": count,
        "entity_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "mean_caption_tokens": token_total / count if count else 0.0,
        "many_entity_fraction": many / count if count else 0.0,  # records with > 10 entities
    }
