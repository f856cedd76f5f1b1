"""Interleaved text-coordinate instruction codec.

An instruction is a caption whose grounded entity mentions are each
followed by a coordinate block. The canonical block grammar is

    <|box|>x1,y1,x2,y2<|/box|>

with four integers in [0, 1000] and no interior spaces. Spans are
1-based inclusive token indices into the caption token sequence.

Decoding binds every block to the single caption token immediately
preceding it; full multi-word span recovery is not attempted because the
serialized form does not mark span starts. Round trips therefore
preserve boxes and span end positions exactly, not phrase lengths.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .geometry import CANVAS, BBox
from .wire import Record, assign

BOX_OPEN = "<|box|>"
BOX_CLOSE = "<|/box|>"

_TRAILING_PUNCT = '.,;:!?"'
_BLOCK_RE = re.compile(r"<\|box\|>(.*?)<\|/box\|>", re.DOTALL)

_NOT_FOUND = "phrase not found in caption: {!r}"


class GroundedEntity(Record):
    """A caption phrase with its box and inclusive token span."""

    phrase: str
    box: BBox
    span: tuple[int, int]  # 1-based inclusive caption token indices

    def __init__(self, phrase, box, span):
        lo, hi = span
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid span {span} for {phrase!r}")
        assign(self, "phrase", phrase)
        assign(self, "box", box)
        assign(self, "span", span)


class InterleavedInstruction(Record):
    """Caption words plus entities in appearance order. The serialized
    text places each entity's coordinate block after word span[1].

    Span ends are non-decreasing and at most len(words); they tie where
    several blocks follow the same word.
    """

    words: tuple[str, ...]
    entities: tuple[GroundedEntity, ...]

    def __init__(self, words, entities=()):
        ends = [e.span[1] for e in entities]
        if ends != sorted(ends) or (ends and ends[-1] > len(words)):
            raise ValueError("entity span ends exceed the caption length")
        assign(self, "words", words)
        assign(self, "entities", entities)

    @property
    def caption(self) -> str:
        return detokenize(self.words)

    @property
    def boxes(self) -> list[BBox]:
        return [e.box for e in self.entities]


def tokenize(text: str) -> list[str]:
    """Whitespace split with trailing punctuation peeled into own tokens."""
    out: list[str] = []
    for chunk in text.split():
        if chunk[-1] not in _TRAILING_PUNCT:
            out.append(chunk)
            continue
        # A chunk of punctuation only keeps its first character as the word.
        word = chunk.rstrip(_TRAILING_PUNCT) or chunk[0]
        out.append(word)
        out.extend(chunk[len(word):])
    return out


def detokenize(tokens: Sequence[str]) -> str:
    """Inverse of tokenize up to whitespace normalization: punctuation
    tokens re-attach to the preceding token."""
    parts: list[str] = []
    for tok in tokens:
        if parts and len(tok) == 1 and tok in _TRAILING_PUNCT:
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


def caption_words(segment: str) -> list[str]:
    """tokenize(segment), raising ValueError if it holds a block marker."""
    if BOX_OPEN in segment or BOX_CLOSE in segment:
        raise ValueError(f"stray block marker near: {segment!r}")
    return tokenize(segment)


def locate_spans(tokens: Sequence[str], phrases: Sequence[str]) -> list[tuple[int, int]]:
    """Find each phrase as a token span (1-based inclusive).

    Phrases are matched case-sensitively at the leftmost occurrence whose
    tokens are not yet claimed by an earlier phrase, so repeated mentions
    resolve to successive occurrences. Returned spans are pairwise
    disjoint, aligned with the input phrase order.
    """
    tokens = list(tokens)
    claimed = [False] * len(tokens)
    spans: list[tuple[int, int]] = []
    for phrase in phrases:
        needle = tokenize(phrase)
        if not needle:
            raise ValueError(_NOT_FOUND.format(phrase))
        k = len(needle)
        stop = max(0, len(tokens) - k + 1)  # clamped: a negative stop counts from the end
        found = None
        occurred = False
        i = 0
        while found is None:
            try:
                i = tokens.index(needle[0], i, stop)
            except ValueError:
                break
            if tokens[i : i + k] == needle:
                occurred = True
                if not any(claimed[i : i + k]):
                    found = i
            i += 1
        if occurred and found is None:
            raise ValueError(f"every occurrence of {phrase!r} is already claimed")
        if found is None:
            raise ValueError(_NOT_FOUND.format(phrase))
        claimed[found : found + k] = [True] * k
        spans.append((found + 1, found + k))
    return spans


def interleave(
    caption: str,
    entities: Iterable[tuple[str, BBox]],
) -> InterleavedInstruction:
    """Attach each entity's coordinate block right after its mention.

    Entities are located via locate_spans and emitted in appearance
    order (strictly increasing span ends).
    """
    pairs = list(entities)
    words = caption_words(caption)
    spans = locate_spans(words, [p for p, _ in pairs])
    grounded = [
        GroundedEntity(phrase=p, box=b, span=s)
        for (p, b), s in zip(pairs, spans)
    ]
    grounded.sort(key=lambda e: e.span[1])
    return InterleavedInstruction(tuple(words), tuple(grounded))


def _parse_block_payload(payload: str) -> BBox:
    if BOX_OPEN in payload or BOX_CLOSE in payload:
        raise ValueError(f"nested block marker in payload: {payload!r}")
    parts = payload.split(",")
    if len(parts) != 4:
        raise ValueError(f"coordinate block must hold exactly 4 values: {payload!r}")
    coords = []
    for part in parts:
        part = part.strip()
        digits = part[1:] if part[:1] == "-" else part
        value = int(part) if part.isascii() and digits.isdigit() else -1
        if not 0 <= value <= CANVAS:
            raise ValueError(f"coordinate out of [0, {CANVAS}]: {part!r}")
        coords.append(value)
    return BBox.from_list(coords)


def parse_instruction(text: str) -> InterleavedInstruction:
    """Decode serialized instruction text back into an instruction: each
    coordinate block's box binds to the caption word just before it. The
    text between blocks must hold no block marker."""
    words: list[str] = []
    entities: list[GroundedEntity] = []
    cursor = 0
    for m in _BLOCK_RE.finditer(text):
        words.extend(caption_words(text[cursor : m.start()]))
        cursor = m.end()
        if not words:
            raise ValueError("coordinate block with no preceding token")
        pos = len(words)
        entities.append(GroundedEntity(words[-1], _parse_block_payload(m.group(1)), (pos, pos)))
    words.extend(caption_words(text[cursor:]))
    return InterleavedInstruction(tuple(words), tuple(entities))


def parse(text: str) -> tuple[str, list[GroundedEntity]]:
    """Decode instruction text into (caption, entities)."""
    instr = parse_instruction(text)
    return instr.caption, list(instr.entities)


def serialize(instruction: InterleavedInstruction) -> str:
    """Canonical text form: single-space-joined words, each entity's
    coordinate block rendered as one chunk with no interior spaces right
    after its span end."""
    chunks = list(instruction.words)
    for e in reversed(instruction.entities):
        chunks.insert(e.span[1], block(e.box))
    return " ".join(chunks)


def block(box: BBox) -> str:
    """The coordinate block of box: ``<|box|>x1,y1,x2,y2<|/box|>``."""
    return BOX_OPEN + ",".join(map(str, box.as_list())) + BOX_CLOSE
