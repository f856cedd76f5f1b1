"""Property tests over every registered constraint kind: wire round trip,
the objective's zero set, and the entity-id contract incremental repair
relies on (a kind's violations and moves touch only its entity_ids(),
unless it watches_all). Also the codec round trip: whatever
`interleave` builds, or a planner output's instruction, parses back from
its serialized text, and a planner output reads back from what it
writes; repair never raises the objective, and decides every
candidate as a full rescore would; IoU is a
symmetric similarity in [0, 1] that is 1 for a box with itself;
`place` turns any finite centre and size into a canvas box of that size
to within half a unit;
`tokenize` and `locate_spans` return what their loop versions return,
or raise the same error; scene specs and grounded records read back
from what they write, a scene phrase that is blank, spans lines or
holds a marker is rejected, and so is a record that would not read
back; and a JSON input with one field of the wrong type, or one field
missing, fails with a ValueError and nothing else."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scotkit import codec, wire
from scotkit.client import ClientConfig
from scotkit.dataset import GroundedRecord, RecordEntity, record_from_dict, record_to_dict
from scotkit.planner import (
    SIZE_CLASSES, EntitySpec, PlannerOutputError, SceneSpec, parse_planner_output, repair,
    spec_from_dict, to_instruction,
)
from scotkit.constraints import (
    KINDS,
    Above,
    AdjacentTo,
    AlignedCol,
    AlignedRow,
    Below,
    Constraint,
    Contains,
    CountEquals,
    Grid,
    LeftOf,
    NonOverlap,
    RightOf,
    check,
    total_magnitude,
)
from scotkit.geometry import CANVAS, BBox, iou, place

from conftest import planner_output

PROPERTY = settings(derandomize=True, deadline=None)

IDS = ("a", "b", "c", "d", "e")
CATEGORIES = ("apple", "bench", "tree")

ids = st.sampled_from(IDS)
tolerances = st.floats(min_value=0, max_value=60, allow_nan=False)
groups = st.lists(ids, min_size=2, max_size=4).map(tuple)


@st.composite
def boxes(draw):
    x1 = draw(st.integers(0, 990))
    y1 = draw(st.integers(0, 990))
    return BBox(x1, y1, draw(st.integers(x1 + 1, 1000)), draw(st.integers(y1 + 1, 1000)))


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    assigned = draw(st.lists(ids, unique=True, max_size=3))
    return Grid(
        rows,
        cols,
        tuple((eid, draw(cells)) for eid in assigned),
        tuple(draw(st.lists(cells, max_size=2))),
    )


def _pair(cls):
    """Two different ids, which every pair kind but Contains requires."""
    distinct = st.lists(ids, min_size=2, max_size=2, unique=True)
    return st.builds(lambda ab, tol: cls(*ab, tol), distinct, tolerances)


KIND_STRATEGIES = {
    LeftOf: _pair(LeftOf),
    RightOf: _pair(RightOf),
    Above: _pair(Above),
    Below: _pair(Below),
    Contains: st.builds(Contains, ids, ids, tolerances),
    NonOverlap: _pair(NonOverlap),
    AdjacentTo: _pair(AdjacentTo),
    AlignedRow: st.builds(AlignedRow, groups, tolerances),
    AlignedCol: st.builds(AlignedCol, groups, tolerances),
    CountEquals: st.builds(CountEquals, st.sampled_from(CATEGORIES), st.integers(0, 4)),
    Grid: grids(),
}
constraints = st.one_of(*KIND_STRATEGIES.values())
layouts = st.fixed_dictionaries({eid: boxes() for eid in IDS})
categories = st.fixed_dictionaries({eid: st.sampled_from(CATEGORIES) for eid in IDS})


def test_every_registered_kind_has_a_strategy():
    assert set(KIND_STRATEGIES) == set(KINDS.values())


@PROPERTY
@given(constraints)
def test_wire_round_trip(c):
    assert Constraint.from_wire(json.loads(json.dumps(c.to_wire())), "constraint record") == c


@PROPERTY
@given(layouts, categories, st.lists(constraints, max_size=6))
def test_total_magnitude_is_zero_exactly_when_nothing_is_violated(layout, cats, cs):
    assert (total_magnitude(layout, cats, cs) == 0) == (check(layout, cats, cs) == [])


@PROPERTY
@given(constraints, layouts, categories, ids, boxes())
def test_moving_an_unwatched_box_leaves_violations_unchanged(c, layout, cats, eid, box):
    assume(eid not in c.entity_ids() and not c.watches_all)
    moved = {**layout, eid: box}
    assert c.violations(moved, cats) == c.violations(layout, cats)


@PROPERTY
@given(constraints, layouts, categories, st.floats(min_value=0.01, max_value=1.0))
def test_moves_touch_only_entity_ids(c, layout, cats, step):
    assume(not c.watches_all)
    for v in c.violations(layout, cats):
        assert set(c.moves(v.magnitude, layout, step)) <= set(c.entity_ids())


@PROPERTY
@given(layouts, categories, st.lists(constraints, max_size=6), st.integers(1, 20))
def test_repair_never_raises_total_magnitude(layout, cats, cs, max_iters):
    spec = SceneSpec(tuple(EntitySpec(eid, eid, cats[eid]) for eid in IDS), tuple(cs))
    result = repair(layout, spec, max_iters=max_iters)
    assert total_magnitude(result.boxes, cats, cs) <= total_magnitude(layout, cats, cs)


def full_rescore_repair(boxes, spec, max_iters, step_start):
    """Repair as its docstring states it, caching nothing: each candidate
    is scored by a full total_magnitude, and every sweep runs.
    Returns (boxes, iterations, residual, objective trace)."""
    current, cats, cs = dict(boxes), spec.categories, spec.constraints
    total = total_magnitude(current, cats, cs)
    trace, iterations, step = [total], 0, step_start
    while total > 0 and iterations < max_iters:
        iterations += 1
        for c in cs:
            for v in c.violations(current, cats):
                candidate = {**current, **c.moves(v.magnitude, current, step)}
                new_total = total_magnitude(candidate, cats, cs)
                if new_total < total:
                    current, total = candidate, new_total
                    trace.append(total)
        step = max(0.05, step * 0.95)
    return current, iterations, check(current, cats, cs), trace


@PROPERTY
@given(layouts, categories, st.lists(constraints, max_size=8),
       grids().filter(lambda g: g.empty_cells), st.integers(0, 8), st.integers(0, 40),
       st.sampled_from([0.5, 0.2, 0.03]))
def test_repair_decides_as_a_full_rescore_of_every_candidate(layout, cats, cs, grid, at,
                                                            max_iters, step_start):
    cs = cs[:at] + [grid] + cs[at:]  # a Grid with an empty cell watches every box
    spec = SceneSpec(tuple(EntitySpec(eid, eid, cats[eid]) for eid in IDS), tuple(cs))
    trace: list[float] = []
    result = repair(layout, spec, max_iters=max_iters, step_start=step_start, _trace=trace)
    assert (result.boxes, result.iterations, list(result.residual), trace) == (
        full_rescore_repair(layout, spec, max_iters, step_start))


@PROPERTY
@given(boxes(), boxes())
def test_iou_is_symmetric_and_in_unit_interval(a, b):
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(finite, finite, finite, finite)
def test_place_returns_a_canvas_box_within_half_a_unit_of_the_clamped_size(cx, cy, w, h):
    b = place(cx, cy, w, h)
    assert abs(b.width - min(max(w, 1.0), CANVAS)) <= 0.5
    assert abs(b.height - min(max(h, 1.0), CANVAS)) <= 0.5


@PROPERTY
@given(boxes())
def test_iou_of_a_box_with_itself_is_one(a):
    assert iou(a, a) == 1.0


# plain words, punctuation that tokenize peels, and words holding block
# markers, which no instruction may carry as caption text
CAPTION_WORDS = (
    "a", "cat", "red", "mat", "on", "cat.", "mat,", "!", "<|box|>", "x<|/box|>", "<|box|",
)
words = st.lists(st.sampled_from(CAPTION_WORDS), max_size=8)


def assert_round_trips(instr: codec.InterleavedInstruction) -> None:
    text = codec.serialize(instr)
    back = codec.parse_instruction(text)
    assert back.words == instr.words
    assert back.boxes == instr.boxes
    assert [e.span[1] for e in back.entities] == [e.span[1] for e in instr.entities]
    assert codec.serialize(back) == text


@PROPERTY
@given(words, st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3), boxes()), max_size=3))
def test_interleave_output_round_trips(caption_words, picks):
    pairs = [
        (" ".join(caption_words[start : start + length]), box)
        for start, length, box in picks
        if start < len(caption_words)
    ]
    try:
        instr = codec.interleave(" ".join(caption_words), pairs)
    except ValueError:
        return
    assert_round_trips(instr)


@PROPERTY
@given(st.lists(st.tuples(words, st.integers(0, 2)), max_size=4), st.lists(boxes(), min_size=8))
def test_substituted_output_round_trips(segments, pool):
    prompt, objects = "", {}
    for segment, n_placeholders in segments:
        prompt += " " + " ".join(segment)
        for _ in range(n_placeholders):
            objects[len(objects) + 1] = pool[len(objects)]
            prompt += f"<|bbox_{len(objects)}|>"
    try:
        out = planner_output(prompt, objects)
    except PlannerOutputError:
        return
    assert parse_planner_output(json.dumps(out.to_dict())) == out
    assert_round_trips(to_instruction(out))


# --- tokenize and locate_spans against their loop versions ---------------

ORACLE_PUNCT = set('.,;:!?"')


def oracle_tokenize(text: str) -> list[str]:
    """codec.tokenize as it was written before the one-pass version."""
    out: list[str] = []
    for chunk in text.split():
        tail: list[str] = []
        while len(chunk) > 1 and chunk[-1] in ORACLE_PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        out.append(chunk)
        out.extend(reversed(tail))
    return out


def oracle_locate_spans(tokens, phrases):
    """codec.locate_spans as it was written before the index scan."""
    claimed = [False] * len(tokens)
    spans: list[tuple[int, int]] = []
    for phrase in phrases:
        needle = oracle_tokenize(phrase)
        if not needle:
            raise ValueError(f"phrase not found in caption: {phrase!r}")
        k = len(needle)
        found = None
        occurred = False
        for i in range(len(tokens) - k + 1):
            if list(tokens[i : i + k]) != needle:
                continue
            occurred = True
            if not any(claimed[i : i + k]):
                found = i
                break
        if found is None:
            raise ValueError(f"every occurrence of {phrase!r} is already claimed" if occurred
                             else f"phrase not found in caption: {phrase!r}")
        for j in range(found, found + k):
            claimed[j] = True
        spans.append((found + 1, found + k))
    return spans


def outcome(call, *args):
    """The value returned, or the class and message of the error raised."""
    try:
        return call(*args)
    except Exception as exc:  # what is compared is the class and message
        return type(exc), str(exc)


# words, each trailing punctuation character, punctuation-only chunks and
# words with punctuation before, inside and after them
CHUNKS = (
    "a", "cat", "mat", "red", ".", ",", ";", ":", "!", "?", '"', "...", '"!', "?!.",
    "cat.", "mat,", '"stop!"', "a.b", "x;:",
)
chunk_lists = st.lists(st.sampled_from(CHUNKS), max_size=10)


@settings(PROPERTY, max_examples=500)
@given(chunk_lists, st.sampled_from([" ", "  ", "\t"]), st.booleans(), st.lists(
    st.one_of(st.tuples(st.integers(0, 11), st.integers(0, 4)), chunk_lists), max_size=5,
))
def test_tokenize_and_locate_spans_match_their_loop_versions(chunks, sep, as_tuple, picks):
    caption = sep.join(chunks)
    tokens = codec.tokenize(caption)
    assert tokens == oracle_tokenize(caption)
    # a pick is a slice of the caption's tokens (repeats and overlaps,
    # possibly empty or running off the end) or chunks of its own (often
    # absent, sometimes longer than the caption)
    phrases = [
        " ".join(tokens[p[0] : p[0] + p[1]]) if isinstance(p, tuple) else " ".join(p)
        for p in picks
    ]
    for phrase in phrases:
        assert codec.tokenize(phrase) == oracle_tokenize(phrase)
    if as_tuple:
        tokens = tuple(tokens)
    assert outcome(codec.locate_spans, tokens, phrases) == outcome(
        oracle_locate_spans, tokens, phrases
    )


# --- JSON records --------------------------------------------------------

text = st.text(max_size=6)
attrs = st.dictionaries(text, text, max_size=3)


# a phrase is one line with some non-space text (too short for a marker)
# that does not end in trailing punctuation; an invalid one is blank, or
# holds a newline, block marker or placeholder
phrases = text.filter(lambda p: p.strip() and "\n" not in p and p.rstrip()[-1] not in '.,;:!?"')
invalid_phrases = st.text(" \t\r", max_size=3) | st.builds(
    lambda a, mark, b: a + mark + b, text, st.sampled_from(["\n", "<|box|>", "<|/box|>", "<|bbox_"]), text)


@st.composite
def scenes(draw):
    entities = tuple(
        EntitySpec(eid, draw(phrases), draw(text), draw(attrs), draw(st.sampled_from(SIZE_CLASSES)))
        for eid in IDS
    )
    return SceneSpec(entities, tuple(draw(st.lists(constraints, max_size=4))), draw(st.none() | text))


@st.composite
def records(draw):
    """A record whose caption is its phrases, in order, then some other
    text, so each phrase is found at its own place (or earlier)."""
    entities = tuple(draw(st.lists(
        st.builds(RecordEntity, text.filter(str.split), attrs=attrs, box=boxes()), max_size=3)))
    others = draw(st.lists(text.filter(bool), min_size=1, max_size=2))
    caption = " ".join([e.phrase for e in entities] + others)
    return GroundedRecord(draw(text), caption, entities, draw(text), image=draw(st.none() | text))


def invalid_edits(caption):
    """(caption, extra entities, message) of three invalid records made from
    a valid record's caption; its words are at most 6 characters long, so
    "unfound" is never found."""
    marked = caption + " <|/box|>"
    return [("", (), "caption must be non-empty"),
            (marked, (), f"stray block marker near: {marked!r}"),
            (caption, (RecordEntity("unfound", box=BBox(0, 0, 9, 9)),),
             "phrase not found in caption: 'unfound'")]


def through_json(doc):
    return json.loads(json.dumps(doc))


@PROPERTY
@given(scenes(), invalid_phrases)
def test_scene_spec_reads_back_what_it_writes(spec, invalid_phrase):
    assert wire.read(SceneSpec, through_json(wire.write(spec)), "scene") == spec
    assert spec_from_dict(through_json(wire.write(spec))) == spec
    doc = through_json(wire.write(spec))
    doc["entities"][0]["phrase"] = invalid_phrase
    with pytest.raises(ValueError) as info:
        spec_from_dict(doc)
    assert str(info.value) == ("phrase must be one line of text with no block marker "
                               f"or placeholder, got {invalid_phrase!r}")


@PROPERTY
@given(records(), st.sampled_from(range(3)))
def test_grounded_record_reads_back_what_it_writes(record, which):
    assert wire.read(GroundedRecord, through_json(wire.write(record)), "record") == record
    caption, extra, message = invalid_edits(record.caption)[which]
    with pytest.raises(ValueError) as info:
        GroundedRecord(record.id, caption, record.entities + extra, record.source)
    assert str(info.value) == message


_CELLS = Grid(2, 2, (("a", (0, 1)), ("b", (1, 0))), ((1, 1),))
VALID_CONSTRAINTS = (
    LeftOf("a", "b", 5.0), RightOf("b", "a"), Above("a", "c", 1.5), Below("c", "a"),
    Contains("c", "a", 2.0), NonOverlap("a", "b", 0.5), AdjacentTo("a", "b", 4.0),
    AlignedRow(("a", "b"), 3.0), AlignedCol(("a", "c")), CountEquals("cat", 2), _CELLS,
)
VALID_SCENE = wire.write(SceneSpec(
    (EntitySpec("a", "red cat", "cat", {"color": "red"}, "small"),
     EntitySpec("b", "mat", "mat"),
     EntitySpec("c", "room", "room", size="background")),
    VALID_CONSTRAINTS,
    "in a room",
))
VALID_RECORD = record_to_dict(GroundedRecord(
    "r1",
    "a red cat on a mat",
    (RecordEntity("red cat", attrs={"category": "cat"}, box=BBox(1, 2, 30, 40)),
     RecordEntity("mat", box=BBox(0, 30, 90, 60))),
    "test",
    image="img-1.png",
))
VALID_CONFIG = {
    "base_url": "http://localhost:9", "model_name": "m", "api_key_env_var": "KEY",
    "temperature": 0.2, "timeout": 5.0, "max_retries": 2, "max_in_flight": 4,
}
READERS = [
    (spec_from_dict, VALID_SCENE),
    (record_from_dict, VALID_RECORD),
    (lambda doc: wire.read(ClientConfig, doc, "client config"), VALID_CONFIG),
] + [(lambda doc: Constraint.from_wire(doc, "constraint record"), c.to_wire())
      for c in VALID_CONSTRAINTS]


def _paths(doc, prefix=()):
    """Every position in a JSON document: the root, each object key and
    each list index, at any depth."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


POSITIONS = [(read, doc, path) for read, doc in READERS for path in _paths(doc)]
# one JSON value of each type, and "drop" for leaving the field out
REPLACEMENTS = (None, True, 7, 2.5, "x", [1], {"k": "v"}, "drop")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_valid_inputs_read():
    for read, doc in READERS:
        read(through_json(doc))


@settings(PROPERTY, max_examples=400)
@given(st.sampled_from(POSITIONS), st.sampled_from(REPLACEMENTS))
def test_wrong_type_or_missing_field_raises_only_a_value_error(position, replacement):
    read, doc, path = position
    doc = through_json(doc)
    original = _at(doc, path)
    if replacement == "drop":
        assume(path and isinstance(path[-1], str))
        del _at(doc, path[:-1])[path[-1]]
    elif path:
        _at(doc, path[:-1])[path[-1]] = replacement
    else:
        doc = replacement
    # null may be allowed, an int is a number, and a dropped field may
    # have a default; any other change of JSON type must be refused
    must_fail = replacement not in (None, "drop") and original is not None and (
        type(replacement) is not type(original)
        and not (type(original) is float and type(replacement) is int)
    )
    try:
        read(doc)
    except ValueError:
        return
    assert not must_fail, f"{path} = {replacement!r} was accepted"
