"""Tests for the JSON record reader and writer, for the module boundary
that keeps each format rule in one place, for runtime checks that
`python -O` cannot strip, and for the declared dependencies."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Mapping

import pytest

import scotkit
from scotkit import codec, constraints, dataset, flowmatch, metrics, planner, wire
from scotkit.client import ClientConfig
from scotkit.constraints import Cell, Constraint, Grid
from scotkit.geometry import BBox
from scotkit.planner import spec_from_dict

SRC = Path(scotkit.__file__).parent


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1.0", None])
def test_float_is_a_finite_number_and_never_a_bool(value):
    with pytest.raises(ValueError, match="temperature must be a finite number"):
        wire.read(ClientConfig, {"base_url": "u", "model_name": "m", "temperature": value}, "config")


@pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000, b'{"a":' * 100_000],
                         ids=["array str", "object bytes"])
def test_json_nested_too_deeply_is_a_value_error(text):
    with pytest.raises(ValueError, match="^JSON nested too deeply to parse$"):
        wire.loads(text)


def test_an_int_reads_as_a_float():
    config = wire.read(ClientConfig, {"base_url": "u", "model_name": "m", "timeout": 3}, "config")
    assert type(config.timeout) is float and config.timeout == 3.0


def test_missing_field_is_named():
    with pytest.raises(ValueError, match="missing field 'id' in entities"):
        spec_from_dict({"entities": [{"phrase": "cat"}]})


def test_a_mapping_value_is_named_by_its_key():
    with pytest.raises(ValueError, match=r"attrs 'color' must be a string, got \['red'\]"):
        spec_from_dict({"entities": [{"id": "a", "phrase": "cat", "attrs": {"color": ["red"]}}]})
    with pytest.raises(ValueError, match="boxes 'b' must be a list, got 5"):
        wire.read(Mapping[str, BBox], {"a": [0, 0, 1, 1], "b": 5}, "boxes")


def test_keys_that_are_not_fields_are_rejected():
    with pytest.raises(ValueError, match="unknown field 'constraint' in scene"):
        spec_from_dict({"entities": [], "constraint": []})
    with pytest.raises(ValueError, match="unknown field 'note' in entities"):
        spec_from_dict({"entities": [{"id": "a", "phrase": "cat", "note": 1}]})
    with pytest.raises(ValueError, match="unknown field 'margn' in constraint record"):
        Constraint.from_wire(
            {"kind": "left_of", "a": "a", "b": "b", "margn": 1}, "constraint record"
        )


def test_grid_pairs_are_an_object_and_cells_are_lists():
    grid = Grid(2, 2, (("a", (0, 1)),), ((1, 1),))
    doc = wire.write(grid)
    assert doc == {"rows": 2, "cols": 2, "assignments": {"a": [0, 1]}, "empty_cells": [[1, 1]]}
    back = wire.read(Grid, doc, "grid")
    assert back == grid and back.assignments[0][1] == Cell(0, 1)


def test_constraint_errors_stay_constraint_errors():
    with pytest.raises(ValueError, match="margin must be a finite number"):
        Constraint.from_wire(
            {"kind": "left_of", "a": "a", "b": "b", "margin": float("inf")}, "constraint record"
        )
    with pytest.raises(ValueError, match="left_of needs two different ids"):
        Constraint.from_wire({"kind": "left_of", "a": "a", "b": "a"}, "constraint record")


_BOX = BBox(1, 2, 30, 40)
_ENTITY = dataset.RecordEntity("red cat", _BOX, attrs={"category": "cat"})
# (class, args, kwargs, its fields in declared order, whether wire writes it
# as an object, which holds its fields in that order; a box is a list)
RECORDS = [
    (BBox, (1, 2, 30, 40), {}, "xmin ymin xmax ymax", False),
    (constraints.Violation, (constraints.LeftOf("a", "b"), 1.5, "a left of b: centers off by 1.5"), {},
     "constraint magnitude message", True),
    *[(kind, ("a", "b", 2.0), {}, f"a b {tolerance}", True) for kind, tolerance in [
        (constraints.LeftOf, "margin"), (constraints.RightOf, "margin"), (constraints.Above, "margin"),
        (constraints.Below, "margin"), (constraints.NonOverlap, "epsilon"),
        (constraints.AdjacentTo, "max_gap")]],
    (constraints.Contains, ("a", "b", 2.0), {}, "outer inner margin", True),
    (constraints.AlignedRow, (("a", "b"), 1.0), {}, "ids tol", True),
    (constraints.AlignedCol, (("a", "b"), 1.0), {}, "ids tol", True),
    (constraints.CountEquals, ("cat", 2), {}, "category count", True),
    (Grid, (2, 2, (("a", Cell(0, 1)),), (Cell(1, 1),)), {}, "rows cols assignments empty_cells", True),
    (planner.EntitySpec, ("a", "red cat", "cat", {"color": "red"}, "small"), {},
     "id phrase category attrs size", True),
    (planner.SceneSpec, ((planner.EntitySpec("a", "cat"), planner.EntitySpec("b", "dog")),
                         (constraints.LeftOf("a", "b"),), "at dusk"), {}, "entities constraints tail", True),
    (planner.LayoutPlan, ({"a": _BOX}, 3, ()), {}, "boxes iterations residual", False),
    (planner.PlannerOutput, ("r", "a cat<|bbox_1|>", (("1. cat", _BOX),)), {}, "reasoning prompt objects",
     True),
    (codec.GroundedEntity, ("cat", _BOX, (1, 2)), {}, "phrase box span", False),
    (codec.InterleavedInstruction, (("a", "cat"), (codec.GroundedEntity("cat", _BOX, (2, 2)),)), {},
     "words entities", False),
    (dataset.RecordEntity, ("red cat", _BOX), {"attrs": {"category": "cat"}}, "phrase attrs box", True),
    (dataset.GroundedRecord, ("r1", "A red cat.", (_ENTITY,), "synth"), {"image": "img/1.png"},
     "id image caption entities source", True),
    (metrics.EvalSample, ("r1", (("cat", _BOX),), (("cat", _BOX),)), {}, "id references predictions", True),
    (metrics.EvalReport, (50.0, 0.0, 50.0, 0.5, 2, 4), {}, "miou sr isr iou_threshold samples instances",
     True),
    (ClientConfig, ("http://localhost:1/v1", "m"), {"timeout": 5.0},
     "base_url model_name api_key_env_var temperature timeout max_retries max_in_flight", True),
    (flowmatch.TrainConfig, (10,), {"learning_rate": 0.5},
     "steps batch_size learning_rate m width init_seed data_seed noise_seed", True),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_class_is_in_the_record_contract_table():
    found, todo = set(), [wire.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("scotkit.") and not sub.__name__.startswith("_"):
                found.add(sub)
    assert found - {Constraint} == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, args, kwargs, fields, written", RECORDS,
                         ids=[f"{cls.__name__}" for cls, *_ in RECORDS])
def test_record_contract(cls, args, kwargs, fields, written):
    record, same = cls(*args, **kwargs), cls(*args, **kwargs)
    names = fields.split()
    assert [name for name in names if hasattr(record, name)] == names
    assert record == same and not record != same
    if all(_hashable(getattr(record, name)) for name in names):
        assert hash(record) == hash(same)
    else:  # as a tuple of its fields would
        with pytest.raises(TypeError):
            hash(record)
    twin = type(cls.__name__, (cls,), {})(*args, **kwargs)
    assert record != twin and twin != record
    assert record != object()
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, getattr(same, name))
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert record == same
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({shown})"
    if written:
        doc = wire.write(record)
        assert list(doc) == names
        assert wire.read(cls, doc, "record") == record


def _private_sibling_imports(path: Path) -> list[str]:
    """`from .x import _y` and `x._y` where x is a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {p.stem for p in SRC.glob("*.py")}
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("scotkit")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if alias.name in siblings:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_private_name_of_a_sibling():
    found = [f for path in sorted(SRC.glob("*.py")) for f in _private_sibling_imports(path)]
    assert found == []


def test_no_runtime_check_is_an_assert():
    # `python -O` strips assert statements, so a check in src must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _third_party_imports(path: Path) -> set[str]:
    """Top-level names of the non-stdlib modules path imports, at module
    level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_every_imported_package_is_a_declared_dependency_and_no_other():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in pyproject["project"]["dependencies"]}
    imported = set().union(*(_third_party_imports(path) for path in SRC.glob("*.py")))
    assert imported == declared


# public names that nothing in src/scotkit or bench/ calls, kept because
# an acceptance criterion in tests/test_acceptance.py does
CALLED_ONLY_BY_ACCEPTANCE = {
    "mixture_sampler": "7e conditioning swap",
    "to_instruction": "2 appendix golden fixtures",
}


def _names_read(node: ast.AST) -> set[str]:
    """Every name node reads as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _attributes_read(node: ast.AST) -> Counter:
    """How often node reads each attribute name, as in `x.name`."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_public_definition_is_used_outside_its_own_body():
    # a function, class, method or property that only its own unit tests
    # reach is code no command, benchmark workload or acceptance criterion runs
    bench = SRC.parents[1] / "bench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py"))}
    reads = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not any(node.name in _names_read(other)
                       for tree in trees.values() for other in tree.body
                       if other is not node):
                unused.add(node.name)
            members = node.body if isinstance(node, ast.ClassDef) else []
            unused.update(
                f"{node.name}.{member.name}" for member in members
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                and reads[member.name] == _attributes_read(member)[member.name]
            )
    assert unused == set(CALLED_ONLY_BY_ACCEPTANCE)
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    for name, criterion in CALLED_ONLY_BY_ACCEPTANCE.items():
        assert f".{name}(" in acceptance and f'"{criterion}"' in acceptance


# exception classes that no code catches by name, each kept for its reason
UNCAUGHT_BY_NAME: dict[str, str] = {}


def test_every_exception_class_is_caught_by_name_somewhere():
    # an error's contract is its message and whether it is a ValueError
    # (exit 1) or an OSError (exit 2); a class that no except clause names
    # distinguishes nothing but a unit test
    modules = [importlib.import_module(f"scotkit.{path.stem}") for path in sorted(SRC.glob("*.py"))]
    defined = {name for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    bench = SRC.parents[1] / "bench"
    caught = set()
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names_read(node.type)
    assert defined - caught == set(UNCAUGHT_BY_NAME)
    assert defined == {"PlannerOutputError"}
