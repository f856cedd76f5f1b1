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
from scotkit import wire
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
UNCAUGHT_BY_NAME = {
    "TransportError": "an OSError, so the CLI exits 2 for it, not 1",
}


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
    assert defined == {"PlannerOutputError", "TransportError"}
