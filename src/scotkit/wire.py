"""One reader and one writer for every JSON record, built once per
annotation from the type itself.

`read(tp, value, name)` checks a decoded JSON value against `tp` and
builds it, or raises ValueError naming the field; `write(value)` is the
JSON value that reads back as `value`. A float is an int or a finite
float, an int is one a float can hold, and a bool is never a number.
`X | None` allows null; `tuple[X, ...]` is a list, or an object when X
is `tuple[str, Y]`; `Mapping[str, X]` is an object; `object` is any
value. A `Record` is an object holding each field under its own name,
in field order; a field whose `__init__` parameter has a default may be
left out, and any other key is an error. A class that defines
`from_wire(value, name)` and `to_wire(self)` itself, not by
inheritance, has its own shape.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import sys
import types
import typing
from collections.abc import Mapping

# A Record's __init__ stores each field with this, past its own __setattr__.
assign = object.__setattr__


class Record:
    """An immutable record. Its fields are the names that its class body
    and its base classes annotate, in that order, less any `ClassVar`.
    Its own `__init__` checks its arguments and stores every field with
    `assign`. Records are equal when they are of the same class with equal
    fields, hash by their fields, and refuse any later assignment."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}
        for klass in reversed(cls.__mro__):
            for name, note in vars(klass).get("__annotations__", {}).items():
                if not str(note).startswith(("ClassVar", "typing.ClassVar")):
                    names[name] = None
        cls._fields = tuple(names)
        # a tuple of the field values (the value itself for one field)
        cls._values = staticmethod(operator.attrgetter(*names) if names else lambda r: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def loads(text):
    """json.loads(text), where a document nested too deeply to parse or an
    integer too long to convert is a ValueError like any malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    except ValueError as exc:
        if type(exc) is not ValueError:  # JSONDecodeError, UnicodeDecodeError
            raise
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"Exceeds the limit ({limit} digits) for a JSON integer") from None


def read(tp, value, name: str):
    """`value`, a decoded JSON value, checked and built as a `tp`."""
    return _codec(tp)[0](value, name)


def write(value):
    """The JSON value that reads back as `value`."""
    return _codec(type(value))[1](value)


def _expect(kinds, noun: str):
    def read(value, name):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
        return value

    return read


_str = _expect(str, "a string")
_object = _expect((dict, Mapping), "an object")  # dict first: an ABC check is slow
_list = _expect((list, tuple), "a list")
_number = _expect((int, float), "a finite number")
_integer = _expect(int, "an integer")


def _float(value, name: str) -> float:
    try:
        number = float(_number(value, name))
    except OverflowError:
        raise ValueError(f"{name} is out of range for a number") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def _int(value, name: str) -> int:
    if abs(_integer(value, name)) > sys.float_info.max:  # so that every int converts to a float
        raise ValueError(f"{name} is out of range for a number")
    return value


def _same(value):
    return value


_SCALARS = {str: _str, int: _int, float: _float,
            object: lambda value, name: value}


@functools.cache
def _codec(tp):
    """(read, write) for the annotation tp."""
    if isinstance(tp, type) and "from_wire" in vars(tp):
        return tp.from_wire, tp.to_wire
    if tp in _SCALARS:
        return _SCALARS[tp], _same
    if isinstance(tp, type) and issubclass(tp, Record):
        return _record(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if isinstance(tp, types.UnionType) and len(args) == 2 and type(None) in args:
        read_x, write_x = _codec(next(a for a in args if a is not type(None)))
        return ((lambda value, name: None if value is None else read_x(value, name)),
                write_x if write_x is _same else lambda v: None if v is None else write_x(v))
    if origin is tuple and args[1:] == (Ellipsis,):
        if typing.get_origin(args[0]) is tuple and typing.get_args(args[0])[0] is str:
            read_pairs, write_pairs = _mapping(typing.get_args(args[0])[1])
            return (lambda value, name: tuple(read_pairs(value, name).items())), write_pairs
        read_x, write_x = _codec(args[0])
        return ((lambda value, name: tuple([read_x(v, name) for v in _list(value, name)])),
                list if write_x is _same else lambda value: [write_x(v) for v in value])
    if origin is Mapping and args[0] is str:
        read_map, write_pairs = _mapping(args[1])
        return read_map, lambda value: write_pairs(value.items())
    raise TypeError(f"no JSON form for {tp!r}")


def _mapping(value_type):
    """(read, write) for an object of value_type values: read gives a
    dict, and write takes (key, value) pairs."""
    read_x, write_x = _codec(value_type)

    def read(value, name):
        if value_type is object:  # any value, and a JSON object's keys are strings
            return dict(_object(value, name))
        return {_str(k, name): read_x(v, f"{name} {k!r}") for k, v in _object(value, name).items()}

    return read, dict if write_x is _same else lambda pairs: {k: write_x(v) for k, v in pairs}


def _record(cls):
    hints = typing.get_type_hints(cls)
    init = cls.__init__
    code = init.__code__
    positional = code.co_varnames[1:code.co_argcount]
    optional = {*positional[len(positional) - len(init.__defaults__ or ()):],
                *(init.__kwdefaults__ or ())}
    plan = [(name, *_codec(hints[name]), name not in optional) for name in cls._fields]

    def read(value, name):
        value = _object(value, name)
        kwargs = {}
        for key, read_field, _, required in plan:
            if key in value:
                kwargs[key] = read_field(value[key], key)
            elif required:
                raise ValueError(f"missing field {key!r} in {name}")
        if len(kwargs) < len(value):
            unknown = next(key for key in value if key not in kwargs)
            raise ValueError(f"unknown field {unknown!r} in {name}")
        return cls(**kwargs)

    return read, lambda value: {key: w(getattr(value, key)) for key, _, w, _ in plan}
