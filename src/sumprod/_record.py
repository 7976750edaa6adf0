"""Frozen value records: the one mechanism behind sumprod's result types.

`@record` reads a class's fields from its annotations, in order, and adds
the methods a frozen value type needs unless the class body defines them:

* ``__init__`` taking the fields positionally or by keyword; a class
  attribute named like a field is that field's default, and a `Factory`
  default builds a fresh value per instance.  ``__post_init__``, when the
  class has one, runs after the fields are set.
* ``__eq__`` (same class and equal field values) and ``__hash__`` (of the
  tuple of field values).
* ``__repr__`` as ``Name(field=value, ...)``.
* ``__setattr__`` and ``__delattr__`` that raise AttributeError.

Fields live in the instance ``__dict__``, which ``__init__`` fills
directly, so `functools.cached_property` works on a record and
``object.__setattr__`` can still build one by hand.  Everything is made
from closures: nothing is compiled at import and nothing beyond
`operator` is loaded, which keeps ``import sumprod`` cheap.
"""

from __future__ import annotations

from operator import attrgetter


class Factory:
    """A field default built fresh for each instance, as ``Factory(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def fields(cls) -> tuple[str, ...]:
    """The field names of a record class, in declaration order."""
    return cls.__record_fields__


def asdict(obj) -> dict:
    """{field: value} of a record, in field order."""
    return {name: getattr(obj, name) for name in obj.__record_fields__}


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that is not all fields by position."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = list(args)
    for name in names[: len(args)]:
        if name in kwargs:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    for name in names[len(args) :]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            value = defaults[name]
            values.append(value.make() if isinstance(value, Factory) else value)
        else:
            raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
    return tuple(values)


def _make_init(cls, names: tuple[str, ...]):
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post = cls.__dict__.get("__post_init__")
    count = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    return __init__


def record(cls):
    """Make cls a frozen value record (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{cls.__qualname__}({shown})"

    cls.__record_fields__ = names
    made = {
        "__init__": _make_init(cls, names),
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
    }
    for name, method in made.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
