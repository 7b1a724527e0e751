"""Immutable value records without generated code.

The standard library's frozen data classes compile their methods with
``exec`` for every class, and importing their module loads ``inspect``,
``ast`` and ``dis``. Each CLI call is a fresh process and paid both on every
start. ``Record`` does the same job once per class, in ``__init_subclass__``.
"""
from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


class Record:
    """Base of the package's immutable value classes.

    A subclass's fields are its own annotated names, in order; a name that
    also has a class-level value takes it as its default, unless that value
    is the field's accessor (a data descriptor: a slot, or a property over a
    tuple underneath). Instances take the fields positionally or by keyword,
    then run ``__post_init__`` if the class has one. Equality (same class,
    equal fields), hash, repr and the refusal to assign or delete are those
    of a frozen data class with the same fields. An ``__init__``, ``__eq__``
    or ``__hash__`` that a class defines itself is kept.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields
        cls._defaults = {f: v for f, v in vars(cls).items()
                         if f in fields and not hasattr(v, "__set__")}
        post_init = getattr(cls, "__post_init__", None)
        n = len(fields)
        if n == 1:
            get = attrgetter(fields[0])
            key = lambda obj: (get(obj),)  # noqa: E731
        else:
            key = attrgetter(*fields)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = cls._bind(args, kwargs)
            for name, value in zip(fields, args):
                object.__setattr__(self, name, value)
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        for method in (__init__, __eq__, __hash__):
            if method.__name__ not in vars(cls):
                setattr(cls, method.__name__, method)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Field values, in order, of a call that does not pass each positionally."""
        rest = cls._fields[len(args):]
        stray = [k for k in kwargs if k not in rest] or args[len(cls._fields):]
        if stray:
            raise TypeError(f"{cls.__qualname__}() got extra or repeated arguments {stray!r}")
        given = {**cls._defaults, **kwargs}
        missing = [f for f in rest if f not in given]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments {missing!r}")
        return args + tuple(given[f] for f in rest)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")
