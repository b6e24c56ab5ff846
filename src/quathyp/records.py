"""Immutable value records.

The library's data classes (fields, elements, places, algebras, forms,
triples, verdicts) are values: set once, equal when their fields are,
usable as dict keys.  :class:`Record` holds that policy in one place,
with slots and without the start-up cost of ``dataclasses``.
"""

from __future__ import annotations

from operator import attrgetter

#: sets a field from a record's ``__init__``, past the frozen ``__setattr__``
set_field = object.__setattr__


class Record:
    """Base of an immutable record whose fields are its ``__slots__``.

    A subclass names its fields in ``__slots__``, sets each one once in
    ``__init__`` with :func:`set_field` and checks its arguments there.
    Records are equal when they are of one class with equal fields, hash
    their fields, refuse assignment and deletion, and print as
    ``Name(field=value, ...)``.  A hot class may define ``__eq__`` and
    ``__hash__`` over its field tuple directly.  A slot named ``_...`` is
    a memo of data derived from the fields, None from ``__init__`` until
    set once with :func:`set_field`; equality, hashing, the repr and
    pickling leave it out, so a copy starts without it.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the fields again
        return type(self), tuple(getattr(self, name) for name in self._fields)
