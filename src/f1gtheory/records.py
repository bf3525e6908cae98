"""The base of the package's value classes: groups, modules, reports.

A record keeps its fields in its instance `__dict__`, in the order of the
class's `_fields` tuple.  Equality and the hash read the fields named in
`_compared` (all of `_fields` unless a class names fewer), so two records
are equal exactly when they have one class and equal compared fields; the
hash is that of the tuple of compared values.  Assigning or deleting an
attribute raises AttributeError.  `functools.cached_property` and
`groups._memo_on_group` write the instance `__dict__` directly, so they
still cache on a record.

Each class writes its own `__init__`, which stores the fields with
`self.__dict__.update` and, for a validating class, then calls
`self.__post_init__()`.  No code is generated when a class is created.
"""

from __future__ import annotations

from typing import Tuple


class _Record:
    _fields: Tuple[str, ...] = ()
    _compared: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_compared" not in vars(cls):
            cls._compared = cls._fields

    def _key(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        values = self.__dict__
        inner = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
