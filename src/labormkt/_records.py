"""The one rule by which a result record becomes a JSON-ready dict."""

from __future__ import annotations

from dataclasses import fields
from functools import cache

__all__ = ["Record"]


class Record:
    """Base of the result dataclasses whose dict is fields, then derived values.

    :meth:`to_dict` lists the dataclass fields in declaration order, then
    the derived properties the class names in ``_derived``.  A nested
    record becomes its own dict, a tuple or list a new list and a dict a
    new dict, all the way down, so the result shares nothing mutable with
    the record.
    """

    _derived: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in _names(type(self))}


@cache
def _names(cls) -> tuple[str, ...]:
    """A record class's dict keys, listed once per class."""
    return tuple(f.name for f in fields(cls)) + tuple(cls._derived)


# Most values are these; they are their own plain form.
_LEAVES = frozenset((float, int, bool, str, type(None)))


def _plain(value):
    if type(value) in _LEAVES:
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value
