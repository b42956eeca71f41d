"""Bases of the plain record classes (the convention is in the sln docstring).

A record class lists its fields in __slots__, after those of the record
class it extends, and writes its own __init__. Records of one class with
equal fields are equal. A Record is unhashable, as it can change; a
FrozenRecord hashes by its fields and refuses assignment after __init__,
which sets them through _set.
"""

from typing import Tuple

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copies rebuild through __init__: assignment is refused
        return type(self), self._values()
