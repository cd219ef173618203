"""Immutable records: `__slots__` classes compared, hashed, shown and copied by
their fields, which each class's own `__init__` sets once through `setfield`."""

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __reduce__(self) -> tuple:  # pickle and copy rebuild a record through its __init__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")
