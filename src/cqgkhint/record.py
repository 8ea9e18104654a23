"""Frozen value records without :mod:`dataclasses`.

Importing :mod:`dataclasses` loads :mod:`inspect` (and with it ``dis`` and
``ast``), and each ``@dataclass`` generates and compiles its methods when its
module is imported.  The records of this package need only immutable named
fields, so one small base serves all of them and the command-line start-up
pays for neither.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Immutable record whose fields are its class annotations, in order.

    A record is built from its field values, by position or by keyword;
    records compare equal, and hash, by type and field values.  Every write
    raises :class:`dataclasses.FrozenInstanceError`.  A subclass may define
    ``__post_init__`` to check the values once they are set.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._ordered(args, kwargs)
        # object.__setattr__ keeps the values in the instance's own slots; going
        # through self.__dict__ would make every later read about 3x slower
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _ordered(self, args: tuple, kwargs: dict) -> list:
        """The field values in field order, from values given by position and keyword."""
        fields = self._fields
        named = dict(zip(fields, args))
        if len(args) > len(fields) or not named.keys().isdisjoint(kwargs):
            raise TypeError(f"{type(self).__name__}: too many or repeated field values")
        kwargs.update(named)
        try:
            values = [kwargs.pop(name) for name in fields]
        except KeyError as exc:
            raise TypeError(f"{type(self).__name__} is missing the field {exc}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no fields {tuple(kwargs)}")
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        _refuse_write(self, f"assign to field {name!r}")

    def __delattr__(self, name):
        _refuse_write(self, f"delete field {name!r}")


def _refuse_write(record: Record, action: str):
    from dataclasses import FrozenInstanceError  # loaded only on this error path

    raise FrozenInstanceError(f"cannot {action} of {type(record).__name__}")
