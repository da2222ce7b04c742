"""Slotted record classes that compare, hash and print by their fields.

A subclass lists its fields in ``__slots__`` (two or more) and writes its
own ``__init__``.  ``==`` compares the fields as one tuple, and only
between instances of the same class; ``repr`` prints
``Name(field=value, ...)``.  A class that sets ``_fields`` narrows both
to the fields it names.  A ``Record`` is mutable and unhashable.  A
``FrozenRecord`` hashes by its fields and refuses assignment and
deletion, so its ``__init__`` sets its fields with ``_fill``, through
each slot's own setter (``_setters``, in ``__slots__`` order).

The methods are written once here rather than generated per class, so
importing possum compiles no code at run time and does not load
``inspect``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = cls.__dict__.get("_fields", cls.__slots__)
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # copy and pickle rebuild through __init__: they cannot assign.
        return self.__class__, self._values(self)
