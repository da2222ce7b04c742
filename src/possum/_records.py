"""Record classes that compare, hash and print by their fields.

The immutable records a parse builds one per atom or declaration
(``knowledge.Atom``, ``Rule``, ``CaseTemplate`` and ``PrecedentLink``)
are ``typing.NamedTuple`` classes, as is the compiled form's
``RuleInstance``: a parser builds each in one C call, ``tuple.__new__``
over its fields, where a slotted record sets each field through its own
descriptor, and each hashes in C as the tuple of its fields.
``TupleRecord``, put ahead of the named tuple among a rule's, case
template's or link's bases, makes it equal only a record of its own
class, never a plain tuple in either order (``Atom`` does the same in
its own body).

The other records are slotted classes.  A subclass of ``Record`` lists
its fields in ``__slots__`` (two or more) and writes its own
``__init__``.  ``==`` compares the fields as one tuple, and only between
instances of the same class; ``repr`` prints ``Name(field=value,
...)``.  A class that sets ``_fields`` narrows both to the fields it
names.  A ``Record`` is mutable and unhashable.  A ``FrozenRecord``
(``calculus.CertaintyInterval``) refuses assignment and deletion, so its
``__init__`` sets its fields through each slot's own setter
(``_setters``, in ``__slots__`` order), and its class defines its hash.

The methods are written once here rather than generated per class, so
importing possum compiles no code at run time beyond the named tuples'
constructors, and does not load ``inspect``.
"""

from operator import attrgetter


class TupleRecord(tuple):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__


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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: they cannot assign.
        return self.__class__, self._values(self)
