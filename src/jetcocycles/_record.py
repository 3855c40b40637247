"""The one rule for the package's record classes.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``.  This base gives it the rest:
equality over the field values with a record of the same class only
(``NotImplemented`` otherwise), a hash over the same values, the repr
``Name(field=value, ...)``, and an ``AttributeError`` on any later
assignment or deletion.  ``class X(Record, frozen=False)`` keeps a record
mutable, and then unhashable, as a mutable value whose equality reads its
fields must be.  The fields are read by one ``operator.attrgetter`` per
class, so no source is generated or compiled.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")
