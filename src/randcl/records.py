"""The engine's immutable value records, and the two signatures.

Every value class of the engine is a Record, whose fields are set once
when it is built.  This module imports nothing of the package: a request
that reads no formula loads it without the parser or the quantifier
eliminator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

# a value of either theory: a Fraction under DLO, an int under FiniteEnum
Value = Fraction | int


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

# the one way to set a field: Record.__setattr__ refuses assignment
_set = object.__setattr__


def _field_reader(names: tuple[str, ...]):
    """A method returning the values of the named fields as a tuple.

    attrgetter reads them in C: formula == calls this on every node it
    compares, about 2.5 times faster than a getattr loop.
    """
    if not names:
        return lambda self: ()
    get = attrgetter(*names)  # a tuple only for two or more names
    if len(names) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


class Record:
    """Base of the engine's immutable value classes.

    A subclass names its fields as the public entries of its own and its
    bases' ``__slots__``, in order, and sets each once in ``__init__`` with
    ``object.__setattr__``.  That list is read once, when the class is
    created, into ``_field_names``; ``_fields()`` returns the fields'
    values in that order.  Two records are ``==`` when they are of the
    same class with equal fields, ``hash`` agrees with ``==``, ``repr``
    reads ``Name(field=value, ...)`` and pickling calls the class on the
    fields.  Slots with a leading underscore hold derived state and take
    part in none of these.  Assigning or deleting an attribute raises
    AttributeError.  A record with a dict field is unhashable.
    """

    __slots__ = ()
    _field_names: tuple[str, ...] = ()
    _fields = _field_reader(())

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(
            name
            for c in reversed(cls.__mro__)
            for name in vars(c).get("__slots__", ())
            if not name.startswith("_")
        )
        cls._fields = _field_reader(cls._field_names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._fields()))

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._field_names, self._fields())
        )
        return f"{self.__class__.__name__}({fields})"


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

class Signature(Record):
    """Either the dense-linear-order signature or FiniteEnum(n), n >= 2."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int | None = None):
        if kind == "DLO":
            if n is not None:
                raise ValueError("DLO signature takes no size")
        elif kind == "FiniteEnum":
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ValueError("FiniteEnum needs an integer size n >= 2")
        else:
            raise ValueError(f"unknown signature kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "n", n)

    @property
    def is_dlo(self) -> bool:
        return self.kind == "DLO"

    def __str__(self) -> str:
        return "DLO" if self.is_dlo else f"FiniteEnum({self.n})"


DLO = Signature("DLO")


def finite_enum(n: int) -> Signature:
    return Signature("FiniteEnum", n)
