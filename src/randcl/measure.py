"""Finite probability algebra with exact rational weights.

A Partition is a list of named atoms with positive Fraction weights summing
to one; an Event is a set of atom indices.  Everything downstream (event
distance here, the parameters' event algebras in algebra, refinement in
library) stays in exact arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .records import Record, _set

# Python's default limit on int <-> str conversion: past it an exact value
# could not be printed, and building it can already take seconds
_MAX_DIGITS = 4300
_TOO_MANY_DIGITS = 10**_MAX_DIGITS


def as_fraction(v: object) -> Fraction:
    """v as an exact Fraction; a float is refused rather than rounded."""
    if isinstance(v, float):
        raise ValueError(
            f"float {v!r} is not exact; use a Fraction, an int or a fraction string"
        )
    return Fraction(v)


class Partition(Record):
    # derived from atoms: _names and _index (atom name -> index) in atom
    # order; _denom is the weights' common denominator and _nums their
    # numerators over it, so sums of weights are integer sums
    __slots__ = ("atoms", "_names", "_index", "_denom", "_nums")

    def __init__(self, atoms: Iterable[tuple[str, Fraction | int | str]]):
        atoms = tuple(atoms)
        names, weights = zip(*atoms, strict=True) if atoms else ((), ())
        if set(map(type, names)) != {str} or set(map(type, weights)) != {Fraction}:
            names = tuple(map(str, names))
            weights = tuple(
                w if type(w) is Fraction else as_fraction(w) for w in weights
            )
        # checked over whole columns at once; a failing check scans the
        # atoms in order, so the first bad one is the one named
        index = dict(zip(names, range(len(names))))
        if len(index) != len(names):
            raise ValueError("duplicate atom names")
        if not names:
            raise ValueError("a partition needs at least one atom")
        ratios = list(map(Fraction.as_integer_ratio, weights))
        # every probability's denominator divides the weights' common one,
        # so bounding it keeps every probability printable; it is checked
        # as it grows, so coprime denominators never build a huge one
        denom = 1
        for d in {d for _, d in ratios}:
            denom = math.lcm(denom, d)
            if denom >= _TOO_MANY_DIGITS:
                raise ValueError(
                    f"weights' common denominator has more than {_MAX_DIGITS} digits"
                )
        nums = tuple([n * (denom // d) for n, d in ratios])
        if min(nums) <= 0:
            n, w = next((n, w) for n, w in zip(names, weights) if w <= 0)
            raise ValueError(f"atom {n!r} has nonpositive weight {w}")
        if sum(nums) != denom:
            raise ValueError(f"weights sum to {Fraction(sum(nums), denom)}")
        _set(self, "atoms", tuple(zip(names, weights)))
        _set(self, "_names", names)
        _set(self, "_index", index)
        _set(self, "_denom", denom)
        _set(self, "_nums", nums)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def weight(self, i: int) -> Fraction:
        return self.atoms[i][1]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown atom {name!r}") from None

    def event(self, members: Iterable[int | str]) -> Event:
        idx = {m if isinstance(m, int) else self.index(m) for m in members}
        return Event(self, frozenset(idx))

    def top(self) -> Event:
        return Event(self, range(self.size))

    def bottom(self) -> Event:
        return Event(self, ())


def partition(pairs: Iterable[tuple[str, Fraction | int | str]]) -> Partition:
    return Partition(tuple(pairs))


class Event(Record):
    __slots__ = ("partition", "members")

    def __init__(self, partition: Partition, members: Iterable[int]):
        members = frozenset(members)
        size = partition.size
        # checked over the whole set at once; only a set that fails is
        # scanned member by member, so a bad index is the one named
        if members and (
            set(map(type, members)) != {int} or min(members) < 0 or max(members) >= size
        ):
            for i in members:
                if not isinstance(i, int) or not 0 <= i < size:
                    raise ValueError(f"atom index {i!r} out of range")
        _set(self, "partition", partition)
        _set(self, "members", members)

    @property
    def prob(self) -> Fraction:
        return _prob(self.partition, self.members)

    def is_top(self) -> bool:
        return len(self.members) == self.partition.size

    def is_bottom(self) -> bool:
        return not self.members

    def __and__(self, other: Event) -> Event:
        return meet(self, other)

    def __or__(self, other: Event) -> Event:
        return join(self, other)

    def __invert__(self) -> Event:
        return complement(self)

    def __le__(self, other: Event) -> bool:
        _same_partition(self, other)
        return self.members <= other.members

    def __str__(self) -> str:
        names = self.partition.names
        return "{" + ",".join(names[i] for i in sorted(self.members)) + "}"


def _prob(part: Partition, members: Iterable[int]) -> Fraction:
    """The probability of the atoms with the given distinct indices: one
    integer sum of their numerators over the weights' common denominator.
    The indices are not checked, so no Event need be built to measure
    them."""
    return Fraction(sum(map(part._nums.__getitem__, members)), part._denom)


def _same_partition(a: Event, b: Event) -> None:
    # events of one space share the partition object: identity settles most
    if a.partition is not b.partition and a.partition != b.partition:
        raise ValueError("partition mismatch")


def meet(a: Event, b: Event) -> Event:
    _same_partition(a, b)
    return Event(a.partition, a.members & b.members)


def join(a: Event, b: Event) -> Event:
    _same_partition(a, b)
    return Event(a.partition, a.members | b.members)


def complement(a: Event) -> Event:
    return Event(a.partition, frozenset(range(a.partition.size)) - a.members)


def event_dist(a: Event, b: Event) -> Fraction:
    """Probability of the symmetric difference."""
    _same_partition(a, b)
    return _prob(a.partition, a.members ^ b.members)
