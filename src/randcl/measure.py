"""Finite probability algebra with exact rational weights.

A Partition is a list of named atoms with positive Fraction weights summing
to one; an Event is a set of atom indices.  Everything downstream (event
distance, generated subalgebras, refinement) stays in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


def as_fraction(v: object) -> Fraction:
    """v as an exact Fraction; a float is refused rather than rounded."""
    if isinstance(v, float):
        raise ValueError(
            f"float {v!r} is not exact; use a Fraction, an int or a fraction string"
        )
    return Fraction(v)


def _exact_sum(weights: Iterable[Fraction]) -> Fraction:
    """Sum of Fractions over their common denominator: one integer pass
    instead of a normalizing Fraction addition per term."""
    ws = list(weights)
    denom = math.lcm(*(w.denominator for w in ws))
    return Fraction(sum(w.numerator * (denom // w.denominator) for w in ws), denom)


@dataclass(frozen=True)
class Partition:
    atoms: tuple[tuple[str, Fraction], ...]
    # atom name -> index, derived from atoms
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple(
            (str(n), w if type(w) is Fraction else as_fraction(w))
            for n, w in self.atoms
        )
        object.__setattr__(self, "atoms", atoms)
        index = {n: i for i, (n, _) in enumerate(atoms)}
        if len(index) != len(atoms):
            raise ValueError("duplicate atom names")
        object.__setattr__(self, "_index", index)
        if not atoms:
            raise ValueError("a partition needs at least one atom")
        for n, w in atoms:
            if w <= 0:
                raise ValueError(f"atom {n!r} has nonpositive weight {w}")
        total = _exact_sum(w for _, w in atoms)
        if total != 1:
            raise ValueError(f"weights sum to {total}")

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.atoms)

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
        return Event(self, frozenset(range(self.size)))

    def bottom(self) -> Event:
        return Event(self, frozenset())


def partition(pairs: Iterable[tuple[str, Fraction | int | str]]) -> Partition:
    return Partition(tuple(pairs))


@dataclass(frozen=True)
class Event:
    partition: Partition
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for i in members:
            if not isinstance(i, int) or not 0 <= i < self.partition.size:
                raise ValueError(f"atom index {i!r} out of range")

    @property
    def prob(self) -> Fraction:
        return _exact_sum(self.partition.weight(i) for i in self.members)

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


def _same_partition(a: Event, b: Event) -> None:
    if a.partition != b.partition:
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
    return Event(a.partition, a.members ^ b.members).prob


@dataclass(frozen=True)
class EventAlgebra:
    """A finite subalgebra, stored as its ordered list of atoms."""

    atoms: tuple[Event, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("an algebra needs at least one atom")
        part = self.atoms[0].partition
        covered: set[int] = set()
        for e in self.atoms:
            if e.partition != part:
                raise ValueError("partition mismatch")
            if not e.members:
                raise ValueError("algebra atoms must be nonempty")
            if covered & e.members:
                raise ValueError("algebra atoms must be disjoint")
            covered |= e.members
        if covered != set(range(part.size)):
            raise ValueError("algebra atoms must cover everything")
        ordered = tuple(sorted(self.atoms, key=lambda e: min(e.members)))
        object.__setattr__(self, "atoms", ordered)

    @property
    def partition(self) -> Partition:
        return self.atoms[0].partition

    def contains(self, e: Event) -> bool:
        """Whether e is a union of algebra atoms."""
        _same_partition(e, self.atoms[0])
        return all(
            not (a.members & e.members) or a.members <= e.members
            for a in self.atoms
        )

    def __len__(self) -> int:
        return len(self.atoms)


def generated_algebra(part: Partition, gens: Sequence[Event]) -> EventAlgebra:
    """Atoms of the Boolean subalgebra generated by gens.

    Partition atoms are grouped by their membership pattern across the
    generators; each group is one atom of the subalgebra.
    """
    for g in gens:
        if g.partition != part:
            raise ValueError("partition mismatch")
    groups: dict[tuple[bool, ...], set[int]] = {}
    for i in range(part.size):
        pattern = tuple(i in g.members for g in gens)
        groups.setdefault(pattern, set()).add(i)
    return EventAlgebra(tuple(Event(part, frozenset(m)) for m in groups.values()))


def refine(
    part: Partition, atom: int | str, k: int
) -> tuple[Partition, dict[int, tuple[int, ...]]]:
    """Split one atom into k equal-weight pieces.

    Returns the refined partition and a map from old atom index to the
    tuple of new indices standing for it (singleton tuples off the split).
    The pieces of atom 'w' are named 'w.1' .. 'w.k'.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    i0 = part.index(atom) if isinstance(atom, str) else atom
    if not 0 <= i0 < part.size:
        raise ValueError(f"atom index {i0!r} out of range")
    new_atoms: list[tuple[str, Fraction]] = []
    mapping: dict[int, tuple[int, ...]] = {}
    for i, (name, w) in enumerate(part.atoms):
        if i == i0:
            first = len(new_atoms)
            for j in range(k):
                new_atoms.append((f"{name}.{j + 1}", w / k))
            mapping[i] = tuple(range(first, first + k))
        else:
            mapping[i] = (len(new_atoms),)
            new_atoms.append((name, w))
    return Partition(tuple(new_atoms)), mapping


def transport_event(
    e: Event, refined: Partition, mapping: dict[int, tuple[int, ...]]
) -> Event:
    members: set[int] = set()
    for i in e.members:
        members.update(mapping[i])
    return Event(refined, frozenset(members))
