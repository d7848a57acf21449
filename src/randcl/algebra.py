"""The event algebra of a parameter tuple, and what it determines.

The atoms on which the parameters have one type (randvar._type_rows) form
one type group; the groups are the atoms of the algebra of events
definable from the parameters.  This module builds that algebra, the
event on which an element is pointwise definable from the parameters,
and the definable closure, enumerated group by group.  None of it reads a
formula, so the requests that run it (dclb, dcl, lcl, pointwise) load
neither the parser nor the quantifier eliminator.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter

from .measure import Event, _same_partition
from .randvar import (
    RandomElement,
    Randomization,
    _exact_keys,
    _int_columns,
    _resolve,
    _type_rows,
)
from .records import Record, Value, _set

Param = str | RandomElement
ParamSet = Sequence[Param]
_VALUES = attrgetter("values")


def _resolve_params(r: Randomization, params: ParamSet) -> list[RandomElement]:
    names = [p for p in params if isinstance(p, str)]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter name")
    # the first element of each distinct value tuple, by a hash key that
    # equal values share: the values under an enumerated domain, the kept
    # (k, keys) under DLO (hashing a Fraction runs Python code).  An element
    # given twice gives the same key object, which a dict matches by
    # identity before comparing entries
    key_of = _exact_keys if r.sig.is_dlo else _VALUES
    out: dict[tuple, RandomElement] = {}
    for p in params:
        e = _resolve(r, p)
        out.setdefault(key_of(e), e)
    return list(out.values())


# ---------------------------------------------------------------------------
# event algebras
# ---------------------------------------------------------------------------

class EventAlgebra(Record):
    """A finite subalgebra, stored as its ordered list of atoms."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Event]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("an algebra needs at least one atom")
        part = atoms[0].partition
        covered: set[int] = set()
        for e in atoms:
            if e.partition != part:
                raise ValueError("partition mismatch")
            if not e.members:
                raise ValueError("algebra atoms must be nonempty")
            if covered & e.members:
                raise ValueError("algebra atoms must be disjoint")
            covered |= e.members
        if covered != set(range(part.size)):
            raise ValueError("algebra atoms must cover everything")
        _set(self, "atoms", tuple(sorted(atoms, key=lambda e: min(e.members))))

    def contains(self, e: Event) -> bool:
        """Whether e is a union of algebra atoms."""
        _same_partition(e, self.atoms[0])
        return all(
            not (a.members & e.members) or a.members <= e.members
            for a in self.atoms
        )


def _group_indices(r: Randomization, elems: Sequence[RandomElement]) -> list[tuple[int, ...]]:
    """Partition atom indices grouped by the order type of the parameters."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(_type_rows(r, tuple(elems))):
        groups.setdefault(key, []).append(i)
    return [tuple(g) for g in groups.values()]  # in first-atom order


def _algebra(r: Randomization, elems: Sequence[RandomElement]) -> EventAlgebra:
    """fo_event_algebra of resolved parameters."""
    part = r.partition
    return EventAlgebra(
        tuple(Event(part, frozenset(g)) for g in _group_indices(r, elems))
    )


def fo_event_algebra(r: Randomization, params: ParamSet) -> EventAlgebra:
    """The finite algebra of events definable from the given parameters.

    Two atoms satisfy the same formulas over the parameters exactly when
    the parameters have the same type on both, so the algebra's atoms are
    the groups of atoms by parameter type.  checks.isolating_event_algebra
    builds it independently, from the isolating-formula events.
    """
    return _algebra(r, _resolve_params(r, params))


# ---------------------------------------------------------------------------
# pointwise definability
# ---------------------------------------------------------------------------

def _places(
    r: Randomization, elems: Sequence[RandomElement], b: RandomElement
) -> list[Value]:
    """The element's own column of the type rows of (elems, b): with the
    rows of elems (randvar._type_rows), it gives b's type on each atom.

    Under DLO, 2k where b equals the parameters' value of rank k, 2k + 1
    where b lies strictly between ranks k and k + 1, and -1 below every
    value; so an even place means some parameter pins b there.  Under an
    enumerated domain, b's value.
    """
    if not r.sig.is_dlo:
        return list(b.values)
    return list(map(_place, zip(*_int_columns(r.sig, (*elems, b)))))


def _place(row: tuple[int, ...]) -> int:
    """_places's entry for one atom, given the parameters' values there
    and then the element's, as ints that compare as the values do."""
    params, v = row[:-1], row[-1]
    k = len(set(filter(v.__gt__, params)))  # v's rank among the parameters
    return 2 * k if v in params else 2 * k - 1


def _pointwise_event(r: Randomization, places: Sequence[Value]) -> Event:
    """pointwise_definable_event, from the element's places (see _places)."""
    if not r.sig.is_dlo:
        return r.partition.top()  # constants name every point
    # some parameter pins the value exactly where its place is even
    pinned = [p % 2 == 0 for p in places]
    members = frozenset(itertools.compress(range(len(pinned)), pinned))
    return Event(r.partition, members)


def pointwise_definable_event(
    r: Randomization, elem: Param, params: ParamSet
) -> Event:
    """Atoms on which the element's value is definable from the parameter
    values inside the fiber model."""
    b = _resolve(r, elem)
    return _pointwise_event(r, _places(r, _resolve_params(r, params), b))


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------

def _group_restrictions(
    r: Randomization,
    elems: Sequence[RandomElement],
    groups: Sequence[tuple[int, ...]],
) -> list[list[tuple[Value, ...]]]:
    """For each group of atoms, the restrictions to it that a closure
    member can take, in increasing order of value.  A group lies inside
    one type group: a whole one, or a single atom.

    DLO: the parameters' restrictions; all atoms of a group share the
    parameters' ranks, so the one of rank k is the kth.  Enumerated
    domain: the constant ones.  _assemble turns a choice of one
    restriction per group into the element.
    """
    if not r.sig.is_dlo:
        assert r.sig.n is not None
        return [[(v,) * len(g) for v in range(r.sig.n)] for g in groups]
    rows = _type_rows(r, tuple(elems))
    out = []
    for g in groups:
        of_rank: dict[int, RandomElement] = {}
        for e, k in zip(elems, rows[g[0]]):
            of_rank.setdefault(k, e)
        out.append(
            [tuple(map(of_rank[k].values.__getitem__, g)) for k in range(len(of_rank))]
        )
    return out


def _assemble(
    r: Randomization,
    groups: Sequence[tuple[int, ...]],
    combos: Iterable[Sequence[tuple[Value, ...]]],
) -> Iterator[RandomElement]:
    """The elements taking, on each group, the restriction a combo gives,
    one combo at a time."""
    # the groups partition the atoms: each atom's index in a combo's
    # restrictions laid end to end
    at = [0] * r.partition.size
    for k, pos in enumerate(itertools.chain.from_iterable(groups)):
        at[pos] = k
    for combo in combos:
        flat = tuple(itertools.chain.from_iterable(combo))
        values = tuple(map(flat.__getitem__, at))
        yield RandomElement(r.sig, r.partition, values)


def definable_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Every element definable from the parameters, enumerated exactly.

    Ordered theory: all mixtures that agree with some parameter on each
    atom of the parameter event algebra (no parameters means no elements).
    Enumerated domain: all step functions measurable in that algebra.

    The output is sorted by value tuple without comparing a value: the
    groups are ordered by first atom and each group's restrictions by
    value, so the product already runs in lexicographic order, and no two
    combinations give the same element.
    """
    elems = _resolve_params(r, params)
    if r.sig.is_dlo and not elems:
        return []
    groups = _group_indices(r, elems)
    per_group = _group_restrictions(r, elems, groups)
    return list(_assemble(r, groups, itertools.product(*per_group)))
