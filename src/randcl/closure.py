"""Definability over parameter sets in a finitely presented randomization.

The operators here answer, in several deliberately independent ways, which
events and which elements are definable from a finite tuple of random
elements: the event algebra of the parameters' types, the pointwise test
inside each fiber model, per-event definability through functional
formulas, whole-element deciders (two of them on the isolating-formula
events, one formula per type the parameters realize on some atom),
and the closure enumeration, which is also the closure under the
four-argument if_less combinator.  The reference enumerations the
cross-checks compare these with, the if_less closure's partition
refinement among them, are in oracles.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import attrgetter

from .formula import Exists, Formula, MutableRecord
from .measure import Event, EventAlgebra
from .randvar import (
    RandomElement,
    Randomization,
    _exact_keys,
    _int_columns,
    _resolve,
    _type_rows,
    differs,
    eval_event,
)
from .theory import (
    Value,
    isolating_formula,
    isolating_vars,
)

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

def _group_indices(r: Randomization, elems: Sequence[RandomElement]) -> list[tuple[int, ...]]:
    """Partition atom indices grouped by the order type of the parameters."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(_type_rows(r, tuple(elems))):
        groups.setdefault(key, []).append(i)
    return [tuple(g) for g in groups.values()]  # in first-atom order


def _realized_isolating(
    r: Randomization, elems: Sequence[RandomElement]
) -> list[Formula]:
    """The isolating formulas of the element tuple's types that occur on
    some atom, in first-atom order.

    Every other isolating formula has the null event.  The keys come from
    randvar._type_rows, so evaluating these formulas over the same tuple
    reuses its rows.
    """
    keys = dict.fromkeys(_type_rows(r, tuple(elems)))
    return [isolating_formula(r.sig, key) for key in keys]


def _realized_events(
    r: Randomization, elems: Sequence[RandomElement]
) -> list[tuple[Formula, Event]]:
    """Each realized isolating formula of the tuple with its event under
    v1..vn := elems, evaluated through eval_event.

    The isolating formulas are pairwise exclusive, so events whose union
    is the sure event prove that no formula left out has a non-null event.
    Anything less is an engine fault and raises.
    """
    binding = dict(zip(isolating_vars(len(elems)), elems))
    out = [(psi, eval_event(r, psi, binding)) for psi in _realized_isolating(r, elems)]
    covered = frozenset().union(*(ev.members for _, ev in out))
    if len(covered) != r.partition.size:
        raise RuntimeError(
            "events of the realized isolating formulas do not cover the space"
        )
    return out


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


def is_pointwise_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    return pointwise_definable_event(r, elem, params).is_top()


# ---------------------------------------------------------------------------
# event-local and whole-element deciders
# ---------------------------------------------------------------------------

# Each public decider resolves its parameters and runs its route on the
# resolved elements; definability_report resolves them once for all five.

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


def fo_definable_on(
    r: Randomization, elem: Param, e: Event, params: ParamSet
) -> bool:
    """Whether some functional formula over the parameters carves out
    exactly e as the event where it picks the element.

    Grouping the atoms by the order type of (parameters, element), such a
    formula exists precisely when e is a union of refined groups, no two
    selected groups share a parameter order type, and on each selected
    group the element coincides with one of the parameters (automatic for
    an enumerated domain, where every value is named by a constant).

    On the sure event this is membership in definable_closure, decided per
    parameter type group without enumerating it: under DLO the element's
    restriction must be some parameter's (so no parameters means no
    member), under an enumerated domain constant.
    """
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    if e.partition is not r.partition and e.partition != r.partition:
        raise ValueError("partition mismatch")
    return _fo_definable_on(r, e, _type_rows(r, tuple(elems)), _places(r, elems, b))


def _fo_definable_on(
    r: Randomization, e: Event, rows: Sequence[tuple], places: Sequence[Value]
) -> bool:
    """fo_definable_on, from the parameters' type rows and the element's
    places (see _places)."""
    # the element's place on each parameter type that e meets
    chosen: dict[tuple, Value] = {}
    for i in e.members:
        place = chosen.setdefault(rows[i], places[i])
        if place != places[i]:
            return False  # two selected groups over one parameter type
        if r.sig.is_dlo and place % 2:
            return False  # nothing pins the element on this group
    # e holds every atom of each refined group it meets
    return all(
        chosen.get(rows[i]) != places[i]
        for i in range(r.partition.size)
        if i not in e.members
    )


def _refines_nothing(
    r: Randomization,
    b: RandomElement,
    elems: list[RandomElement],
    base: EventAlgebra,
) -> bool:
    """Whether adjoining b to the parameters, whose algebra is base, adds
    no definable event."""
    refined = _algebra(r, [*elems, b])
    return all(base.contains(atom) for atom in refined.atoms)


def is_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Element definability: pointwise definable everywhere, and adjoining
    the element refines the parameter event algebra by nothing."""
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    if not _pointwise_event(r, _places(r, elems, b)).is_top():
        return False
    return _refines_nothing(r, b, elems, _algebra(r, elems))


def _pinned(r: Randomization, b: RandomElement, elems: list[RandomElement]) -> bool:
    """is_definable_by_pinning on resolved parameters."""
    agree = [(~differs(b, x)).members for x in elems]
    return all(
        any(ev.members <= same for same in agree)
        for _, ev in _realized_events(r, elems)
    )


def is_definable_by_pinning(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Ordered-theory decider: on every nonempty isolating event of the
    parameters (those of the types realized on some atom), the element
    must coincide with one of them."""
    if not r.sig.is_dlo:
        raise ValueError("pinning decider needs an ordered theory")
    b = _resolve(r, elem)
    return _pinned(r, b, _resolve_params(r, params))


def _projections_agree(
    r: Randomization, b: RandomElement, elems: list[RandomElement]
) -> bool:
    """The second condition of is_definable_by_isolating_events, on
    resolved parameters."""
    n = len(elems)
    u = f"v{n + 1}"
    base_binding = dict(zip(isolating_vars(n), elems))
    return all(
        ev == eval_event(r, Exists(u, phi), base_binding)
        for phi, ev in _realized_events(r, elems + [b])
    )


def is_definable_by_isolating_events(
    r: Randomization, elem: Param, params: ParamSet
) -> bool:
    """Cross-check decider: pointwise definability plus, for every isolating
    formula of (parameters, element) with positive weight (those of the
    types realized on some atom), the formula's event equals the event of
    its existential projection."""
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    if not _pointwise_event(r, _places(r, elems, b)).is_top():
        return False
    return _projections_agree(r, b, elems)


def _piecewise(
    r: Randomization,
    base: EventAlgebra,
    rows: Sequence[tuple],
    places: Sequence[Value],
) -> tuple[bool, tuple[Event, ...]]:
    """piecewise_definable, from the parameters' algebra and type rows and
    the element's places."""
    family = tuple(
        atom for atom in base.atoms if _fo_definable_on(r, atom, rows, places)
    )
    total = sum((ev.prob for ev in family), Fraction(0))
    return total == 1, family


def piecewise_definable(
    r: Randomization, elem: Param, params: ParamSet
) -> tuple[bool, tuple[Event, ...]]:
    """Search for disjoint parameter-definable events of total weight one on
    each of which the element is carved out by a functional formula.

    Any qualifying family forces every atom of the parameter algebra to
    qualify on its own, so the atoms are checked directly; the returned
    family lists the passing atoms.
    """
    elems = _resolve_params(r, params)
    base = _algebra(r, elems)
    places = _places(r, elems, _resolve(r, elem))
    return _piecewise(r, base, _type_rows(r, tuple(elems)), places)


# ---------------------------------------------------------------------------
# closure enumerations
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


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

class DefinabilityReport(MutableRecord):
    """The verdict and each decider's answer."""

    __slots__ = ("verdict", "paths")

    def __init__(self, verdict: bool, paths: dict[str, bool]):
        self.verdict = verdict
        self.paths = paths

    @property
    def agree(self) -> bool:
        return len(set(self.paths.values())) == 1


def definability_report(
    r: Randomization, elem: Param, params: ParamSet
) -> DefinabilityReport:
    """Run every applicable definability decider and collect the verdicts.

    The parameters are resolved and deduplicated once; their type rows and
    event algebra, and the element's places and pointwise event, are built
    once and shared.  Each decider still runs its own route over them.
    """
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    rows = _type_rows(r, tuple(elems))
    places = _places(r, elems, b)
    base = _algebra(r, elems)
    pointwise = _pointwise_event(r, places).is_top()
    paths: dict[str, bool] = {}
    paths["pointwise_algebra"] = pointwise and _refines_nothing(r, b, elems, base)
    if r.sig.is_dlo:
        paths["pinning"] = _pinned(r, b, elems)
    paths["piecewise_family"] = _piecewise(r, base, rows, places)[0]
    paths["isolating_events"] = pointwise and _projections_agree(r, b, elems)
    paths["closure_member"] = _fo_definable_on(r, r.partition.top(), rows, places)
    return DefinabilityReport(paths["pointwise_algebra"], paths)
