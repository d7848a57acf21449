"""Definability of an element over a parameter tuple, decided several ways.

The deciders answer, in deliberately independent ways, whether an element
is definable from a finite tuple of random elements: adjoining it refines
the parameters' event algebra by nothing; it coincides with a parameter
on every isolating event (ordered theory); a functional formula carves it
out on each atom of that algebra; each isolating formula of (parameters,
element) has the event of its existential projection; it is a member of
the definable closure.  Two of them evaluate the isolating formulas of
the types the parameters realize on some atom, one formula per type.
definability_report runs them all on one parameter table.  The type
groups, the pointwise event and the closure enumeration they build on are
in algebra; the public single-decider functions are in library, and the
reference enumerations the cross-checks compare these with in oracles.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import (
    EventAlgebra,
    Param,
    ParamSet,
    _algebra,
    _places,
    _pointwise_event,
    _resolve_params,
)
from .formula import Atom, Const, Exists, Formula, Var
from .measure import Event
from .randvar import (
    RandomElement,
    Randomization,
    _resolve,
    _type_rows,
    differs,
    eval_event,
)
from .records import MutableRecord, Signature, Value
from .theory import conj_all


# ---------------------------------------------------------------------------
# isolating formulas
# ---------------------------------------------------------------------------

def isolating_vars(n: int) -> list[str]:
    """Variable names v1..vn of the isolating formulas."""
    return [f"v{i}" for i in range(1, n + 1)]


def isolating_formula(sig: Signature, key: Sequence[Value]) -> Formula:
    """The member of oracles.isolating_formulas(sig, len(key)) satisfied by
    every tuple whose oracles.type_key is key.

    For a dense linear order the variables are sorted by (rank, index) and
    chained with < between ranks and = inside one, which is the
    representative oracles._isolating_dlo builds for that weak ordering; for
    FiniteEnum each vi is pinned to its constant.
    """
    if not sig.is_dlo:
        return conj_all(
            Atom(Var(f"v{i + 1}"), "=", Const(c)) for i, c in enumerate(key)
        )
    order = sorted(range(len(key)), key=lambda i: (key[i], i))
    return conj_all(
        Atom(
            Var(f"v{i + 1}"),
            "=" if key[i] == key[j] else "<",
            Var(f"v{j + 1}"),
        )
        for i, j in zip(order, order[1:])
    )


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


# ---------------------------------------------------------------------------
# decider routes, on resolved parameters
# ---------------------------------------------------------------------------

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


def _pinned(r: Randomization, b: RandomElement, elems: list[RandomElement]) -> bool:
    """is_definable_by_pinning on resolved parameters."""
    agree = [(~differs(b, x)).members for x in elems]
    return all(
        any(ev.members <= same for same in agree)
        for _, ev in _realized_events(r, elems)
    )


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
