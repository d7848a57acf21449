"""Definability of an element over a parameter tuple, decided several ways.

The deciders answer, in deliberately independent ways, whether an element
is definable from a finite tuple of random elements: adjoining it refines
the parameters' event algebra by nothing; it coincides with a parameter
on every isolating event (ordered theory); a functional formula carves it
out on each atom of that algebra; each isolating formula of (parameters,
element) has the event of its existential projection; it is a member of
the definable closure.  Two of them evaluate the isolating formulas of
the types the parameters realize on some atom, one formula per type.
Each decider is one public function; definability_report resolves the
element and the parameters once and calls all five.  They read the
element through the type rows of (parameters, element), which a report
builds once, as it does the parameters' own (randvar._type_rows).  The
type groups, the pointwise event and the closure enumeration they build
on are in algebra, and the reference enumerations the cross-checks
compare these with in checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import (
    Param,
    ParamSet,
    _algebra,
    _pointwise_event,
    _resolve_params,
)
from .formula import Atom, Const, Exists, Formula, Var, conj_all
from .measure import Event, complement
from .randvar import (
    RandomElement,
    Randomization,
    _resolve,
    _type_rows,
    differs,
    eval_event,
)
from .records import Record, Signature, Value, _set


# ---------------------------------------------------------------------------
# isolating formulas
# ---------------------------------------------------------------------------

def isolating_vars(n: int) -> list[str]:
    """Variable names v1..vn of the isolating formulas."""
    return [f"v{i}" for i in range(1, n + 1)]


def isolating_formula(sig: Signature, key: Sequence[Value]) -> Formula:
    """The member of checks.isolating_formulas(sig, len(key)) satisfied by
    every tuple whose checks.type_key is key.

    For a dense linear order the variables are sorted by (rank, index) and
    chained with < between ranks and = inside one, which is the
    representative checks._isolating_dlo builds for that weak ordering; for
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


def _realized_events(
    r: Randomization, elems: Sequence[RandomElement]
) -> list[tuple[Formula, Event]]:
    """The isolating formulas of the element tuple's types that occur on
    some atom, in first-atom order, each with its event under
    v1..vn := elems, evaluated through eval_event.

    The keys come from randvar._type_rows, so evaluating the formulas over
    the same tuple reuses its rows.  The isolating formulas are pairwise
    exclusive, so events whose union is the sure event prove that no
    formula left out has a non-null event.  Anything less is an engine
    fault and raises.
    """
    keys = dict.fromkeys(_type_rows(r, tuple(elems)))
    formulas = [isolating_formula(r.sig, key) for key in keys]
    binding = dict(zip(isolating_vars(len(elems)), elems))
    out = [(psi, eval_event(r, psi, binding)) for psi in formulas]
    covered = frozenset().union(*(ev.members for _, ev in out))
    if len(covered) != r.partition.size:
        raise RuntimeError(
            "events of the realized isolating formulas do not cover the space"
        )
    return out


# ---------------------------------------------------------------------------
# the deciders
# ---------------------------------------------------------------------------

def _fo_definable_on(r: Randomization, e: Event, joint: Sequence[tuple]) -> bool:
    """fo_definable_on, from the type rows of (parameters, element)."""
    # the refined groups e meets, one per distinct row: every one on the
    # sure event, which closure membership asks about
    size, dlo = len(e.members), r.sig.is_dlo
    chosen = set(joint if size == len(joint) else map(joint.__getitem__, e.members))
    heads: set[tuple] = set()
    for row in chosen:
        # where the element is pinned, its row less the last entry is the
        # parameters' row (under an enumerated domain, everywhere)
        head = row[:-1]
        if dlo and row[-1] not in head:
            return False  # nothing pins the element on this group
        if head in heads:
            return False  # two selected groups over one parameter type
        heads.add(head)
    # e holds every atom of each refined group it meets
    return size == len(joint) or sum(map(chosen.__contains__, joint)) == size


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
    return _fo_definable_on(r, e, _type_rows(r, (*elems, b)))


def is_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Element definability: pointwise definable everywhere, and adjoining
    the element refines the parameter event algebra by nothing."""
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    if not _pointwise_event(r, elems, b).is_top():
        return False
    base = _algebra(r, elems)
    return all(base.contains(atom) for atom in _algebra(r, [*elems, b]).atoms)


def is_definable_by_pinning(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Ordered-theory decider: on every nonempty isolating event of the
    parameters (those of the types realized on some atom), the element
    must coincide with one of them."""
    if not r.sig.is_dlo:
        raise ValueError("pinning decider needs an ordered theory")
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    agree = [complement(differs(b, x)).members for x in elems]
    return all(
        any(ev.members <= same for same in agree)
        for _, ev in _realized_events(r, elems)
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
    if not _pointwise_event(r, elems, b).is_top():
        return False
    n = len(elems)
    u = f"v{n + 1}"
    base_binding = dict(zip(isolating_vars(n), elems))
    return all(
        ev == eval_event(r, Exists(u, phi), base_binding)
        for phi, ev in _realized_events(r, [*elems, b])
    )


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
    joint = _type_rows(r, (*elems, _resolve(r, elem)))
    family = tuple(
        atom for atom in _algebra(r, elems).atoms if _fo_definable_on(r, atom, joint)
    )
    total = sum((ev.prob for ev in family), Fraction(0))
    return total == 1, family


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

class DefinabilityReport(Record):
    """The verdict and each decider's answer."""

    __slots__ = ("verdict", "paths")

    def __init__(self, verdict: bool, paths: dict[str, bool]):
        _set(self, "verdict", verdict)
        _set(self, "paths", paths)

    @property
    def agree(self) -> bool:
        return len(set(self.paths.values())) == 1


def definability_report(
    r: Randomization, elem: Param, params: ParamSet
) -> DefinabilityReport:
    """Run every applicable definability decider and collect the verdicts.

    The element and the parameters are resolved once; each decider then
    runs its own route on them.
    """
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    paths: dict[str, bool] = {}
    paths["pointwise_algebra"] = is_definable(r, b, elems)
    if r.sig.is_dlo:
        paths["pinning"] = is_definable_by_pinning(r, b, elems)
    paths["piecewise_family"] = piecewise_definable(r, b, elems)[0]
    paths["isolating_events"] = is_definable_by_isolating_events(r, b, elems)
    paths["closure_member"] = fo_definable_on(r, b, r.partition.top(), elems)
    return DefinabilityReport(paths["pointwise_algebra"], paths)
