"""Library operations that no request runs.

The signature check and substitution of formulas, the generated
subalgebra, partition refinement with the transport of events and
elements, the pointwise combinators indicator, if_less, min and max, and
the single-decider entry points (closure.definability_report runs their
routes together).  The cross-checks, the tests and library callers import
this module; of the subcommands only check and fuzz load it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .algebra import (
    EventAlgebra,
    Param,
    ParamSet,
    _algebra,
    _places,
    _pointwise_event,
    _resolve_params,
    pointwise_definable_event,
)
from .closure import (
    _fo_definable_on,
    _piecewise,
    _pinned,
    _projections_agree,
    _refines_nothing,
)
from .formula import (
    Atom,
    Const,
    Formula,
    Not,
    Term,
    Var,
    _Binary,
    _Quantifier,
    _check_atom,
    free_vars,
    subformulas,
)
from .measure import Event, Partition
from .randvar import (
    RandomElement,
    Randomization,
    _compatible,
    _resolve,
    _type_rows,
    differs,
    glue,
)
from .records import Signature, Value


# ---------------------------------------------------------------------------
# signature check and substitution
# ---------------------------------------------------------------------------

def check_signature(f: Formula, sig: Signature) -> None:
    """Reject formulas using symbols outside sig (raises ValueError, for
    the first offending atom from the left)."""
    for g in subformulas(f):
        if isinstance(g, Atom):
            _check_atom(g, sig)


def _term_vars(t: Term) -> set[str]:
    return {t.name} if isinstance(t, Var) else set()


def substitute(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneously replace free variables by terms, capture-avoiding.

    Bound variables that would capture a substituted name are renamed with
    the prime-suffix scheme (u, u', u'', ...).
    """
    for k, v in mapping.items():
        if not isinstance(v, (Var, Const)):
            raise TypeError(f"substitution for {k!r} must be a term, got {v!r}")
    return _subst(f, dict(mapping))


def _subst(g: Formula, m: dict[str, Term]) -> Formula:
    if not m:
        return g
    if isinstance(g, Atom):
        lhs = m.get(g.lhs.name, g.lhs) if isinstance(g.lhs, Var) else g.lhs
        rhs = m.get(g.rhs.name, g.rhs) if isinstance(g.rhs, Var) else g.rhs
        if lhs is g.lhs and rhs is g.rhs:
            return g
        return Atom(lhs, g.rel, rhs)
    if isinstance(g, Not):
        return Not(_subst(g.body, m))
    if isinstance(g, _Binary):
        return type(g)(_subst(g.lhs, m), _subst(g.rhs, m))
    if isinstance(g, _Quantifier):
        body_free = set(free_vars(g.body))
        m2 = {k: v for k, v in m.items() if k != g.var and k in body_free}
        if not m2:
            return g
        image: set[str] = set()
        for t in m2.values():
            image |= _term_vars(t)
        if g.var in image:
            avoid = body_free | image | set(m2)
            fresh = g.var
            while fresh in avoid:
                fresh += "'"
            renamed = _subst(g.body, {g.var: Var(fresh)})
            return type(g)(fresh, _subst(renamed, m2))
        return type(g)(g.var, _subst(g.body, m2))
    return g


# ---------------------------------------------------------------------------
# generated algebras and refinement
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# pointwise combinators
# ---------------------------------------------------------------------------

def indicator(e: Event, a: RandomElement, b: RandomElement) -> RandomElement:
    """The element reading a on e and b elsewhere, for everywhere-apart a, b.

    Requiring a and b to differ on every atom makes the result determine e
    exactly, so it characterizes the event; raises ValueError otherwise.
    """
    _compatible(a, b)
    if not differs(a, b).is_top():
        raise ValueError("elements agree somewhere, no characteristic element")
    return glue(a, b, e)


def if_less(
    a: RandomElement, b: RandomElement, x: RandomElement, y: RandomElement
) -> RandomElement:
    """Pointwise: x where a < b, else y (DLO only)."""
    _compatible(a, b)
    _compatible(a, x)
    _compatible(a, y)
    if not a.sig.is_dlo:
        raise ValueError("if_less needs an ordered theory")
    values = tuple(
        xv if av < bv else yv
        for av, bv, xv, yv in zip(a.values, b.values, x.values, y.values)
    )
    return RandomElement(a.sig, a.partition, values)


def pointwise_min(a: RandomElement, b: RandomElement) -> RandomElement:
    return if_less(a, b, a, b)


def pointwise_max(a: RandomElement, b: RandomElement) -> RandomElement:
    return if_less(a, b, b, a)


def transport_elem(
    elem: RandomElement, refined: Partition, mapping: dict[int, tuple[int, ...]]
) -> RandomElement:
    values: list[Value] = [0] * refined.size
    for i, v in enumerate(elem.values):
        for j in mapping[i]:
            values[j] = v
    return RandomElement(elem.sig, refined, tuple(values))


# ---------------------------------------------------------------------------
# single-decider entry points
# ---------------------------------------------------------------------------

# Each public decider resolves its parameters and runs its route on the
# resolved elements; closure.definability_report resolves them once for
# all five.

def is_pointwise_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    return pointwise_definable_event(r, elem, params).is_top()


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


def is_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Element definability: pointwise definable everywhere, and adjoining
    the element refines the parameter event algebra by nothing."""
    b = _resolve(r, elem)
    elems = _resolve_params(r, params)
    if not _pointwise_event(r, _places(r, elems, b)).is_top():
        return False
    return _refines_nothing(r, b, elems, _algebra(r, elems))


def is_definable_by_pinning(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Ordered-theory decider: on every nonempty isolating event of the
    parameters (those of the types realized on some atom), the element
    must coincide with one of them."""
    if not r.sig.is_dlo:
        raise ValueError("pinning decider needs an ordered theory")
    b = _resolve(r, elem)
    return _pinned(r, b, _resolve_params(r, params))


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
