"""Definability over parameter sets in a finitely presented randomization.

The operators here answer, in several deliberately independent ways, which
events and which elements are definable from a finite tuple of random
elements: the event algebra of the parameters' types, the pointwise test
inside each fiber model, per-event definability through functional
formulas, whole-element deciders (two of them on the isolating-formula
events, one formula per type the parameters realize on some atom),
exhaustive closure enumerations, and a fixpoint closure under the
four-argument if_less combinator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .formula import Exists, Formula, Record
from .measure import Event, EventAlgebra
from .randvar import (
    RandomElement,
    Randomization,
    _type_rows,
    differs,
    eval_event,
    if_less,
)
from .theory import (
    Value,
    definable_in_model,
    isolating_formula,
    isolating_vars,
    type_key,
)

Param = str | RandomElement
ParamSet = Sequence[Param]

def _resolve_elem(r: Randomization, p: Param) -> RandomElement:
    if isinstance(p, str):
        return r.element(p)
    if p.sig != r.sig or p.partition != r.partition:
        raise ValueError("parameter built for a different space")
    return p


def _resolve_params(r: Randomization, params: ParamSet) -> list[RandomElement]:
    names = [p for p in params if isinstance(p, str)]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter name")
    out: list[RandomElement] = []
    for p in params:
        e = _resolve_elem(r, p)
        # compared, not hashed: Fraction hashing is slow and params are few
        if all(e.values != o.values for o in out):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# event algebras
# ---------------------------------------------------------------------------

def _group_indices(r: Randomization, elems: Sequence[RandomElement]) -> list[tuple[int, ...]]:
    """Partition atom indices grouped by the order type of the parameters."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(_type_rows(r, tuple(elems))):
        groups.setdefault(key, []).append(i)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])


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


def fo_event_algebra(r: Randomization, params: ParamSet) -> EventAlgebra:
    """The finite algebra of events definable from the given parameters.

    Two atoms satisfy the same formulas over the parameters exactly when
    the parameters have the same type on both, so the algebra's atoms are
    the groups of atoms by parameter type.  checks.isolating_event_algebra
    builds it independently, from the isolating-formula events.
    """
    elems = _resolve_params(r, params)
    return EventAlgebra(
        tuple(Event(r.partition, frozenset(g)) for g in _group_indices(r, elems))
    )


# ---------------------------------------------------------------------------
# pointwise definability
# ---------------------------------------------------------------------------

def pointwise_definable_event(
    r: Randomization, elem: Param, params: ParamSet
) -> Event:
    """Atoms on which the element's value is definable from the parameter
    values inside the fiber model."""
    b = _resolve_elem(r, elem)
    elems = _resolve_params(r, params)
    members = frozenset(
        i
        for i in range(r.partition.size)
        if definable_in_model(
            r.sig, b.values[i], tuple(e.values[i] for e in elems)
        )
    )
    return Event(r.partition, members)


def is_pointwise_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    return pointwise_definable_event(r, elem, params).is_top()


# ---------------------------------------------------------------------------
# event-local and whole-element deciders
# ---------------------------------------------------------------------------

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
    """
    b = _resolve_elem(r, elem)
    elems = _resolve_params(r, params)
    if e.partition != r.partition:
        raise ValueError("partition mismatch")

    base_key = {}
    refined_key = {}
    for i in range(r.partition.size):
        vals = tuple(x.values[i] for x in elems)
        base_key[i] = type_key(r.sig, vals)
        refined_key[i] = type_key(r.sig, vals + (b.values[i],))
    refined_groups: dict[tuple, list[int]] = {}
    for i in range(r.partition.size):
        refined_groups.setdefault(refined_key[i], []).append(i)

    selected_base: set[tuple] = set()
    for key, group in refined_groups.items():
        inside = [i for i in group if i in e.members]
        if not inside:
            continue
        if len(inside) != len(group):
            return False  # e splits a refined group
        rep = group[0]
        base = base_key[rep]
        if base in selected_base:
            return False  # two selected groups over one parameter type
        selected_base.add(base)
        if r.sig.is_dlo and not any(
            x.values[rep] == b.values[rep] for x in elems
        ):
            return False  # nothing pins the element on this group
    return True


def is_definable(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Element definability: pointwise definable everywhere, and adjoining
    the element refines the parameter event algebra by nothing."""
    if not is_pointwise_definable(r, elem, params):
        return False
    b = _resolve_elem(r, elem)
    base = fo_event_algebra(r, params)
    refined = fo_event_algebra(r, tuple(params) + (b,))
    return all(base.contains(atom) for atom in refined.atoms)


def is_definable_by_pinning(r: Randomization, elem: Param, params: ParamSet) -> bool:
    """Ordered-theory decider: on every nonempty isolating event of the
    parameters (those of the types realized on some atom), the element
    must coincide with one of them."""
    if not r.sig.is_dlo:
        raise ValueError("pinning decider needs an ordered theory")
    b = _resolve_elem(r, elem)
    elems = _resolve_params(r, params)
    return all(
        any(ev.members <= (~differs(b, x)).members for x in elems)
        for _, ev in _realized_events(r, elems)
    )


def is_definable_by_isolating_events(
    r: Randomization, elem: Param, params: ParamSet
) -> bool:
    """Cross-check decider: pointwise definability plus, for every isolating
    formula of (parameters, element) with positive weight (those of the
    types realized on some atom), the formula's event equals the event of
    its existential projection."""
    if not is_pointwise_definable(r, elem, params):
        return False
    b = _resolve_elem(r, elem)
    elems = _resolve_params(r, params)
    n = len(elems)
    u = f"v{n + 1}"
    base_binding = dict(zip(isolating_vars(n), elems))
    return all(
        ev == eval_event(r, Exists(u, phi), base_binding)
        for phi, ev in _realized_events(r, elems + [b])
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
    base = fo_event_algebra(r, params)
    family = tuple(
        atom for atom in base.atoms if fo_definable_on(r, elem, atom, params)
    )
    total = sum((ev.prob for ev in family), Fraction(0))
    return total == 1, family


# ---------------------------------------------------------------------------
# closure enumerations
# ---------------------------------------------------------------------------

def _sorted_elems(
    r: Randomization, vectors: set[tuple[Value, ...]]
) -> list[RandomElement]:
    return [
        RandomElement(r.sig, r.partition, v) for v in sorted(vectors)
    ]


def definable_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Every element definable from the parameters, enumerated exactly.

    Ordered theory: all mixtures that agree with some parameter on each
    atom of the parameter event algebra (no parameters means no elements).
    Enumerated domain: all step functions measurable in that algebra.
    """
    elems = _resolve_params(r, params)
    if r.sig.is_dlo and not elems:
        return []
    groups = _group_indices(r, elems)
    per_group: list[list[tuple[Value, ...]]] = []
    if r.sig.is_dlo:
        for g in groups:
            seen: dict[tuple[Value, ...], None] = {}
            for e in elems:
                seen.setdefault(tuple(e.values[i] for i in g))
            per_group.append(list(seen))
    else:
        assert r.sig.n is not None
        for g in groups:
            per_group.append([(v,) * len(g) for v in range(r.sig.n)])
    vectors: set[tuple[Value, ...]] = set()
    size = r.partition.size
    for combo in itertools.product(*per_group):
        vec: list[Value] = [0] * size
        for g, restriction in zip(groups, combo):
            for pos, val in zip(g, restriction):
                vec[pos] = val
        vectors.add(tuple(vec))
    return _sorted_elems(r, vectors)


def fo_definable_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Every element carved out everywhere by a functional formula over the
    parameters; enumerated independently of definable_closure by filtering
    a sound candidate pool through fo_definable_on."""
    elems = _resolve_params(r, params)
    top = r.partition.top()
    pools: list[list[Value]]
    if r.sig.is_dlo:
        if not elems:
            return []
        pools = []
        for i in range(r.partition.size):
            seen: dict[Value, None] = {}
            for e in elems:
                seen.setdefault(e.values[i])
            pools.append(list(seen))
        candidates = (tuple(vec) for vec in itertools.product(*pools))
    else:
        assert r.sig.n is not None
        groups = _group_indices(r, elems)
        size = r.partition.size

        def enum_candidates():
            for combo in itertools.product(range(r.sig.n), repeat=len(groups)):
                vec: list[Value] = [0] * size
                for g, v in zip(groups, combo):
                    for pos in g:
                        vec[pos] = v
                yield tuple(vec)

        candidates = enum_candidates()
    vectors = {
        vec
        for vec in candidates
        if fo_definable_on(
            r, RandomElement(r.sig, r.partition, vec), top, elems
        )
    }
    return _sorted_elems(r, vectors)


# ---------------------------------------------------------------------------
# if_less fixpoint closure
# ---------------------------------------------------------------------------

def _if_less_closure_naive(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Reference fixpoint: iterate if_less over element quadruples until no
    new element appears.  Exponential; only for small cross-checks."""
    elems = _resolve_params(r, params)
    if not r.sig.is_dlo:
        raise ValueError("if_less closure needs an ordered theory")
    current = {e.values: e for e in elems}
    while True:
        pool = list(current.values())
        added = False
        for a, b in itertools.product(pool, repeat=2):
            for x, y in itertools.product(pool, repeat=2):
                z = if_less(a, b, x, y)
                if z.values not in current:
                    current[z.values] = z
                    added = True
        if not added:
            return _sorted_elems(r, set(current))


def if_less_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Least set of elements containing the parameters and closed under the
    four-argument if_less combinator.

    An application if_less(u, v, x, y) copies x on the event "u < v" and y
    off it; since u < v is decided per order-type group, the result selects
    between x and y groupwise, following the comparison pattern of (u, v).
    Composing such selections yields exactly the mixes measurable in the
    algebra the realized patterns generate over the groups.  So the closure
    is computed by partition refinement: start with all groups in one block
    carrying the parameters' joint patterns, and split a block whenever a
    realized comparison orders two of its patterns differently on two of
    its coordinates.  Once no block splits, the closure is the product of
    the per-block pattern sets.
    """
    elems = _resolve_params(r, params)
    if not r.sig.is_dlo:
        raise ValueError("if_less closure needs an ordered theory")
    if not elems:
        return []
    groups = _group_indices(r, elems)
    m = len(groups)

    restrictions: list[list[tuple[Value, ...]]] = []
    elem_coord: list[list[int]] = [[] for _ in elems]
    for g in groups:
        table: dict[tuple[Value, ...], int] = {}
        for j, e in enumerate(elems):
            vec = tuple(e.values[i] for i in g)
            idx = table.setdefault(vec, len(table))
            elem_coord[j].append(idx)
        restrictions.append(list(table))

    # distinct restrictions on a group have distinct leading values, and the
    # comparison between two of them is the same on every atom of the group
    less: list[list[list[bool]]] = [
        [[ri[0] < rj[0] for rj in rs] for ri in rs] for rs in restrictions
    ]

    def dedup(pats) -> list[tuple[int, ...]]:
        return list(dict.fromkeys(pats))

    Block = tuple[tuple[int, ...], list[tuple[int, ...]]]
    blocks: list[Block] = [
        (tuple(range(m)), dedup(tuple(ec) for ec in elem_coord))
    ]
    while True:
        split = False
        refined: list[Block] = []
        for coords, pats in blocks:
            by_sig: dict[tuple[bool, ...], list[int]] = {}
            for pos, d in enumerate(coords):
                sig = tuple(
                    less[d][t[pos]][s[pos]] for t in pats for s in pats
                )
                by_sig.setdefault(sig, []).append(pos)
            if len(by_sig) == 1:
                refined.append((coords, pats))
                continue
            split = True
            for positions in by_sig.values():
                sub_coords = tuple(coords[p] for p in positions)
                sub_pats = dedup(tuple(t[p] for p in positions) for t in pats)
                refined.append((sub_coords, sub_pats))
        blocks = refined
        if not split:
            break

    vectors: set[tuple[Value, ...]] = set()
    size = r.partition.size
    for combo in itertools.product(*(pats for _, pats in blocks)):
        vec: list[Value] = [0] * size
        for (coords, _), pat in zip(blocks, combo):
            for d, idx in zip(coords, pat):
                for pos, val in zip(groups[d], restrictions[d][idx]):
                    vec[pos] = val
        vectors.add(tuple(vec))
    return _sorted_elems(r, vectors)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

class DefinabilityReport:
    """The verdict and each decider's answer; compared by both, unhashable."""

    __slots__ = ("verdict", "paths")
    __eq__, __repr__ = Record.__eq__, Record.__repr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, verdict: bool, paths: dict[str, bool]):
        self.verdict = verdict
        self.paths = paths

    def _fields(self) -> tuple:
        return (self.verdict, self.paths)

    @property
    def agree(self) -> bool:
        return len(set(self.paths.values())) == 1


def definability_report(
    r: Randomization, elem: Param, params: ParamSet
) -> DefinabilityReport:
    """Run every applicable definability decider and collect the verdicts."""
    b = _resolve_elem(r, elem)
    paths: dict[str, bool] = {}
    paths["pointwise_algebra"] = is_definable(r, b, params)
    if r.sig.is_dlo:
        paths["pinning"] = is_definable_by_pinning(r, b, params)
    paths["piecewise_family"] = piecewise_definable(r, b, params)[0]
    paths["isolating_events"] = is_definable_by_isolating_events(r, b, params)
    closure = definable_closure(r, params)
    paths["closure_member"] = any(b.values == c.values for c in closure)
    return DefinabilityReport(paths["pointwise_algebra"], paths)
