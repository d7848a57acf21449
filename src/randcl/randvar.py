"""Random elements of a finitely presented randomization.

An element is a step function over the partition: one theory value per
atom (rationals for DLO, 0..n-1 for FiniteEnum).  This module evaluates
formula events pointwise, measures the distance between elements, and
provides the pointwise combinators: glue, indicator, if_less, min, max,
and the deterministic witness builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence

from .formula import (
    Exists,
    Formula,
    Signature,
    free_vars,
)
from .measure import Event, Partition, as_fraction
from .theory import Value, eval_qf, qe, type_key


@dataclass(frozen=True)
class RandomElement:
    sig: Signature
    partition: Partition
    values: tuple[Value, ...]

    def __post_init__(self):
        if len(self.values) != self.partition.size:
            raise ValueError(
                f"element has {len(self.values)} values for "
                f"{self.partition.size} atoms"
            )
        if self.sig.is_dlo:
            vals = tuple(
                v if type(v) is Fraction else as_fraction(v) for v in self.values
            )
        else:
            assert self.sig.n is not None
            for v in self.values:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"value {v!r} out of domain 0..{self.sig.n - 1}")
                if not 0 <= v < self.sig.n:
                    raise ValueError(f"value {v} out of domain 0..{self.sig.n - 1}")
            vals = tuple(self.values)
        object.__setattr__(self, "values", vals)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@dataclass
class Randomization:
    """A theory, a weighted partition, and named random elements."""

    sig: Signature
    partition: Partition
    elements: dict[str, RandomElement] = field(default_factory=dict)
    _last_type_rows: tuple[tuple[RandomElement, ...], list[tuple]] = field(
        default=((), []), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name, e in self.elements.items():
            if e.sig != self.sig or e.partition != self.partition:
                raise ValueError(f"element {name!r} built for a different space")

    @classmethod
    def build(
        cls,
        sig: Signature,
        part: Partition,
        elements: Mapping[str, Sequence[Value]],
    ) -> "Randomization":
        built = {
            name: RandomElement(sig, part, tuple(vals))
            for name, vals in elements.items()
        }
        return cls(sig, part, built)

    def element(self, name: str) -> RandomElement:
        try:
            return self.elements[name]
        except KeyError:
            raise ValueError(f"unknown element {name!r}") from None

    def with_element(self, name: str, elem: RandomElement) -> "Randomization":
        if elem.sig != self.sig or elem.partition != self.partition:
            raise ValueError(f"element {name!r} built for a different space")
        merged = dict(self.elements)
        merged[name] = elem
        return Randomization(self.sig, self.partition, merged)


def _compatible(a: RandomElement, b: RandomElement) -> None:
    if a.partition != b.partition:
        raise ValueError("partition mismatch")
    if a.sig != b.sig:
        raise ValueError("signature mismatch")


def _resolve_binding(
    r: Randomization, binding: Mapping[str, str | RandomElement]
) -> dict[str, RandomElement]:
    out = {}
    for var, val in binding.items():
        elem = r.element(val) if isinstance(val, str) else val
        if elem.sig != r.sig or elem.partition != r.partition:
            raise ValueError(f"binding for {var!r} built for a different space")
        out[var] = elem
    return out


def _type_rows(r: Randomization, elems: tuple[RandomElement, ...]) -> list[tuple]:
    """theory.type_key of the elements' values on each atom.

    The deciders evaluate thousands of formulas over one element tuple, so
    r keeps the rows of the last tuple asked for (one entry; elements are
    immutable, so an equal tuple has the same rows).
    """
    if not elems:
        return [()] * r.partition.size
    cached, rows = r._last_type_rows
    if cached == elems:
        return rows
    rows = [type_key(r.sig, vals) for vals in zip(*(e.values for e in elems))]
    r._last_type_rows = (elems, rows)
    return rows


def eval_event(
    r: Randomization,
    f: Formula,
    binding: Mapping[str, str | RandomElement],
) -> Event:
    """The event on which f holds, with variables bound to elements.

    The truth of f on an atom depends only on the type of the bound value
    tuple there (theory.type_key), so f is decided once per distinct type,
    on the type key itself, by eval_qf on qe(f) in either theory.  A
    symbol outside the signature raises before an unbound variable does.
    """
    decide = partial(eval_qf, qe(f, r.sig))
    bound = _resolve_binding(r, binding)
    for v in free_vars(f):
        if v not in bound:
            raise ValueError(f"unassigned free variable {v!r}")
    names = tuple(bound)
    verdicts: dict[tuple, bool] = {}
    members = []
    for i, key in enumerate(_type_rows(r, tuple(bound.values()))):
        holds = verdicts.get(key)
        if holds is None:
            holds = verdicts[key] = decide(dict(zip(names, key)))
        if holds:
            members.append(i)
    return Event(r.partition, frozenset(members))


def differs(a: RandomElement, b: RandomElement) -> Event:
    """The event on which a and b take different values."""
    _compatible(a, b)
    members = frozenset(
        i for i, (x, y) in enumerate(zip(a.values, b.values)) if x != y
    )
    return Event(a.partition, members)


def elem_dist(a: RandomElement, b: RandomElement) -> Fraction:
    """Probability that a and b differ."""
    return differs(a, b).prob


def glue(a: RandomElement, b: RandomElement, e: Event) -> RandomElement:
    """The element equal to a on e and to b off e."""
    _compatible(a, b)
    if e.partition != a.partition:
        raise ValueError("partition mismatch")
    values = tuple(
        a.values[i] if i in e.members else b.values[i]
        for i in range(a.partition.size)
    )
    return RandomElement(a.sig, a.partition, values)


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
        x.values[i] if a.values[i] < b.values[i] else y.values[i]
        for i in range(a.partition.size)
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
# witnesses
# ---------------------------------------------------------------------------

def witness(
    r: Randomization,
    theta: Formula,
    u: str,
    binding: Mapping[str, str | RandomElement] | None = None,
) -> RandomElement:
    """A deterministic element w with theta(w) holding wherever possible.

    Atom by atom, the bound values carve the line into order regions
    (each value; each open interval between consecutive values; below all;
    above all) on which the truth of theta is constant.  The choice is, in
    order of preference: midpoint of the tightest satisfying bounded open
    interval, smallest satisfying value (forced equality), one below the
    smallest value when only the left tail satisfies, one above the largest
    when only the right tail does, and 0 when nothing satisfies or no
    values are bound.  For FiniteEnum the smallest satisfying domain value
    is chosen, default 0.
    """
    g = qe(theta, r.sig)
    bound = _resolve_binding(r, binding or {})
    for v in free_vars(theta):
        if v != u and v not in bound:
            raise ValueError(f"unassigned free variable {v!r}")
    if r.sig.is_dlo:
        pick = _pick_dlo
    else:
        assert r.sig.n is not None
        pick = partial(_pick_enum, r.sig.n)
    values = [
        pick(g, u, {var: e.values[i] for var, e in bound.items() if var != u})
        for i in range(r.partition.size)
    ]
    return RandomElement(r.sig, r.partition, tuple(values))


def _pick_enum(n: int, g: Formula, u: str, assign: dict[str, Value]) -> int:
    for d in range(n):
        if eval_qf(g, {**assign, u: d}):
            return d
    return 0


def _pick_dlo(g: Formula, u: str, assign: dict[str, Value]) -> Fraction:
    vals = sorted({Fraction(v) for v in assign.values()})
    if not vals:
        return Fraction(0)  # sole order region; also the unsatisfiable default

    def sat(candidate: Fraction) -> bool:
        assign[u] = candidate
        result = eval_qf(g, assign)
        del assign[u]
        return result

    best_gap: tuple[Fraction, Fraction] | None = None
    for lo, hi in zip(vals, vals[1:]):
        if sat(Fraction(lo + hi, 2)):
            if best_gap is None or hi - lo < best_gap[1] - best_gap[0]:
                best_gap = (lo, hi)
    if best_gap is not None:
        return Fraction(best_gap[0] + best_gap[1], 2)
    for v in vals:
        if sat(v):
            return v
    if sat(vals[0] - 1):
        return vals[0] - 1
    if sat(vals[-1] + 1):
        return vals[-1] + 1
    return Fraction(0)
