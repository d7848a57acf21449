"""Random elements of a finitely presented randomization.

An element is a step function over the partition: one theory value per
atom (rationals for DLO, 0..n-1 for FiniteEnum).  This module evaluates
formula events pointwise, measures the distance between elements, and
provides the pointwise combinators: glue, indicator, if_less, min, max,
and the deterministic witness builder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Callable, Mapping, Sequence

from .formula import (
    Exists,
    Formula,
    MutableRecord,
    Record,
    Signature,
)
from .measure import Event, Partition, as_fraction
from .theory import Value, _check_assignment, eval_qf, qe, type_key

_set = object.__setattr__


class RandomElement(Record):
    __slots__ = ("sig", "partition", "values")

    def __init__(self, sig: Signature, partition: Partition, values: Sequence[Value]):
        if len(values) != partition.size:
            raise ValueError(
                f"element has {len(values)} values for {partition.size} atoms"
            )
        if sig.is_dlo:
            vals = tuple(v if type(v) is Fraction else as_fraction(v) for v in values)
        else:
            n = sig.n
            assert n is not None
            for v in values:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"value {v!r} out of domain 0..{n - 1}")
                if not 0 <= v < n:
                    raise ValueError(f"value {v} out of domain 0..{n - 1}")
            vals = tuple(values)
        _set(self, "sig", sig)
        _set(self, "partition", partition)
        _set(self, "values", vals)

    @classmethod
    def _trusted(
        cls, sig: Signature, partition: Partition, values: tuple
    ) -> RandomElement:
        """An element whose values were all taken from elements of the
        same space (decoded closure members, if_less, glue), so they need
        no checking again."""
        e = object.__new__(cls)
        _set(e, "sig", sig)
        _set(e, "partition", partition)
        _set(e, "values", values)
        return e

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


class Randomization(MutableRecord):
    """A theory, a weighted partition, and named random elements.

    _last_type_rows is _type_rows's cache, left out of == and repr.
    """

    __slots__ = ("sig", "partition", "elements", "_last_type_rows")

    def __init__(
        self,
        sig: Signature,
        partition: Partition,
        elements: dict[str, RandomElement] | None = None,
    ):
        self.sig = sig
        self.partition = partition
        self.elements = {} if elements is None else elements
        self._last_type_rows: tuple[tuple[RandomElement, ...], list[tuple]] = ((), [])
        for name, e in self.elements.items():
            if e.sig != sig or e.partition != partition:
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


def _compatible(a: RandomElement, b: RandomElement) -> None:
    # elements of one space share these objects, so identity settles most
    if a.partition is not b.partition and a.partition != b.partition:
        raise ValueError("partition mismatch")
    if a.sig is not b.sig and a.sig != b.sig:
        raise ValueError("signature mismatch")


def _resolve(r: Randomization, p: str | RandomElement) -> RandomElement:
    """The element p names in r, or p itself once it is checked to belong
    to r's space."""
    if isinstance(p, str):
        return r.element(p)
    if p.sig != r.sig or p.partition != r.partition:
        raise ValueError("element built for a different space")
    return p


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


def _per_type(
    r: Randomization, bound: dict[str, RandomElement], decide: Callable
) -> list:
    """decide's answer on each atom, in atom order.

    What a formula says about the bound elements on an atom depends only
    on the type of their value tuple there (theory.type_key), so decide is
    called once per distinct type, on the type key itself, given as the
    assignment of each bound variable to its entry.
    """
    names = tuple(bound)
    answers: dict[tuple, object] = {}
    out = []
    for key in _type_rows(r, tuple(bound.values())):
        got = answers.get(key)
        if got is None:
            got = answers[key] = decide(dict(zip(names, key)))
        out.append(got)
    return out


def eval_event(
    r: Randomization,
    f: Formula,
    binding: Mapping[str, str | RandomElement],
) -> Event:
    """The event on which f holds, with variables bound to elements.

    f is decided once per type of the bound values (see _per_type), by
    eval_qf on qe(f) in either theory.  A symbol outside the signature
    raises before an unbound variable does.
    """
    decide = partial(eval_qf, qe(f, r.sig))
    bound = {v: _resolve(r, p) for v, p in binding.items()}
    _check_assignment(f, bound)
    holds = _per_type(r, bound, decide)
    return Event(r.partition, frozenset(compress(range(len(holds)), holds)))


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
    return RandomElement._trusted(a.sig, a.partition, values)


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
    return RandomElement._trusted(a.sig, a.partition, values)


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

    Which regions satisfy depends only on the type of the bound values
    (theory.type_key), so it is decided once per type that occurs; each
    atom then only does the arithmetic of its own values.
    """
    g = qe(theta, r.sig)
    bound = {v: _resolve(r, p) for v, p in (binding or {}).items()}
    _check_assignment(Exists(u, theta), bound)  # u itself needs no binding
    params = {var: e for var, e in bound.items() if var != u}
    if r.sig.is_dlo:
        rule = partial(_dlo_rule, g, u)
    else:
        assert r.sig.n is not None
        rule = partial(_enum_rule, r.sig.n, g, u)
    columns = [e.values for e in params.values()]
    values = tuple(
        choose([col[i] for col in columns])
        for i, choose in enumerate(_per_type(r, params, rule))
    )
    return RandomElement(r.sig, r.partition, values)


def _enum_rule(
    n: int, g: Formula, u: str, assign: dict[str, Value]
) -> Callable[[list[Value]], Value]:
    """The smallest domain value satisfying g for this tuple, default 0."""
    pick = next((d for d in range(n) if eval_qf(g, {**assign, u: d})), 0)
    return lambda _: pick


def _dlo_rule(
    g: Formula, u: str, ranks: dict[str, int]
) -> Callable[[list[Fraction]], Fraction]:
    """The witness rule (see witness) for one order type of the bound
    values, given as their dense ranks: it maps an atom's bound values of
    that type to the witness value there.

    The regions are decided on the ranks doubled, so that 2j + 1 lies in
    the gap above rank j, -1 below all and 2 * top + 1 above all.
    """
    if not ranks:
        return lambda _: Fraction(0)  # sole order region; also the default
    top = max(ranks.values())
    assign = {v: 2 * k for v, k in ranks.items()}

    def sat(point: int) -> bool:
        assign[u] = point
        return eval_qf(g, assign)

    # position in the bound tuple of a value of each rank, lowest rank first
    first: dict[int, int] = {}
    for pos, k in enumerate(ranks.values()):
        first.setdefault(k, pos)
    at = [first[k] for k in range(top + 1)]
    gaps = [j for j in range(top) if sat(2 * j + 1)]
    if gaps:

        def tightest_midpoint(vals: list[Fraction]) -> Fraction:
            # min keeps the lowest of equally tight gaps
            j = min(gaps, key=lambda j: vals[at[j + 1]] - vals[at[j]])
            return Fraction(vals[at[j]] + vals[at[j + 1]], 2)

        return tightest_midpoint
    for j in range(top + 1):
        if sat(2 * j):
            return lambda vals: vals[at[j]]
    if sat(-1):
        return lambda vals: vals[at[0]] - 1
    if sat(2 * top + 1):
        return lambda vals: vals[at[top]] + 1
    return lambda _: Fraction(0)
