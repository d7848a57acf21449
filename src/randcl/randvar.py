"""Random elements of a finitely presented randomization.

An element is a step function over the partition: one theory value per
atom (rationals for DLO, 0..n-1 for FiniteEnum).  This module evaluates
formula events pointwise, measures the distance between elements, and
provides the pointwise combinators: glue, indicator, if_less, min, max,
and the deterministic witness builder.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from itertools import compress
from operator import itemgetter, ne

from .formula import (
    Atom,
    Const,
    Exists,
    Formula,
    MutableRecord,
    Record,
    Signature,
    subformulas,
)
from .measure import _MAX_DIGITS, _TOO_MANY_DIGITS, Event, Partition, as_fraction
from .theory import Value, _check_assignment, eval_qf, qe

_set = object.__setattr__


class RandomElement(Record):
    # _keys: derived from values, filled on first use by _exact_keys
    __slots__ = ("sig", "partition", "values", "_keys")

    def __init__(self, sig: Signature, partition: Partition, values: Sequence[Value]):
        vals = tuple(values)
        size = partition.size
        if len(vals) != size:
            raise ValueError(f"element has {len(vals)} values for {size} atoms")
        # checked over the whole tuple at once; only a tuple that fails is
        # scanned value by value, so the first bad value is the one named
        if sig.is_dlo:
            if set(map(type, vals)) != {Fraction}:
                vals = tuple(v if type(v) is Fraction else as_fraction(v) for v in vals)
        else:
            n = sig.n
            assert n is not None
            if set(map(type, vals)) != {int} or min(vals) < 0 or max(vals) >= n:
                for v in vals:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"value {v!r} out of domain 0..{n - 1}")
                    if not 0 <= v < n:
                        raise ValueError(f"value {v} out of domain 0..{n - 1}")
        _set(self, "sig", sig)
        _set(self, "partition", partition)
        _set(self, "values", vals)
        _set(self, "_keys", None)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.values)) + ")"


def _value_texts(rows: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    """str of each value of each row; each distinct value object is
    rendered once, however many entries hold it (the loader shares one
    object among the entries of a repeated string)."""
    # kept: str per entry instead took the two wide lcl requests 192 -> 198 ms CPU
    objs: dict[int, Fraction] = {}
    for vals in rows:
        objs.update(zip(map(id, vals), vals))
    text = {i: str(v) for i, v in objs.items()}
    return [list(map(text.__getitem__, map(id, vals))) for vals in rows]


def _element_texts(elems: Sequence[RandomElement]) -> list[str]:
    """str of each element: DLO values through _value_texts, ints as they
    are (str of an int costs less than the lookup)."""
    if elems and elems[0].sig.is_dlo:
        texts: Sequence = _value_texts([e.values for e in elems])
    else:
        texts = [map(str, e.values) for e in elems]
    return ["(" + ", ".join(t) + ")" for t in texts]


class Randomization(MutableRecord):
    """A theory, a weighted partition, and named random elements.

    _last_type_rows is _type_rows's memo, one (elements, rows) pair or
    None, left out of == and repr.
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
        self._last_type_rows = None
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
    # elements of one space share these objects, so identity settles most
    if (p.sig is not r.sig and p.sig != r.sig) or (
        p.partition is not r.partition and p.partition != r.partition
    ):
        raise ValueError("element built for a different space")
    return p


# floor(v * 2**k) orders values exactly while every denominator is below
# 2**(k // 2): two such values that differ, differ by more than 2**-k.  An
# element's k is twice the bit length of its largest denominator, and at
# least _KEY_BITS, so that elements whose denominators are all below 2**32
# share one k and a tuple of them uses each element's kept keys as they are
_KEY_BITS = 64


def _floor_keys(
    values: Sequence[Fraction], k: int = 0
) -> tuple[int, tuple[int, ...]]:
    """(k, floor(v * 2**k) for each value), k raised to the values' own
    width when it is below it.

    Each distinct value object is read once, keyed by identity (a
    Fraction hashes in Python code, an int in C), so entries that share an
    object, as the loader shares them, cost one conversion.
    """
    objs = dict(zip(map(id, values), values))
    ratios = list(map(Fraction.as_integer_ratio, objs.values()))
    k = max(k, _KEY_BITS, 2 * max(map(itemgetter(1), ratios)).bit_length())
    key = dict(zip(objs, [(n << k) // d for n, d in ratios]))
    return k, tuple(map(key.__getitem__, map(id, values)))


def _exact_keys(e: RandomElement) -> tuple[int, tuple[int, ...]]:
    """A DLO element's keys at its own k (see _floor_keys), kept in e._keys.
    Equal values give equal keys at an equal k."""
    if e._keys is None:
        _set(e, "_keys", _floor_keys(e.values))
    return e._keys


def _int_columns(
    sig: Signature, elems: Sequence[RandomElement]
) -> list[Sequence[int]]:
    """The elements' values as columns of ints that compare, across the
    elements, exactly as the values do.

    Under an enumerated domain, the values.  Under DLO, each value's
    floor(v * 2**k) at the largest k of the elements (see _floor_keys):
    each element's kept keys, worked out again only for an element whose
    own k is smaller.  No common denominator is formed, so the cost does
    not grow with the number of distinct denominators.
    """
    if not sig.is_dlo:
        return [e.values for e in elems]
    kept = list(map(_exact_keys, elems))
    widths = set(map(itemgetter(0), kept))
    if len(widths) < 2:  # one k, as for any denominators below 2**32
        return list(map(itemgetter(1), kept))
    k = max(widths)
    return [
        col if bits == k else _floor_keys(e.values, k)[1]
        for e, (bits, col) in zip(elems, kept)
    ]


def _dense_ranks(t: tuple[int, ...]) -> tuple[int, ...]:
    """oracles.type_key of a DLO tuple, for values held as ints that
    compare as they do."""
    return tuple(map(sorted(set(t)).index, t))


def _type_rows(r: Randomization, elems: tuple[RandomElement, ...]) -> list[tuple]:
    """oracles.type_key of the elements' values on each atom, computed once
    per distinct tuple of their integer columns (see _int_columns).

    The deciders evaluate thousands of formulas over one element tuple, so
    r keeps the rows of the last tuple asked for.  Elements are immutable,
    so an equal tuple has the same rows.
    """
    if not elems:
        return [()] * r.partition.size
    kept = r._last_type_rows
    if kept is not None and kept[0] == elems:
        return kept[1]
    rows = list(zip(*_int_columns(r.sig, elems)))
    if r.sig.is_dlo:
        key = {t: _dense_ranks(t) for t in set(rows)}
        rows = list(map(key.__getitem__, rows))
    r._last_type_rows = (elems, rows)
    return rows


def _per_type(
    r: Randomization, bound: dict[str, RandomElement], decide: Callable
) -> list:
    """decide's answer on each atom, in atom order.

    What a formula says about the bound elements on an atom depends only
    on the type of their value tuple there (oracles.type_key), so decide is
    called once per distinct type, on the type key itself, given as the
    assignment of each bound variable to its entry.
    """
    names = tuple(bound)
    rows = _type_rows(r, tuple(bound.values()))
    answers = dict.fromkeys(rows)
    for key in answers:
        answers[key] = decide(dict(zip(names, key)))
    return list(map(answers.__getitem__, rows))


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
    members = frozenset(compress(range(len(holds)), holds))
    return Event(r.partition, members)


def differs(a: RandomElement, b: RandomElement) -> Event:
    """The event on which a and b take different values."""
    _compatible(a, b)
    xs, ys = _int_columns(a.sig, (a, b))
    members = frozenset(compress(range(len(xs)), map(ne, xs, ys)))
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

    Raises ValueError when a chosen value's numerator or denominator has
    more than _MAX_DIGITS digits, so it could not be printed: a midpoint's
    denominator can have twice the digits of the values around it.

    Which regions satisfy depends only on the type of the bound values
    (oracles.type_key), so it is decided once per type that occurs; each
    atom then only does the arithmetic of its own values.
    """
    g = qe(theta, r.sig)
    bound = {v: _resolve(r, p) for v, p in (binding or {}).items()}
    _check_assignment(Exists(u, theta), bound)  # u itself needs no binding
    params = {var: e for var, e in bound.items() if var != u}
    columns = _int_columns(r.sig, tuple(params.values()))
    if r.sig.is_dlo:
        # the bound values by their ints
        value_of: dict[int, Fraction] = {}
        for col, e in zip(columns, params.values()):
            value_of.update(zip(col, e.values))
        rule = partial(_dlo_rule, g, u, value_of)
    else:
        assert r.sig.n is not None
        rule = partial(_enum_rule, r.sig.n, g, u)
    # each atom's bound values as ints; none bound means () on every atom
    rows = list(zip(*columns)) if columns else [()] * r.partition.size
    # an atom's ints fix its type, so its rule: each distinct row's witness
    # is worked out once (kept: per atom, the four wide witness requests
    # took 495 -> 530 ms CPU)
    value = dict(zip(rows, _per_type(r, params, rule)))
    for row, choose in value.items():
        w = value[row] = choose(row)
        if abs(w.numerator) >= _TOO_MANY_DIGITS or w.denominator >= _TOO_MANY_DIGITS:
            raise ValueError(f"witness value has more than {_MAX_DIGITS} digits")
    return RandomElement(r.sig, r.partition, tuple(map(value.__getitem__, rows)))


def _enum_rule(
    n: int, g: Formula, u: str, assign: dict[str, Value]
) -> Callable[[tuple[Value, ...]], Value]:
    """The smallest domain value satisfying g for this tuple, default 0.

    g compares u only by = with the assigned values and its constants, M:
    every value outside M satisfies g alike, and the smallest of them is at
    most |M|.  So the smallest of M ∪ {0..|M|} below n that satisfies g is
    the smallest domain value that does, found without scanning range(n).
    """
    marks = {*assign.values()}
    marks.update(
        t.index
        for a in subformulas(g)
        if isinstance(a, Atom)
        for t in (a.lhs, a.rhs)
        if isinstance(t, Const)
    )
    tries = sorted(marks.union(range(len(marks) + 1)))
    pick = next((d for d in tries if d < n and eval_qf(g, {**assign, u: d})), 0)
    return lambda _: pick


def _dlo_rule(
    g: Formula, u: str, value_of: dict[int, Fraction], ranks: dict[str, int]
) -> Callable[[tuple[int, ...]], Fraction]:
    """The witness rule (see witness) for one order type of the bound
    values, given as their dense ranks: it maps an atom's row of bound
    values of that type, as ints (see _int_columns) that value_of turns
    back into values, to the witness value there.

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

        def tightest_midpoint(row: tuple[int, ...]) -> Fraction:
            vals = [value_of[row[pos]] for pos in at]  # lowest first
            # min keeps the lowest of equally tight gaps
            j = min(gaps, key=lambda j: vals[j + 1] - vals[j])
            return Fraction(vals[j] + vals[j + 1], 2)

        return tightest_midpoint
    for j in range(top + 1):
        if sat(2 * j):
            return lambda row: value_of[row[at[j]]]
    if sat(-1):
        return lambda row: value_of[row[at[0]]] - 1
    if sat(2 * top + 1):
        return lambda row: value_of[row[at[top]]] + 1
    return lambda _: Fraction(0)
