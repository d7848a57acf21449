"""Random elements of a finitely presented randomization.

An element is a step function over the partition: one theory value per
atom (rationals for DLO, 0..n-1 for FiniteEnum).  This module evaluates
formula events per type of the bound values, measures the distance
between elements and glues two elements along an event.  The witness
builder is in witnesses; the other pointwise combinators (indicator,
if_less, min, max) are in checks.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from operator import itemgetter, ne

from .measure import Event, Partition, _prob, as_fraction
from .records import Record, Signature, Value, _set


class RandomElement(Record):
    __slots__ = ("sig", "partition", "values")

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

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.values)) + ")"


class Randomization(Record):
    """A theory, a weighted partition, and named random elements.

    _last_type_rows is _type_rows's memo, its last two (elements, rows)
    pairs, newest first, left out of == and repr.
    """

    __slots__ = ("sig", "partition", "elements", "_last_type_rows")

    def __init__(
        self,
        sig: Signature,
        partition: Partition,
        elements: dict[str, RandomElement] | None = None,
    ):
        elements = {} if elements is None else elements
        for name, e in elements.items():
            if e.sig != sig or e.partition != partition:
                raise ValueError(f"element {name!r} built for a different space")
        _set(self, "sig", sig)
        _set(self, "partition", partition)
        _set(self, "elements", elements)
        _set(self, "_last_type_rows", ())

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


def _int_columns(
    sig: Signature, elems: Sequence[RandomElement]
) -> list[Sequence[int]]:
    """The elements' values as columns of ints that compare, across the
    elements, exactly as the values do.

    Under an enumerated domain, the values.  Under DLO, each value's
    floor(v * 2**k), k twice the bit length of the tuple's largest
    denominator: two such values that differ, differ by more than 2**-k.
    No common denominator is formed, so the cost does not grow with the
    number of distinct denominators.  Each distinct value object is read
    once, keyed by identity (a Fraction hashes in Python code, an int in
    C), so entries that share an object, as the loader shares them, cost
    one conversion.
    """
    if not sig.is_dlo:
        return [e.values for e in elems]
    objs: dict[int, Fraction] = {}
    for e in elems:
        objs.update(zip(map(id, e.values), e.values))
    ratios = list(map(Fraction.as_integer_ratio, objs.values()))
    k = 2 * max(map(itemgetter(1), ratios), default=1).bit_length()
    key = dict(zip(objs, [(n << k) // d for n, d in ratios]))
    return [tuple(map(key.__getitem__, map(id, e.values))) for e in elems]


def _dense_ranks(t: tuple[int, ...]) -> tuple[int, ...]:
    """checks.type_key of a DLO tuple, for values held as ints that
    compare as they do."""
    return tuple(map(sorted(set(t)).index, t))


def _type_rows(r: Randomization, elems: tuple[RandomElement, ...]) -> list[tuple]:
    """checks.type_key of the elements' values on each atom, computed once
    per distinct tuple of their integer columns (see _int_columns).

    The deciders evaluate thousands of formulas over one element tuple and
    alternate between the parameters and (parameters, element), so r keeps
    the rows of the last two tuples built.  A kept tuple matches an equal
    one that ends in the same element object: elements are immutable, and
    the identity test skips comparing the values of the element tested.
    """
    if not elems:
        return [()] * r.partition.size
    kept = r._last_type_rows
    for tup, tup_rows in kept:
        if tup[-1] is elems[-1] and tup == elems:
            return tup_rows
    rows = list(zip(*_int_columns(r.sig, elems)))
    if r.sig.is_dlo:
        key = {t: _dense_ranks(t) for t in set(rows)}
        rows = list(map(key.__getitem__, rows))
    _set(r, "_last_type_rows", ((elems, rows), *kept[:1]))
    return rows


def eval_event(
    r: Randomization,
    f,
    binding: Mapping[str, str | RandomElement],
) -> Event:
    """The event on which the formula f holds, with variables bound to
    elements.

    What f says about the bound elements on an atom depends only on the
    type of their value tuple there (checks.type_key), so f is decided
    once per distinct type, by eval_qf on qe(f) in either theory, on the
    type key itself, given as the assignment of each bound variable to its
    entry.  A symbol outside the signature raises before an unbound
    variable does.  formula is imported here, so a request that evaluates
    no formula does not compile it.
    """
    from .formula import _check_assignment, eval_qf, qe

    g = qe(f, r.sig)
    bound = {v: _resolve(r, p) for v, p in binding.items()}
    _check_assignment(f, bound)
    names = tuple(bound)
    rows = _type_rows(r, tuple(bound.values()))
    holds = {key: eval_qf(g, dict(zip(names, key))) for key in set(rows)}
    members = compress(range(len(rows)), map(holds.__getitem__, rows))
    return Event(r.partition, frozenset(members))


def _differing(a: RandomElement, b: RandomElement) -> Iterator[int]:
    """The indices of the atoms where a and b take different values."""
    _compatible(a, b)
    xs, ys = _int_columns(a.sig, (a, b))
    return compress(range(len(xs)), map(ne, xs, ys))


def differs(a: RandomElement, b: RandomElement) -> Event:
    """The event on which a and b take different values."""
    return Event(a.partition, frozenset(_differing(a, b)))


def elem_dist(a: RandomElement, b: RandomElement) -> Fraction:
    """Probability that a and b differ, measured without building the
    event."""
    return _prob(a.partition, _differing(a, b))


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
