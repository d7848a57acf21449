"""Random elements of a finitely presented randomization.

An element is a step function over the partition: one theory value per
atom (rationals for DLO, 0..n-1 for FiniteEnum).  This module evaluates
formula events per type of the bound values, measures the distance
between elements and glues two elements along an event.  The witness
builder is in witnesses; the other pointwise combinators (indicator,
if_less, min, max) are in library.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import partial
from itertools import compress
from operator import itemgetter, ne

from .measure import Event, Partition, _prob, as_fraction
from .records import MutableRecord, Record, Signature, Value, _set


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
    k = max(map(itemgetter(0), kept), default=0)
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
    f,
    binding: Mapping[str, str | RandomElement],
) -> Event:
    """The event on which the formula f holds, with variables bound to
    elements.

    f is decided once per type of the bound values (see _per_type), by
    eval_qf on qe(f) in either theory.  A symbol outside the signature
    raises before an unbound variable does.  theory (and formula) is
    imported here, so a request that evaluates no formula compiles neither.
    """
    from .theory import _check_assignment, eval_qf, qe

    decide = partial(eval_qf, qe(f, r.sig))
    bound = {v: _resolve(r, p) for v, p in binding.items()}
    _check_assignment(f, bound)
    holds = _per_type(r, bound, decide)
    members = frozenset(compress(range(len(holds)), holds))
    return Event(r.partition, members)


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
