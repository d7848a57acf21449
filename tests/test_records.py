"""The engine's value classes: equality, hashing, immutability and repr.

The repr strings below are the ones the classes printed when they were
generated dataclasses; they pin the field names, their order and which
fields are left out.
"""

from __future__ import annotations

import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    DLO,
    And,
    Atom,
    Const,
    DefinabilityReport,
    Event,
    EventAlgebra,
    Exists,
    Falsity,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Partition,
    RandomElement,
    Randomization,
    Signature,
    Truth,
    Var,
    finite_enum,
    parse,
    to_text,
)
import randcl
from randcl.checks import random_formula
from randcl.records import Record

HALVES = "Partition(atoms=(('w1', Fraction(1, 2)), ('w2', Fraction(1, 2))))"
DLO_REPR = "Signature(kind='DLO', n=None)"


def _halves() -> Partition:
    return Partition([("w1", "1/2"), ("w2", "1/2")])


def _element() -> RandomElement:
    return RandomElement(DLO, _halves(), (Fraction(1, 2), 3))


# ---------------------------------------------------------------------------
# repr
# ---------------------------------------------------------------------------

def test_repr_of_signatures_and_terms():
    assert repr(DLO) == DLO_REPR
    assert repr(finite_enum(3)) == "Signature(kind='FiniteEnum', n=3)"
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Const(2)) == "Const(index=2)"


def test_repr_of_formula_nodes():
    f = parse("exists u. (a < u & ~(u = b)) | true -> false <-> forall v. v < a")
    assert repr(f) == (
        "Exists(var='u', body=Iff(lhs=Implies(lhs=Or(lhs=And(lhs=Atom("
        "lhs=Var(name='a'), rel='<', rhs=Var(name='u')), rhs=Not(body=Atom("
        "lhs=Var(name='u'), rel='=', rhs=Var(name='b')))), rhs=Truth()), "
        "rhs=Falsity()), rhs=Forall(var='v', body=Atom(lhs=Var(name='v'), "
        "rel='<', rhs=Var(name='a')))))"
    )
    assert repr(Truth()) == "Truth()"
    assert repr(Falsity()) == "Falsity()"


def test_repr_of_measure_records():
    p = _halves()
    assert repr(p) == HALVES
    e = p.event(["w1"])
    assert repr(e) == f"Event(partition={HALVES}, members=frozenset({{0}}))"
    alg = EventAlgebra((p.event(["w2"]), e))
    assert repr(alg) == (
        f"EventAlgebra(atoms=(Event(partition={HALVES}, members=frozenset({{0}})), "
        f"Event(partition={HALVES}, members=frozenset({{1}}))))"
    )


def test_repr_of_elements_and_randomizations():
    elem = _element()
    elem_repr = (
        f"RandomElement(sig={DLO_REPR}, partition={HALVES}, "
        "values=(Fraction(1, 2), Fraction(3, 1)))"
    )
    assert repr(elem) == elem_repr
    r = Randomization(DLO, elem.partition, {"a": elem})
    assert repr(r) == (
        f"Randomization(sig={DLO_REPR}, partition={HALVES}, elements={{'a': {elem_repr}}})"
    )
    assert repr(Randomization(finite_enum(2), _halves())) == (
        f"Randomization(sig=Signature(kind='FiniteEnum', n=2), partition={HALVES}, "
        "elements={})"
    )


def test_repr_of_reports():
    assert repr(DefinabilityReport(True, {"pinning": True})) == (
        "DefinabilityReport(verdict=True, paths={'pinning': True})"
    )


# ---------------------------------------------------------------------------
# equality and hashing
# ---------------------------------------------------------------------------

def _equal_pairs() -> list[tuple[object, object]]:
    """Pairs of separately built, equal records of every immutable class."""

    def build():
        p = _halves()
        e = p.event(["w1"])
        a, b = Atom(Var("a"), "<", Var("b")), Atom(Var("a"), "=", Const(0))
        return [
            Signature("DLO"), finite_enum(3), Var("a"), Const(1), a, Not(a),
            And(a, b), Or(a, b), Implies(a, b), Iff(a, b), Exists("u", a),
            Forall("u", a), Truth(), Falsity(), p, e,
            EventAlgebra((e, p.event(["w2"]))), RandomElement(DLO, p, (0, 1)),
        ]

    return list(zip(build(), build()))


@pytest.mark.parametrize("x, y", _equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_records_hash_alike(x, y):
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_class_is_part_of_equality_and_hash():
    a, b = Atom(Var("a"), "<", Var("b")), Atom(Var("b"), "<", Var("a"))
    assert And(a, b) != Or(a, b)
    assert Implies(a, b) != Iff(a, b)
    assert Exists("u", a) != Forall("u", a)
    assert Truth() != Falsity()
    assert Var("c0") != Const(0)
    assert len({And(a, b), Or(a, b), Implies(a, b), Iff(a, b)}) == 4
    assert And(a, b) != And(b, a)
    assert Atom(Var("a"), "<", Var("b")) != Atom(Var("a"), "=", Var("b"))


def test_records_never_equal_other_types():
    assert Var("a") != "a"
    assert Const(0) != 0
    assert DLO != ("DLO", None)
    assert _halves() != _halves().atoms


def test_records_with_dict_fields_compare_by_fields_and_are_unhashable():
    elem = _element()
    r1 = Randomization(DLO, elem.partition, {"a": elem})
    r2 = Randomization(DLO, _halves(), {"a": _element()})
    assert r1 == r2
    assert r1 != Randomization(DLO, elem.partition, {"b": elem})
    assert DefinabilityReport(True, {"x": True}) == DefinabilityReport(True, {"x": True})
    assert DefinabilityReport(True, {"x": True}) != DefinabilityReport(False, {"x": True})
    for obj in (r1, DefinabilityReport(True, {})):
        with pytest.raises(TypeError):
            hash(obj)


def test_derived_state_is_left_out_of_eq_and_repr():
    p, q = _halves(), _halves()
    object.__setattr__(q, "_index", {})
    assert p == q and hash(p) == hash(q)
    assert "_index" not in repr(p)
    elem = _element()
    r1 = Randomization(DLO, elem.partition, {"a": elem})
    r2 = Randomization(DLO, elem.partition, {"a": elem})
    object.__setattr__(r2, "_last_type_rows", (((elem,), [(0,), (0,)]),))
    assert r1 == r2
    assert repr(r1) == repr(r2)
    assert "_last_type_rows" not in repr(r2)


# ---------------------------------------------------------------------------
# immutability and construction
# ---------------------------------------------------------------------------

def _all_records() -> list[object]:
    """One record of every class, the unhashable ones included."""
    p = _halves()
    unhashable = [Randomization(DLO, p), DefinabilityReport(True, {"pinning": True})]
    return [x for x, _ in _equal_pairs()] + unhashable


@pytest.mark.parametrize("x", _all_records(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    names = [n for cls in type(x).__mro__ for n in vars(cls).get("__slots__", ())]
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_constructors_take_keywords_and_defaults():
    assert Signature("DLO").n is None
    assert Signature(kind="FiniteEnum", n=2) == finite_enum(2)
    p = Partition(atoms=[("w1", 1)])
    assert Event(partition=p, members=[0]).members == frozenset({0})
    assert RandomElement(sig=DLO, partition=p, values=["1/3"]).values == (Fraction(1, 3),)
    assert Randomization(DLO, p).elements == {}
    assert Randomization(DLO, p).elements is not Randomization(DLO, p).elements


def test_bad_input_raises_value_error():
    with pytest.raises(ValueError):
        Atom(Var("a"), "<=", Var("b"))
    with pytest.raises(ValueError):
        Signature("DLO", 3)
    with pytest.raises(ValueError):
        Signature("FiniteEnum", 1)
    with pytest.raises(ValueError):
        Signature("FiniteEnum", True)
    with pytest.raises(ValueError):
        Signature("groups")


@pytest.mark.parametrize("x", [x for x, _ in _equal_pairs()], ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(x):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)


# ---------------------------------------------------------------------------
# separately built trees
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from([DLO, finite_enum(2), finite_enum(3)]),
    st.integers(0, 3),
)
def test_separately_built_trees(seed, other, sig, quantifiers):
    def build(s):
        return random_formula(random.Random(s), sig, ("a", "b"), quantifiers, depth=5)

    f, g, h = build(seed), build(seed), build(other)
    assert f is not g
    assert f == g and hash(f) == hash(g)
    # the printer is injective on trees, so it decides equality independently
    assert (f == h) == (to_text(f) == to_text(h))
    if f == h:
        assert hash(f) == hash(h)
    assert parse(to_text(f), sig) == f


# ---------------------------------------------------------------------------
# the field list, derived from __slots__
# ---------------------------------------------------------------------------

class Point(Record):
    """Declared with slots and __init__ only; _cache is derived state."""

    __slots__ = ("x", "y", "_cache")

    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_cache", object())


class Labelled(Point):
    __slots__ = ("label",)

    def __init__(self, x, y, label):
        super().__init__(x, y)
        object.__setattr__(self, "label", label)


def test_a_declared_record_works_from_its_public_slots():
    p, q = Point(1, "a"), Point(1, "a")
    assert Point._field_names == ("x", "y")
    assert p == q and hash(p) == hash(q)
    assert p != Point(2, "a") and p != Point(1, "b")
    assert repr(p) == "Point(x=1, y='a')"
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert copy.deepcopy(p) == p
    with pytest.raises(AttributeError):
        p.x = 2


def test_a_subclass_appends_its_slots_to_the_field_list():
    a = Labelled(1, 2, "z")
    assert Labelled._field_names == ("x", "y", "label")
    assert a._fields() == (1, 2, "z")
    assert repr(a) == "Labelled(x=1, y=2, label='z')"
    assert a == Labelled(1, 2, "z") != Labelled(1, 2, "w")
    assert a != Point(1, 2)  # the class is part of equality
    assert pickle.loads(pickle.dumps(a)) == a


def test_single_field_and_fieldless_records_give_tuples():
    assert Var("a")._fields() == ("a",)
    assert Truth()._fields() == ()
    assert DLO._fields() == ("DLO", None)


def test_no_module_writes_its_field_list_by_hand():
    package = Path(randcl.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert not re.search(r"def _fields\b", path.read_text()), path.name
