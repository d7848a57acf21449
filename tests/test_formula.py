from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    DLO,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    Falsity,
    Truth,
    check_signature,
    finite_enum,
    free_vars,
    is_quantifier_free,
    parse,
    substitute,
    to_text,
)
from randcl.checks import random_formula
from randcl.formula import subformulas

E2 = finite_enum(2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_atom():
    assert parse("a < b") == Atom(Var("a"), "<", Var("b"))


def test_parse_exists():
    f = parse("exists u. (a < u & u < b)")
    assert f == Exists("u", And(Atom(Var("a"), "<", Var("u")), Atom(Var("u"), "<", Var("b"))))


def test_parse_constant_atom():
    assert parse("x = c1", E2) == Atom(Var("x"), "=", Const(1))


def test_parse_precedence():
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    f = parse("~a = b & a < b | a = b -> a < b")
    assert f == parse("(((~(a = b)) & (a < b)) | (a = b)) -> (a < b)")


def test_parse_arrows_right_associative():
    assert parse("a<b -> a=b -> b<a") == parse("a<b -> (a=b -> b<a)")


X, Y, Z = (Atom(Var(v), "<", Var("w")) for v in "xyz")
_BINARY = {"&": And, "|": Or, "->": Implies, "<->": Iff}
# whether  x op1 y op2 z  groups as (x op1 y) op2 z, else as x op1 (y op2 z)
_GROUPS_LEFT = {
    ("&", "&"): True, ("&", "|"): True, ("&", "->"): True, ("&", "<->"): True,
    ("|", "&"): False, ("|", "|"): True, ("|", "->"): True, ("|", "<->"): True,
    ("->", "&"): False, ("->", "|"): False, ("->", "->"): False, ("->", "<->"): True,
    ("<->", "&"): False, ("<->", "|"): False, ("<->", "->"): False,
    ("<->", "<->"): False,
}


@pytest.mark.parametrize("ops", sorted(_GROUPS_LEFT), ids=" ".join)
def test_parse_table_binary_pairs(ops):
    op1, op2 = ops
    c1, c2 = _BINARY[op1], _BINARY[op2]
    expected = c2(c1(X, Y), Z) if _GROUPS_LEFT[ops] else c1(X, c2(Y, Z))
    assert parse(f"x < w {op1} y < w {op2} z < w") == expected


@pytest.mark.parametrize("op", sorted(_BINARY))
def test_parse_table_negation_and_quantifier_bodies(op):
    c = _BINARY[op]
    assert parse(f"~x < w {op} y < w") == c(Not(X), Y)
    assert parse(f"x < w {op} ~y < w") == c(X, Not(Y))
    assert parse(f"exists u. x < w {op} y < w") == Exists("u", c(X, Y))
    assert parse(f"x < w {op} forall u. y < w & z < w") == c(X, Forall("u", And(Y, Z)))
    assert parse(f"(exists u. x < w) {op} y < w") == c(Exists("u", X), Y)
    assert parse(f"~exists u. x < w {op} y < w") == Not(Exists("u", c(X, Y)))


def test_quantifier_body_extends_right():
    f = parse("exists u. u < a & u < b")
    assert f == Exists("u", parse("u < a & u < b"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("a < ")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse("a <<< b")
    with pytest.raises(ParseError):
        parse("(a < b")


def test_constants_rejected_under_order():
    with pytest.raises(ParseError):
        parse("x = c0", DLO)


def test_order_atom_rejected_under_enum():
    with pytest.raises(ParseError):
        parse("x < y", E2)


def test_constant_index_range():
    with pytest.raises(ParseError):
        parse("x = c2", E2)
    parse("x = c2", finite_enum(3))


def test_true_false_literals():
    f = parse("true & false")
    assert to_text(f) == "true & false"


def test_primed_identifiers():
    assert free_vars(parse("u' < u''")) == ("u'", "u''")


# ---------------------------------------------------------------------------
# free variables and substitution
# ---------------------------------------------------------------------------

def test_free_vars_order():
    assert free_vars(parse("b < a & a < b")) == ("b", "a")
    assert free_vars(parse("exists u. a < u")) == ("a",)
    assert free_vars(parse("forall u. exists v. u < v")) == ()


def _free_vars_walk(f) -> tuple[str, ...]:
    """free_vars's first-occurrence rule as one walk of the whole tree."""
    out: dict[str, None] = {}

    def walk(g, bound: frozenset) -> None:
        if isinstance(g, Atom):
            for t in (g.lhs, g.rhs):
                if isinstance(t, Var) and t.name not in bound:
                    out.setdefault(t.name)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})
        elif not isinstance(g, (Truth, Falsity)):
            walk(g.lhs, bound)
            walk(g.rhs, bound)

    walk(f, frozenset())
    return tuple(out)


def test_free_vars_kept_per_node_match_one_walk():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, DLO, ("a", "b", "u"), quantifiers=2)
        g = random_formula(rng, DLO, ("b", "c", "v"), quantifiers=2)
        free_vars(f), free_vars(g)  # fills the kept answers of both trees
        for h in (f, g, And(g, f), Or(f, Not(g)), Exists("b", And(f, g))):
            assert free_vars(h) == _free_vars_walk(h)
            assert free_vars(h) == free_vars(h)


def test_substitute_simple():
    assert substitute(parse("u < v"), {"u": Var("a")}) == parse("a < v")
    assert substitute(parse("u = u"), {"u": Var("a")}) == parse("a = a")


def test_substitute_avoids_capture():
    f = parse("exists u. u < v")
    g = substitute(f, {"v": Var("u")})
    assert g == Exists("u'", Atom(Var("u'"), "<", Var("u")))


def test_substitute_bound_occurrences_alone():
    f = parse("exists u. u < v")
    assert substitute(f, {"u": Var("a")}) == f


def test_substitute_keeps_quantifier_count():
    f = parse("exists u. (forall v. u < v) | u = w")
    g = substitute(f, {"w": Var("v")})
    quants = lambda h: sum(isinstance(s, (Exists, Forall)) for s in subformulas(h))
    assert quants(f) == quants(g)


def test_free_vars_after_substitution():
    f = parse("u < v & v < w")
    g = substitute(f, {"u": Var("a")})
    assert free_vars(g) == ("a", "v", "w")


# ---------------------------------------------------------------------------
# signature checking
# ---------------------------------------------------------------------------

def test_check_signature():
    check_signature(parse("a < b"), DLO)
    with pytest.raises(ValueError):
        check_signature(parse("a < b"), E2)
    with pytest.raises(ValueError):
        check_signature(Atom(Var("x"), "=", Const(5)), E2)


def test_quantifier_free_detection():
    assert is_quantifier_free(parse("a < b & b < a"))
    assert not is_quantifier_free(parse("exists u. a < u"))


# ---------------------------------------------------------------------------
# subformula walk
# ---------------------------------------------------------------------------

def _subformulas_recursive(f):
    """Reference preorder walk, written recursively."""
    yield f
    if isinstance(f, (Not, Exists, Forall)):
        yield from _subformulas_recursive(f.body)
    elif isinstance(f, (And, Or, Implies, Iff)):
        yield from _subformulas_recursive(f.lhs)
        yield from _subformulas_recursive(f.rhs)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sig=st.sampled_from([DLO, E2]),
    quantifiers=st.integers(0, 3),
    depth=st.integers(0, 8),
)
def test_subformulas_is_the_recursive_preorder(seed, sig, quantifiers, depth):
    f = random_formula(random.Random(seed), sig, ("a", "b"), quantifiers, depth)
    got = list(subformulas(f))
    want = list(_subformulas_recursive(f))
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def test_subformulas_walks_past_the_recursion_limit():
    f = parse("a < b")
    for _ in range(5000):
        f = Not(f)
    assert sum(1 for _ in subformulas(f)) == 5001
    assert is_quantifier_free(f)


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), quantifiers=st.integers(0, 3))
def test_print_parse_round_trip_dlo(seed, quantifiers):
    rng = random.Random(seed)
    f = random_formula(rng, DLO, ("a", "b", "c"), quantifiers=quantifiers)
    assert parse(to_text(f), DLO) == f


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_print_parse_round_trip_enum(seed):
    rng = random.Random(seed)
    f = random_formula(rng, E2, ("x", "y"), quantifiers=rng.randint(0, 2))
    assert parse(to_text(f), E2) == f


def test_round_trip_is_whitespace_insensitive():
    text = "exists u.(a<u&u<b)|~a=b"
    f = parse(text)
    assert parse(to_text(f)) == f
