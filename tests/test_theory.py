from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    DLO,
    And,
    Falsity,
    Forall,
    Implies,
    Truth,
    Var,
    finite_enum,
    free_vars,
    is_quantifier_free,
    parse,
    substitute,
)
from randcl.checks import _DLO_VALUES, random_formula
from randcl.theory import (
    definable_in_model,
    eval_direct,
    eval_qf,
    evaluate,
    is_functional,
    is_valid,
    isolating_formulas,
    qe,
    universal_closure,
)

E2 = finite_enum(2)
E3 = finite_enum(3)


# ---------------------------------------------------------------------------
# quantifier elimination
# ---------------------------------------------------------------------------

def test_qe_density():
    assert qe(parse("exists u. (a < u & u < b)")) == parse("a < b")


def test_qe_no_endpoints():
    assert qe(parse("exists u. u < a")) == Truth()
    assert qe(parse("forall u. a < u")) == Falsity()


def test_qe_outputs_quantifier_free():
    rng = random.Random(5150)
    for _ in range(60):
        f = random_formula(rng, DLO, ("a", "b", "c", "d"), quantifiers=rng.randint(0, 3))
        g = qe(f)
        assert is_quantifier_free(g)
        assert set(free_vars(g)) <= set(free_vars(f))


def test_qe_equality_substitution():
    # an equality on the bound variable pins it
    assert qe(parse("exists u. (u = a & u < b)")) == parse("a < b")


def test_qe_rejects_enum_formulas():
    with pytest.raises(ValueError):
        qe(parse("x = c0", E2))


def test_qe_cache_is_bounded():
    maxsize = qe.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 10**6


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    quantifiers=st.integers(0, 2),
)
def test_qe_agrees_with_direct_search(seed, quantifiers):
    rng = random.Random(seed)
    f = random_formula(rng, DLO, ("a", "b", "c"), quantifiers=quantifiers)
    g = qe(f)
    for _ in range(8):
        assign = {v: rng.choice(_DLO_VALUES) for v in ("a", "b", "c")}
        assert eval_qf(g, assign) == eval_direct(f, assign)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_qf_basic():
    assert eval_qf(parse("a < b"), {"a": Fraction(0), "b": Fraction(1)})
    assert eval_qf(parse("a = b"), {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert not eval_qf(parse("x = c1", E2), {"x": 0})


def test_eval_qf_needs_assignment():
    with pytest.raises(ValueError, match="unassigned"):
        eval_qf(parse("a < b"), {"a": Fraction(0)})


def test_eval_qf_rejects_quantifiers():
    with pytest.raises(ValueError):
        eval_qf(parse("exists u. u < a"), {"a": Fraction(0)})


def test_evaluate_quantified():
    assert evaluate(DLO, parse("exists u. (a < u & u < b)"), {"a": 0, "b": 1})
    assert evaluate(DLO, parse("forall u. exists v. u < v"), {})
    assert not evaluate(E2, parse("exists x. x = c0 & x = c1", E2), {})


def test_evaluate_enum_brute_force():
    f = parse("forall x. (x = c0 | x = c1 | x = c2)", E3)
    assert evaluate(E3, f, {})
    g = parse("forall x. (x = c0 | x = c1)", E3)
    assert not evaluate(E3, g, {})


def test_eval_direct_no_free_variables():
    assert eval_direct(parse("forall u. exists v. u < v"), {})
    assert not eval_direct(parse("exists u. forall v. v < u | v = u"), {})


# ---------------------------------------------------------------------------
# validity and functional formulas
# ---------------------------------------------------------------------------

def test_is_valid():
    assert is_valid(DLO, parse("forall u. exists v. u < v"))
    assert not is_valid(DLO, parse("forall u. forall v. u < v"))
    assert is_valid(E2, parse("forall x. (x = c0 | x = c1)", E2))


def test_is_valid_closes_free_variables():
    assert is_valid(DLO, parse("u = u"))
    assert not is_valid(DLO, parse("u < v"))


def test_universal_closure():
    f = parse("u < v")
    g = universal_closure(f)
    assert isinstance(g, Forall)
    assert is_valid(DLO, parse("u = u")) and not is_valid(DLO, g)


def test_is_functional():
    assert is_functional(DLO, parse("u = v"), "u")
    assert not is_functional(DLO, parse("v1 < u & u < v2"), "u")


def test_is_functional_max_formula():
    # picks the larger of v1, v2: satisfied by exactly one u, so functional
    f = parse("(u = v2 & (v1 < v2 | v1 = v2)) | (u = v1 & v2 < v1)")
    assert is_functional(DLO, f, "u")
    # sanity against a brute search: at most one satisfying u per assignment
    rng = random.Random(7)
    for _ in range(40):
        v1, v2 = rng.choice(_DLO_VALUES), rng.choice(_DLO_VALUES)
        hits = [
            u
            for u in sorted({v1, v2, Fraction(99)})
            if eval_qf(f, {"u": u, "v1": v1, "v2": v2})
        ]
        assert len(hits) == 1
        assert hits[0] == max(v1, v2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_at_most_one_trick_is_functional(seed):
    # theta & (every two solutions coincide) is always functional
    rng = random.Random(seed)
    theta = random_formula(rng, DLO, ("u", "v1"), quantifiers=0)
    other = substitute(theta, {"u": Var("u'")})
    unique = Forall("u", Forall("u'", Implies(And(theta, other), parse("u = u'"))))
    guarded = And(theta, unique)
    assert is_functional(DLO, guarded, "u")


# ---------------------------------------------------------------------------
# isolating formulas
# ---------------------------------------------------------------------------

def test_isolating_count_small():
    assert [str(f) for f in isolating_formulas(DLO, 2)] == [
        "v1 < v2",
        "v1 = v2",
        "v2 < v1",
    ]


def test_isolating_count_matches_ordered_bell():
    assert len(isolating_formulas(DLO, 0)) == 1
    assert len(isolating_formulas(DLO, 1)) == 1
    assert len(isolating_formulas(DLO, 3)) == 13
    assert len(isolating_formulas(DLO, 4)) == 75


def test_isolating_enum():
    assert [str(f) for f in isolating_formulas(E2, 1)] == ["v1 = c0", "v1 = c1"]
    assert len(isolating_formulas(E3, 2)) == 9


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    enum=st.booleans(),
)
def test_isolating_formulas_partition_assignments(n, seed, enum):
    """For every assignment exactly one isolating formula holds."""
    rng = random.Random(seed)
    sig = E3 if enum else DLO
    formulas = isolating_formulas(sig, n)
    if enum:
        assign = {f"v{i + 1}": rng.randrange(3) for i in range(n)}
    else:
        assign = {f"v{i + 1}": rng.choice(_DLO_VALUES) for i in range(n)}
    hits = [f for f in formulas if eval_qf(f, assign)]
    assert len(hits) == 1


# ---------------------------------------------------------------------------
# in-model definability
# ---------------------------------------------------------------------------

def test_definable_in_model():
    assert definable_in_model(DLO, Fraction(3), (Fraction(1), Fraction(3), Fraction(5)))
    assert not definable_in_model(DLO, Fraction(2), (Fraction(1), Fraction(3)))
    assert definable_in_model(E2, 1, ())
