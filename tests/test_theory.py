from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randcl
from randcl import (
    DLO,
    And,
    Atom,
    Const,
    Exists,
    Falsity,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Truth,
    Var,
    finite_enum,
    free_vars,
    is_quantifier_free,
    parse,
    substitute,
)
from randcl.checks import _DLO_VALUES, random_formula
from randcl.oracles import (
    definable_in_model,
    eval_direct,
    evaluate,
    is_functional,
    is_valid,
    isolating_formulas,
    universal_closure,
)
from randcl.theory import eval_qf, qe

E2 = finite_enum(2)
E3 = finite_enum(3)


def _fresh_process(args: list[str], timeout: float | None = None):
    """python with args in a fresh interpreter that imports this randcl."""
    src = str(Path(randcl.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


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


def test_qe_needs_no_normal_form():
    # a disjunctive normal form of this body has 2^40 conjuncts
    body = And(parse("a0 < u | u < b0"), parse("a1 < u | u < b1"))
    for i in range(2, 40):
        body = And(body, parse(f"a{i} < u | u < b{i}"))
    assert qe(Exists("u", body)) == Truth()


@pytest.mark.parametrize("k", [12, 40])
def test_qe_probes_above_every_term(k):
    # u above every term satisfies the body; at the other test points each
    # disjunct splits, and the output had 2639 nodes for k = 12
    body = " & ".join(f"(x{2 * i} < u | u < x{2 * i + 1})" for i in range(k))
    f = parse(f"{body} & t < u")
    assert qe(Exists("u", f)) == Truth()
    assert qe(Forall("u", Not(f))) == Falsity()


def test_qe_of_a_tree_over_eliminated_parts_eliminates_nothing(monkeypatch):
    import randcl.theory

    f = parse("exists u. a < u & u < b")
    g = parse("forall v. v < a | b < v | v = c")
    qf, qg = qe(f), qe(g)
    calls = []
    eliminate = randcl.theory._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(randcl.theory, "_eliminate", counted)
    assert qe(And(f, g)) == And(qf, qg)
    assert qe(Not(f)) == Not(qf)
    assert calls == []
    # a node keeps its answer for one signature only: another one is
    # worked out afresh
    h = parse("exists u. a = u & ~(u = b)", E2)
    qe(h, DLO)
    assert len(calls) == 1
    assert qe(h, E2) != qe(h, DLO)
    assert len(calls) == 2


def test_qe_answers_die_with_their_formulas():
    # each answer is kept only on its node, so once the formulas are
    # dropped no formula node stays alive; a fresh process holds no other
    code = (
        "import gc\n"
        "from randcl import Formula, parse, qe\n"
        "from randcl.formula import FALSE, TRUE\n"
        "fs = [parse(f'exists u. (x{i} < u & u < y{i}) | forall v. v < x{i}')\n"
        "      for i in range(3000)]\n"
        "for f in fs:\n"
        "    qe(f)\n"
        "del f, fs\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, Formula) and o is not TRUE and o is not FALSE\n"
        "          for o in gc.get_objects()))\n"
    )
    proc = _fresh_process(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def _mixed(*parts: str):
    """The conjunction of the parts, each parsed under a signature that
    accepts it (constants under enum(10), '<' under DLO)."""
    out = None
    for text in parts:
        g = parse(text, DLO if "<" in text else finite_enum(10))
        out = g if out is None else And(out, g)
    return out


@pytest.mark.parametrize(
    "f, n, message",
    [
        (_mixed("x = a", "a < b", "a = c7"), 2, "'<' not in FiniteEnum signature"),
        (_mixed("x = a", "a = c7", "a < b"), 2, "constant c7 not in signature (n = 2)"),
        (Exists("u", _mixed("u = x | a = c5", "a < u")), 3, "constant c5"),
    ],
)
def test_signature_error_is_raised_first_and_names_the_first_atom(f, n, message):
    from randcl import Randomization, check_signature, eval_event, partition

    with pytest.raises(ValueError) as expected:
        check_signature(f, finite_enum(n))
    # x is unbound too; the signature error still comes first
    r = Randomization.build(
        finite_enum(n), partition([("w1", "1")]), {"a": [0], "b": [1]}
    )
    with pytest.raises(ValueError) as got:
        eval_event(r, f, {"a": "a", "b": "b"})
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(message)


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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    quantifiers=st.integers(0, 3),
)
def test_enum_qe_agrees_with_direct_search(seed, n, quantifiers):
    rng = random.Random(seed)
    sig = finite_enum(n)
    f = random_formula(rng, sig, ("a", "b", "c"), quantifiers=quantifiers)
    g = qe(f, sig)
    assert is_quantifier_free(g)
    for _ in range(8):
        assign = {v: rng.randrange(n) for v in ("a", "b", "c")}
        assert eval_qf(g, assign) == eval_direct(f, assign, sig)


def _enum_formula(rng: random.Random, n: int, scope: tuple[str, ...], depth: int):
    """A random enum(n) formula over scope whose atoms mostly compare the
    innermost variable, with a constant more often than not, so that it
    may name every constant."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        lhs = Var(scope[-1] if rng.random() < 0.7 else rng.choice(scope))
        rhs = Const(rng.randrange(n)) if rng.random() < 0.6 else Var(rng.choice(scope))
        return Atom(lhs, "=", rhs)
    if roll < 0.4:
        return Not(_enum_formula(rng, n, scope, depth - 1))
    if roll < 0.8:
        ctor = rng.choice((And, Or, Implies, Iff))
        return ctor(
            _enum_formula(rng, n, scope, depth - 1),
            _enum_formula(rng, n, scope, depth - 1),
        )
    var = f"u{depth}"
    ctor = rng.choice((Exists, Forall))
    return ctor(var, _enum_formula(rng, n, scope + (var,), depth - 1))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
def test_enum_qe_test_points_agree_with_direct_search(seed, n):
    # qe tries the compared terms and a few fresh constants when they fit
    # below n, and every constant otherwise; both cases occur here
    rng = random.Random(seed)
    sig = finite_enum(n)
    f = _enum_formula(rng, n, ("a", "b"), depth=5)
    g = qe(f, sig)
    for _ in range(8):
        assign = {v: rng.randrange(n) for v in ("a", "b")}
        assert eval_qf(g, assign) == eval_direct(f, assign, sig)


@pytest.mark.parametrize("n", range(2, 8))
def test_enum_qe_when_the_named_values_fill_the_domain(n):
    # u avoids a and c0..c(k-1): some value is left exactly when they take
    # fewer than n, so k = n - 1 and k = n leave no fresh constant to try
    sig = finite_enum(n)
    for k in range(n + 1):
        avoid = " & ".join(["~(u = a)"] + [f"~(u = c{i})" for i in range(k)])
        g = qe(parse(f"exists u. {avoid}", sig), sig)
        for a in range(n):
            assert eval_qf(g, {"a": a}) == (len({a, *range(k)}) < n)


@pytest.mark.parametrize(
    "argv, out",
    [
        (["eval", "exists u. u = a"], "{w1}, probability = 1\n"),
        (["eval", "exists u. ~(u = a) & ~(u = c0)"], "{w1}, probability = 1\n"),
        (["eval", "forall u. u = a | u = c7"], "{}, probability = 0\n"),
        (["eval", "exists u. forall v. u = v | v = a"], "{}, probability = 0\n"),
        (
            ["isdef", "a", "b"],
            "pointwise_algebra: true\npiecewise_family: true\n"
            "isolating_events: true\nclosure_member: true\nverdict: true\n",
        ),
    ],
)
def test_enum_requests_under_a_huge_domain_answer_at_once(argv, out, tmp_path):
    # trying all 10**20 constants would never end: a fresh process with a
    # time limit keeps a regression from hanging the suite
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "theory": f"enum({10**20})",
                "atoms": [["w1", "1"]],
                "elements": {"a": [5], "b": [7]},
            }
        )
    )
    command, *rest = argv
    proc = _fresh_process(["-m", "randcl.cli", command, str(path), *rest], timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_qf_basic():
    assert eval_qf(parse("a < b"), {"a": Fraction(0), "b": Fraction(1)})
    assert eval_qf(parse("a = b"), {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert not eval_qf(parse("x = c1", E2), {"x": 0})


def test_eval_qf_needs_assignment():
    with pytest.raises(ValueError, match="^unassigned free variable 'b'$"):
        eval_qf(parse("a < b"), {"a": Fraction(0)})
    # the left term is looked up first, also under a connective
    with pytest.raises(ValueError, match="^unassigned free variable 'x'$"):
        eval_qf(parse("~(a = a) | x = y", E2), {"a": 0})


def test_eval_qf_rejects_quantifiers():
    with pytest.raises(ValueError, match="^quantifier in quantifier-free evaluation$"):
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
