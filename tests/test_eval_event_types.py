"""eval_event decides a formula once per type of the bound value tuple.

Every test here compares it atom by atom with evaluation on each atom on
its own by the direct-search oracle, which eliminates no quantifier.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from randcl import (
    DLO,
    Randomization,
    eval_direct,
    eval_event,
    finite_enum,
    free_vars,
    parse,
    partition,
)
from randcl.checks import random_formula
from randcl.oracles import type_key

VARS = ("p", "q", "s")


def _instance(sig, rows: list[tuple]) -> Randomization:
    n = len(rows)
    part = partition((f"w{i + 1}", Fraction(1, n)) for i in range(n))
    columns = {v: [row[k] for row in rows] for k, v in enumerate(VARS)}
    return Randomization.build(sig, part, columns)


def _per_atom(r: Randomization, f, binding: dict[str, str]) -> frozenset[int]:
    members = set()
    for i in range(r.partition.size):
        assign = {var: r.element(name).values[i] for var, name in binding.items()}
        if eval_direct(f, assign, r.sig):
            members.add(i)
    return frozenset(members)


def _types(r: Randomization) -> int:
    values = [r.element(v).values for v in VARS]
    return len({type_key(r.sig, row) for row in zip(*values)})


def _small_pool_dlo(rng: random.Random) -> Randomization:
    pool = [Fraction(k, 2) for k in range(4)]
    return _instance(DLO, [tuple(rng.choice(pool) for _ in VARS) for _ in range(240)])


def _distinct_dlo(rng: random.Random) -> Randomization:
    values = rng.sample(range(10**6), 3 * 60)
    rows = [tuple(Fraction(v, 7) for v in values[3 * i: 3 * i + 3]) for i in range(60)]
    return _instance(DLO, rows)


def _small_pool_enum(rng: random.Random) -> Randomization:
    sig = finite_enum(3)
    return _instance(sig, [tuple(rng.randrange(3) for _ in VARS) for _ in range(210)])


def _distinct_enum(rng: random.Random) -> Randomization:
    sig = finite_enum(5)
    codes = rng.sample(range(5**3), 60)
    return _instance(sig, [(c // 25, c // 5 % 5, c % 5) for c in codes])


@pytest.mark.parametrize("seed", range(4))
def test_repeated_types_match_per_atom_evaluation(seed):
    rng = random.Random(seed)
    for r in (_small_pool_dlo(rng), _small_pool_enum(rng)):
        assert r.partition.size >= 200
        assert _types(r) < r.partition.size // 4  # verdicts are shared
        binding = {v: v for v in VARS}
        for _ in range(6):
            f = random_formula(rng, r.sig, VARS, quantifiers=rng.randint(0, 2))
            ev = eval_event(r, f, binding)
            assert ev.members == _per_atom(r, f, binding), f


@pytest.mark.parametrize("seed", range(4))
def test_distinct_values_match_per_atom_evaluation(seed):
    rng = random.Random(100 + seed)
    for r in (_distinct_dlo(rng), _distinct_enum(rng)):
        binding = {v: v for v in VARS}
        for _ in range(6):
            f = random_formula(rng, r.sig, VARS, quantifiers=rng.randint(0, 2))
            ev = eval_event(r, f, binding)
            assert ev.members == _per_atom(r, f, binding), f


@pytest.mark.parametrize(
    "kind, text, expect_top",
    [
        ("dlo", "forall u. exists v. u < v", True),
        ("dlo", "exists u. forall v. (v < u | v = u)", False),
        ("dlo", "true", True),
        ("enum", "exists u. u = c2", True),
        ("enum", "forall u. u = c0", False),
    ],
)
def test_closed_formula_without_bound_variables(kind, text, expect_top):
    rng = random.Random(7)
    r = _small_pool_dlo(rng) if kind == "dlo" else _small_pool_enum(rng)
    f = parse(text, r.sig)
    assert not free_vars(f)
    ev = eval_event(r, f, {})
    assert ev.members == _per_atom(r, f, {})
    assert ev.is_top() is expect_top
    assert ev.is_bottom() is not expect_top


@pytest.mark.parametrize("kind", ["dlo", "enum"])
def test_binding_with_variable_not_free(kind):
    rng = random.Random(11)
    r = _small_pool_dlo(rng) if kind == "dlo" else _small_pool_enum(rng)
    text = "p < q" if kind == "dlo" else "p = q | q = c1"
    f = parse(text, r.sig)
    binding = {"p": "p", "q": "q", "s": "s", "t": "p"}
    assert set(binding) - set(free_vars(f)) == {"s", "t"}
    ev = eval_event(r, f, binding)
    assert ev.members == _per_atom(r, f, binding)
    assert ev == eval_event(r, f, {"p": "p", "q": "q"})


def test_rebinding_the_same_elements_in_another_order():
    # the randomization keeps the type keys of the last element tuple; a
    # permuted tuple must not be mistaken for it
    r = _small_pool_dlo(random.Random(3))
    f = parse("p < q & q < s", r.sig)
    for binding in (
        {"p": "p", "q": "q", "s": "s"},
        {"p": "s", "q": "q", "s": "p"},
        {"p": "q", "q": "p", "s": "s"},
        {"p": "p", "q": "q", "s": "s"},
    ):
        assert eval_event(r, f, binding).members == _per_atom(r, f, binding)
