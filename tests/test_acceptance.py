"""Acceptance gate: every headline property of the engine, checked exactly.

Each test prints one PASS/FAIL line (visible even under captured output)
and then asserts.  Everything here is exact rational arithmetic over a
deterministic corpus — no tolerances, no sampling noise.  The whole module
is budgeted to finish well inside a minute.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from randcl import (
    And,
    DLO,
    Exists,
    Not,
    Or,
    RandomElement,
    complement,
    definability_report,
    definable_closure,
    differs,
    elem_dist,
    eval_direct,
    eval_event,
    eval_qf,
    event_dist,
    fo_definable_closure,
    fo_event_algebra,
    free_vars,
    glue,
    if_less_closure,
    indicator,
    is_definable,
    is_pointwise_definable,
    is_quantifier_free,
    join,
    meet,
    qe,
    refine,
    transport_elem,
    transport_event,
    witness,
)
from randcl.checks import (
    corpus,
    isolating_event_algebra,
    perturb_element,
    random_formula,
    sample_params,
)

CORPUS_SEED = 20260817


def _report(capsys, num: int, desc: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _vals(elems) -> set:
    return {e.values for e in elems}


@pytest.fixture(scope="module")
def full_corpus():
    return corpus(CORPUS_SEED, 200, 40)


@pytest.fixture(scope="module")
def param_sets(full_corpus):
    rng = random.Random(CORPUS_SEED + 1)
    return [sample_params(rng, r) for r in full_corpus]


# 1 ------------------------------------------------------------------------

def test_exchange_failure(swap_pair, capsys):
    r = swap_pair
    ok = _vals(definable_closure(r, ["a", "b"])) == {
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(0)),
    }
    ok = ok and _vals(definable_closure(r, ["a", "hi"])) == {
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }
    ok = ok and _vals(definable_closure(r, ["a"])) == {(Fraction(0), Fraction(1))}
    ok = ok and is_definable(r, "hi", ["a", "b"]) is True
    ok = ok and is_definable(r, "b", ["a", "hi"]) is False
    _report(capsys, 1, "exchange property fails for the swap instance", ok)


# 2 ------------------------------------------------------------------------

def test_if_less_closure_equals_definable_closure(full_corpus, param_sets, capsys):
    ordered = [(r, A) for r, A in zip(full_corpus, param_sets) if r.sig.is_dlo]
    ok = len(ordered) >= 200
    for r, A in ordered:
        if _vals(if_less_closure(r, A)) != _vals(definable_closure(r, A)):
            ok = False
            break
    _report(capsys, 2, "combinator closure equals definable closure (ordered corpus)", ok)


# 3 ------------------------------------------------------------------------

def test_formula_routes_match_closure_routes(full_corpus, param_sets, capsys):
    ok = True
    for r, A in zip(full_corpus, param_sets):
        if _vals(fo_definable_closure(r, A)) != _vals(definable_closure(r, A)):
            ok = False
            break
        if fo_event_algebra(r, A) != isolating_event_algebra(r, A):
            ok = False
            break
    _report(capsys, 3, "single-formula routes equal closure enumerations", ok)


# 4 ------------------------------------------------------------------------

def test_decider_agreement_with_adversarial_elements(full_corpus, param_sets, capsys):
    rng = random.Random(CORPUS_SEED + 2)
    ok = True
    adversarial = 0
    for r, A in zip(full_corpus, param_sets):
        names = list(r.elements)
        for n in names:
            if not definability_report(r, n, A).agree:
                ok = False
        bad = perturb_element(rng, r, r.element(rng.choice(names)))
        rep = definability_report(r, bad, A)
        ok = ok and rep.agree
        if bad.values not in _vals(definable_closure(r, A)):
            adversarial += 1
            ok = ok and rep.verdict is False
        if not ok:
            break
    ok = ok and adversarial >= 50
    _report(capsys, 4, f"deciders agree ({adversarial} outside-closure probes)", ok)


# 5 ------------------------------------------------------------------------

def test_quantifier_elimination_oracle(capsys):
    rng = random.Random(424242)
    pool = ("p", "q", "s", "t")
    values = tuple(Fraction(k, 6) for k in range(25))
    quantifier_mix = [0] * 6 + [1] * 9 + [2] * 4 + [3]
    ok = True
    for _ in range(500):
        f = random_formula(
            rng, DLO, pool, quantifiers=rng.choice(quantifier_mix), depth=3
        )
        g = qe(f)
        if not is_quantifier_free(g):
            ok = False
            break
        for _ in range(50):
            assign = {v: rng.choice(values) for v in pool}
            if eval_qf(g, assign) != eval_direct(f, assign):
                ok = False
                break
        if not ok:
            break
    _report(capsys, 5, "eliminated formulas match direct evaluation (500 x 50)", ok)


# 6 ------------------------------------------------------------------------

def test_no_parameters_no_events(full_corpus, capsys):
    ok = all(
        fo_event_algebra(r, []).atoms == (r.partition.top(),) for r in full_corpus
    )
    _report(capsys, 6, "empty parameter set defines only the trivial events", ok)


# 7 ------------------------------------------------------------------------

def test_pointwise_definable_gap(coin, capsys):
    r = coin
    ok = is_pointwise_definable(r, "b", []) is True
    ok = ok and is_definable(r, "b", []) is False
    n = r.sig.n
    assert n is not None
    size = r.partition.size
    for v in range(n):
        const = RandomElement(r.sig, r.partition, (v,) * size)
        ok = ok and is_definable(r, const, []) is True
    _report(capsys, 7, "pointwise definable without being definable", ok)


# 8 ------------------------------------------------------------------------

def test_structural_suite(full_corpus, capsys):
    rng = random.Random(CORPUS_SEED + 3)
    ok = True
    hom_pairs = 0
    witness_runs = 0
    for r in full_corpus:
        names = tuple(r.elements)
        binding = {n: n for n in names}
        elems = [r.element(n) for n in names]

        # metric axioms for both sorts, exact
        for a in elems:
            for b in elems:
                d = elem_dist(a, b)
                ok = ok and d == elem_dist(b, a)
                ok = ok and (d == 0) == (a.values == b.values)
                ok = ok and all(
                    elem_dist(a, c) <= d + elem_dist(b, c) for c in elems
                )
        events = [
            eval_event(r, random_formula(rng, r.sig, names), binding)
            for _ in range(2)
        ] + [r.partition.top(), r.partition.bottom()]
        for x in events:
            for y in events:
                d = event_dist(x, y)
                ok = ok and d == event_dist(y, x)
                ok = ok and (d == 0) == (x == y)
                ok = ok and all(
                    event_dist(x, z) <= d + event_dist(y, z) for z in events
                )

        # the event map is a Boolean homomorphism
        for _ in range(2):
            f = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
            g = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
            ef, eg = eval_event(r, f, binding), eval_event(r, g, binding)
            ok = ok and eval_event(r, And(f, g), binding) == meet(ef, eg)
            ok = ok and eval_event(r, Or(f, g), binding) == join(ef, eg)
            ok = ok and eval_event(r, Not(f), binding) == complement(ef)
            ok = ok and eval_event(r, Or(f, Not(f)), binding).is_top()
            hom_pairs += 1

        # glue agrees with each side on its half; an everywhere-apart pair
        # turns any event into an element and back
        a, b = elems[0], elems[-1]
        e = r.partition.event(
            frozenset(i for i in range(r.partition.size) if rng.random() < 0.5)
        )
        c = glue(a, b, e)
        ok = ok and meet(e, differs(c, a)).is_bottom()
        ok = ok and meet(complement(e), differs(c, b)).is_bottom()
        hi_val = Fraction(1) if r.sig.is_dlo else 1
        lo = RandomElement(r.sig, r.partition, (0,) * r.partition.size)
        hi = RandomElement(r.sig, r.partition, (hi_val,) * r.partition.size)
        ind = indicator(e, hi, lo)
        ok = ok and frozenset(
            i for i, v in enumerate(ind.values) if v == hi_val
        ) == e.members

        # witness postcondition: plugging the witness in hits the projection
        theta = random_formula(
            rng, r.sig, ("t",) + names[:2], quantifiers=rng.randint(0, 1)
        )
        wbind = {n: n for n in free_vars(theta) if n != "t"}
        w = witness(r, theta, "t", wbind)
        got = eval_event(r, theta, {**wbind, "t": w})
        ok = ok and got == eval_event(r, Exists("t", theta), wbind)
        witness_runs += 1

        # refinement transports measure and both metrics unchanged
        fine, mapping = refine(
            r.partition, rng.randrange(r.partition.size), rng.randint(2, 3)
        )
        moved = [transport_elem(x, fine, mapping) for x in elems]
        ok = ok and all(
            elem_dist(x, y) == elem_dist(mx, my)
            for x, mx in zip(elems, moved)
            for y, my in zip(elems, moved)
        )
        te = transport_event(e, fine, mapping)
        ok = ok and te.prob == e.prob
        ok = ok and event_dist(te, fine.top()) == event_dist(e, r.partition.top())
        if not ok:
            break
    ok = ok and hom_pairs >= 300 and witness_runs >= 200
    _report(capsys, 8, "metrics, homomorphism, glue, witness, refinement", ok)


# 9 ------------------------------------------------------------------------

def test_closure_monotone_and_idempotent(full_corpus, param_sets, capsys):
    rng = random.Random(CORPUS_SEED + 4)
    ok = True
    for r, A in zip(full_corpus, param_sets):
        rest = [n for n in r.elements if n not in A]
        bigger = list(A) + rest[: rng.randint(0, 2)]
        small = definable_closure(r, A)
        large = definable_closure(r, bigger)
        ok = ok and _vals(small) <= _vals(large)
        ok = ok and _vals(definable_closure(r, small)) == _vals(small)
        if not ok:
            break
    _report(capsys, 9, "definable closure is monotone and idempotent", ok)
