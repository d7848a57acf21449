from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    RandomElement,
    definability_report,
    definable_closure,
    fo_definable_closure,
    fo_definable_on,
    fo_event_algebra,
    glue,
    if_less,
    if_less_closure,
    is_definable,
    is_definable_by_isolating_events,
    is_definable_by_pinning,
    is_pointwise_definable,
    piecewise_definable,
    pointwise_definable_event,
    pointwise_max,
    pointwise_min,
)
from randcl.checks import isolating_event_algebra, random_instance, sample_params
from randcl.oracles import _if_less_closure_naive


def values(elems) -> set:
    return {e.values for e in elems}


# ---------------------------------------------------------------------------
# event algebras
# ---------------------------------------------------------------------------

def test_event_algebra_no_parameters(swap_pair):
    alg = fo_event_algebra(swap_pair, [])
    assert alg.atoms == (swap_pair.partition.top(),)


def test_event_algebra_single_parameter_trivial(swap_pair):
    # one element has the same one-point order type on both atoms
    alg = fo_event_algebra(swap_pair, ["a"])
    assert alg.atoms == (swap_pair.partition.top(),)


def test_event_algebra_two_parameters(swap_pair):
    alg = fo_event_algebra(swap_pair, ["a", "b"])
    part = swap_pair.partition
    assert alg.atoms == (part.event(["w1"]), part.event(["w2"]))


def test_event_algebra_matches_isolating_oracle(swap_pair):
    for A in ([], ["a"], ["a", "b"], ["a", "b", "hi"]):
        assert fo_event_algebra(swap_pair, A) == isolating_event_algebra(swap_pair, A)


def test_event_algebra_unknown_name(swap_pair):
    with pytest.raises(ValueError, match="unknown element"):
        fo_event_algebra(swap_pair, ["nope"])


def test_duplicate_parameter_names_rejected(swap_pair):
    with pytest.raises(ValueError, match="duplicate parameter"):
        fo_event_algebra(swap_pair, ["a", "a"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_algebra_routes_agree(seed):
    """Direct type grouping equals the generated-subalgebra oracle."""
    rng = random.Random(seed)
    r = random_instance(rng)
    A = sample_params(rng, r)
    assert fo_event_algebra(r, A) == isolating_event_algebra(r, A)


# ---------------------------------------------------------------------------
# pointwise definability
# ---------------------------------------------------------------------------

def test_pointwise_event(swap_pair):
    r = swap_pair
    assert pointwise_definable_event(r, "hi", ["a", "b"]).is_top()
    half = RandomElement(r.sig, r.partition, (Fraction(1, 2), Fraction(1, 2)))
    assert pointwise_definable_event(r, half, ["a", "b"]).is_bottom()


def test_pointwise_enum_always(coin):
    assert pointwise_definable_event(coin, "b", []).is_top()
    assert is_pointwise_definable(coin, "b", [])


# ---------------------------------------------------------------------------
# event-local definability
# ---------------------------------------------------------------------------

def test_fo_definable_on_examples(swap_pair):
    r = swap_pair
    top = r.partition.top()
    assert fo_definable_on(r, "hi", top, ["a", "b"])
    assert not fo_definable_on(r, "a", top, ["b"])
    assert not fo_definable_on(r, "b", r.partition.event(["w2"]), ["a"])
    assert fo_definable_on(r, "b", r.partition.bottom(), ["a"])


def test_fo_definable_on_half_atom(swap_pair):
    # an event smaller than an algebra atom still works when the element
    # is pinned there: b agrees with a nowhere, but hi does on w2
    r = swap_pair
    assert fo_definable_on(r, "hi", r.partition.event(["w2"]), ["a"])
    assert not fo_definable_on(r, "hi", r.partition.event(["w1"]), ["a"])


def test_piecewise_definable(swap_pair):
    r = swap_pair
    ok, family = piecewise_definable(r, "hi", ["a", "b"])
    assert ok
    assert family == (r.partition.event(["w1"]), r.partition.event(["w2"]))
    ok, family = piecewise_definable(r, "b", ["a", "hi"])
    assert not ok
    ok, family = piecewise_definable(r, "a", ["a"])
    assert ok and family == (r.partition.top(),)


# ---------------------------------------------------------------------------
# whole-element deciders
# ---------------------------------------------------------------------------

def test_is_definable_exchange_example(swap_pair):
    r = swap_pair
    assert is_definable(r, "hi", ["a", "b"])
    assert not is_definable(r, "b", ["a", "hi"])
    assert is_definable(r, "a", ["a"])


def test_pinning_decider(swap_pair):
    r = swap_pair
    assert is_definable_by_pinning(r, "hi", ["a", "b"])
    assert not is_definable_by_pinning(r, "b", ["a", "hi"])


def test_pinning_needs_order(coin):
    with pytest.raises(ValueError, match="ordered"):
        is_definable_by_pinning(coin, "b", [])


def test_isolating_events_decider(swap_pair, coin):
    assert is_definable_by_isolating_events(swap_pair, "hi", ["a", "b"])
    assert not is_definable_by_isolating_events(swap_pair, "b", ["a", "hi"])
    assert not is_definable_by_isolating_events(coin, "b", [])
    assert is_definable_by_isolating_events(coin, "zero", [])


def test_enum_gap(coin):
    # pointwise definable everywhere, yet not definable
    assert is_pointwise_definable(coin, "b", [])
    assert not is_definable(coin, "b", [])
    assert is_definable(coin, "zero", [])
    assert is_definable(coin, "one", [])


def test_report_agreement(swap_pair, coin):
    for r, name, A in (
        (swap_pair, "hi", ["a", "b"]),
        (swap_pair, "b", ["a", "hi"]),
        (coin, "b", []),
        (coin, "one", ["b"]),
    ):
        report = definability_report(r, name, A)
        assert report.agree, report.paths


# ---------------------------------------------------------------------------
# closure enumerations
# ---------------------------------------------------------------------------

def test_definable_closure_exchange_example(swap_pair):
    r = swap_pair
    assert values(definable_closure(r, ["a", "b"])) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    }
    assert values(definable_closure(r, ["a", "hi"])) == {
        r.element("a").values,
        r.element("hi").values,
    }
    assert values(definable_closure(r, ["a"])) == {r.element("a").values}
    assert definable_closure(r, []) == []


def test_definable_closure_enum(coin):
    assert values(definable_closure(coin, [])) == {(0, 0), (1, 1)}
    assert values(definable_closure(coin, ["b"])) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_fo_closure_matches(swap_pair, coin):
    for r, A in (
        (swap_pair, ["a", "b"]),
        (swap_pair, ["a", "hi"]),
        (swap_pair, []),
        (coin, []),
        (coin, ["b"]),
    ):
        assert values(fo_definable_closure(r, A)) == values(definable_closure(r, A))


def test_closure_members_pass_deciders(swap_pair):
    r = swap_pair
    closure = definable_closure(r, ["a", "b"])
    for e in closure:
        assert is_definable(r, e, ["a", "b"])
    outside = RandomElement(r.sig, r.partition, (Fraction(2), Fraction(2)))
    assert not is_definable(r, outside, ["a", "b"])


def test_if_less_closure(swap_pair):
    r = swap_pair
    assert values(if_less_closure(r, ["a", "b"])) == values(
        definable_closure(r, ["a", "b"])
    )
    assert values(if_less_closure(r, ["a"])) == {r.element("a").values}
    assert if_less_closure(r, []) == []


def test_if_less_closure_routes_agree(swap_pair):
    r = swap_pair
    fast = if_less_closure(r, ["a", "b", "hi"])
    slow = _if_less_closure_naive(r, ["a", "b", "hi"])
    assert values(fast) == values(slow)


def test_if_less_closure_needs_order(coin):
    with pytest.raises(ValueError, match="ordered"):
        if_less_closure(coin, ["b"])


def test_closure_laws_on_example(swap_pair):
    r = swap_pair
    small = definable_closure(r, ["a"])
    large = definable_closure(r, ["a", "b"])
    assert values(small) <= values(large)
    again = definable_closure(r, large)
    assert values(again) == values(large)


# ---------------------------------------------------------------------------
# properties over random instances
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closure_routes_agree_on_random_instances(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    A = sample_params(rng, r)
    dc = values(definable_closure(r, A))
    assert values(fo_definable_closure(r, A)) == dc
    if r.sig.is_dlo:
        assert values(if_less_closure(r, A)) == dc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_deciders_agree_on_random_instances(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    A = sample_params(rng, r)
    names = list(r.elements)
    b = r.element(names[rng.randrange(len(names))])
    derived = glue(
        b,
        r.element(names[rng.randrange(len(names))]),
        fo_event_algebra(r, A).atoms[0],
    )
    for elem in (b, derived):
        report = definability_report(r, elem, A)
        assert report.agree, report.paths


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_max_land_in_closure(seed):
    rng = random.Random(seed)
    r = random_instance(rng, "dlo")
    names = rng.sample(list(r.elements), 2)
    closure = values(definable_closure(r, names))
    x, y = r.element(names[0]), r.element(names[1])
    assert pointwise_min(x, y).values in closure
    assert pointwise_max(x, y).values in closure
    assert if_less(x, y, y, x).values in closure
