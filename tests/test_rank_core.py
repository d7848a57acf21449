"""The closure family on integer rank rows.

The closure routes build, compare and sort per-atom dense ranks (the rows
of randvar._type_rows) and decode to values only for their output; event
probabilities are integer sums over the partition's common denominator.
Each is checked here against a reference that works on the Fraction
values themselves, kept in this file: the routes must return the same
elements in the same order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    DLO,
    Event,
    Partition,
    RandomElement,
    Randomization,
    definability_report,
    definable_closure,
    fo_definable_closure,
    fo_definable_on,
    fo_event_algebra,
    glue,
    if_less_closure,
    pointwise_definable_event,
    pointwise_max,
    refine,
    transport_event,
)
from randcl import algebra
from randcl.algebra import _resolve_params
from randcl.checks import (
    _if_less_closure_naive,
    corpus,
    perturb_element,
    random_instance,
    sample_params,
    type_key,
)

CORPUS_SEED = 20260817  # the acceptance corpus


# ---------------------------------------------------------------------------
# references on Fraction values
# ---------------------------------------------------------------------------

def _groups(r, elems) -> list[list[int]]:
    groups: dict[tuple, list[int]] = {}
    for i in range(r.partition.size):
        key = type_key(r.sig, tuple(e.values[i] for e in elems))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _reference_closure(r, params) -> list[tuple]:
    """definable_closure on value tuples: per type group, the parameters'
    restrictions (DLO) or the constant ones (enumerated domain); their
    product as a set of Fraction tuples, sorted."""
    elems = _resolve_params(r, params)
    if r.sig.is_dlo and not elems:
        return []
    groups = _groups(r, elems)
    per_group = []
    for g in groups:
        if r.sig.is_dlo:
            per_group.append({tuple(e.values[i] for i in g) for e in elems})
        else:
            per_group.append({(v,) * len(g) for v in range(r.sig.n)})
    vectors = set()
    for combo in itertools.product(*per_group):
        vec = [None] * r.partition.size
        for g, restriction in zip(groups, combo):
            for pos, val in zip(g, restriction):
                vec[pos] = val
        vectors.add(tuple(vec))
    return sorted(vectors)


def _reference_fo_definable_on(r, b, e, elems) -> bool:
    """fo_definable_on with the full type key of (parameters, element) on
    every atom, and the pinning test on values."""
    refined: dict[tuple, list[int]] = {}
    for i in range(r.partition.size):
        vals = tuple(x.values[i] for x in elems)
        key = (type_key(r.sig, vals), type_key(r.sig, vals + (b.values[i],)))
        refined.setdefault(key, []).append(i)
    selected = set()
    for (base, _), group in refined.items():
        inside = [i for i in group if i in e.members]
        if not inside:
            continue
        if len(inside) != len(group) or base in selected:
            return False
        selected.add(base)
        if r.sig.is_dlo and all(x.values[group[0]] != b.values[group[0]] for x in elems):
            return False
    return True


def _assert_routes_match(r, params) -> None:
    want = [RandomElement(r.sig, r.partition, v) for v in _reference_closure(r, params)]
    assert definable_closure(r, params) == want
    assert fo_definable_closure(r, params) == want
    if r.sig.is_dlo:
        assert if_less_closure(r, params) == want
        if len(want) <= 12:
            assert _if_less_closure_naive(r, params) == want


# ---------------------------------------------------------------------------
# ranks sort as values
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.sampled_from([Fraction(k, 2) for k in range(-3, 4)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[_VALUES] * n), min_size=1, max_size=8)
    )
)
def test_sorting_by_per_atom_ranks_sorts_the_values(vectors):
    columns = [type_key(DLO, col) for col in zip(*vectors)]
    ranks = list(zip(*columns))
    for a, b in itertools.product(range(len(vectors)), repeat=2):
        assert (ranks[a] == ranks[b]) == (vectors[a] == vectors[b])
    by_rank = sorted(range(len(vectors)), key=ranks.__getitem__)
    assert [vectors[i] for i in by_rank] == sorted(vectors)


# ---------------------------------------------------------------------------
# closure routes against the reference, as ordered lists
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def acceptance_corpus():
    instances = corpus(CORPUS_SEED, 200, 40)
    rng = random.Random(CORPUS_SEED + 1)
    return [(r, sample_params(rng, r)) for r in instances]


def test_closure_routes_match_reference_on_acceptance_corpus(acceptance_corpus):
    for r, params in acceptance_corpus:
        _assert_routes_match(r, params)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dlo", "enum"]))
def test_closure_routes_match_reference_on_random_instances(seed, kind):
    rng = random.Random(seed)
    r = random_instance(rng, kind)
    names = list(r.elements)
    # up to every element: more parameters than the fuzz corpus uses
    params = rng.sample(names, rng.randint(0, len(names)))
    _assert_routes_match(r, params)


def test_closure_of_equal_valued_parameters():
    # two names for one element, and values that tie across elements
    part = Partition([("w1", "1/4"), ("w2", "1/4"), ("w3", "1/2")])
    r = Randomization.build(
        DLO,
        part,
        {"a": (0, 2, 1), "b": (0, 2, 1), "c": (1, 2, "1/2"), "d": (3, "-1/2", 1)},
    )
    for params in (["a", "b"], ["a", "c"], ["c", "d", "a"], ["d"]):
        _assert_routes_match(r, params)


def _answers(r, b, params) -> list:
    out = [
        definable_closure(r, params),
        fo_definable_closure(r, params),
        fo_event_algebra(r, params),
        pointwise_definable_event(r, b, params),
    ]
    if r.sig.is_dlo:
        out.append(if_less_closure(r, params))
    report = definability_report(r, b, params)
    return [*out, report.paths, report.verdict]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_value_equal_parameter_changes_no_answer(seed):
    # parameters are kept as given, not deduplicated by value: a copy of
    # one, in fresh value objects and at any position, is a column equal
    # to one already there, which no route may tell apart
    rng = random.Random(seed)
    r = random_instance(rng)
    names = list(r.elements)
    params = [r.element(n) for n in sample_params(rng, r) or [rng.choice(names)]]
    twin = rng.choice(params).values
    if r.sig.is_dlo:
        twin = tuple(Fraction(v.numerator, v.denominator) for v in twin)
    more = list(params)
    more.insert(rng.randint(0, len(more)), RandomElement(r.sig, r.partition, twin))
    b = r.element(rng.choice(names))
    assert _answers(r, b, more) == _answers(r, b, params)


# ---------------------------------------------------------------------------
# the element's column: fo_definable_on and membership
# ---------------------------------------------------------------------------

def _probes(rng, r, elems):
    names = list(r.elements)
    out = [r.element(n) for n in names]
    out.append(perturb_element(rng, r, out[0]))
    if r.sig.is_dlo:
        out.append(pointwise_max(out[0], out[1]))
        out.append(RandomElement(r.sig, r.partition, (Fraction(-7),) * r.partition.size))
    dc = definable_closure(r, elems)
    if dc:
        out.append(dc[rng.randrange(len(dc))])
        out.append(glue(dc[rng.randrange(len(dc))], out[0], r.partition.event([0])))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fo_definable_on_matches_reference(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    elems = _resolve_params(r, sample_params(rng, r))
    for b in _probes(rng, r, elems):
        members = [i for i in range(r.partition.size) if rng.random() < 0.5]
        for e in (r.partition.top(), r.partition.event(members)):
            assert fo_definable_on(r, b, e, elems) == _reference_fo_definable_on(
                r, b, e, elems
            )


def test_membership_matches_enumeration_on_acceptance_corpus(acceptance_corpus):
    rng = random.Random(CORPUS_SEED + 2)
    for r, params in acceptance_corpus:
        elems = _resolve_params(r, params)
        inside = set(_reference_closure(r, params))
        top = r.partition.top()
        for b in _probes(rng, r, elems):
            assert fo_definable_on(r, b, top, elems) == (b.values in inside)


def test_isdef_does_not_enumerate_the_closure(monkeypatch):
    """Six parameters in a different order on each of twelve atoms: the
    closure has 6**12 elements, and membership is still decided."""
    rng = random.Random(7)
    n_atoms, n_params = 12, 6
    part = Partition((f"w{i}", Fraction(1, n_atoms)) for i in range(n_atoms))
    rows = [rng.sample(range(n_params), n_params) for _ in range(n_atoms)]
    elements = {f"p{k}": [row[k] for row in rows] for k in range(n_params)}
    picks = [row[rng.randrange(n_params)] for row in rows]
    r = Randomization.build(DLO, part, {**elements, "b": picks})
    params = list(elements)

    def refuse(*_):
        raise AssertionError("definability_report enumerated the closure")

    monkeypatch.setattr(algebra, "definable_closure", refuse)
    b = r.element("b")
    assert definability_report(r, b, params).paths["closure_member"] is True
    moved = RandomElement(r.sig, part, (b.values[0] + Fraction(1, 3),) + b.values[1:])
    report = definability_report(r, moved, params)
    assert report.agree and report.verdict is False


# ---------------------------------------------------------------------------
# integer weights
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(masses=st.lists(st.integers(1, 12), min_size=1, max_size=8), data=st.data())
def test_event_prob_is_the_fraction_sum(masses, data):
    total = sum(masses)
    part = Partition((f"w{i}", Fraction(m, total)) for i, m in enumerate(masses))
    members = data.draw(st.sets(st.integers(0, part.size - 1)))
    e = part.event(members)
    assert e.prob == sum((part.weight(i) for i in members), Fraction(0))

    atom = data.draw(st.integers(0, part.size - 1))
    fine, mapping = refine(part, atom, data.draw(st.integers(1, 5)))
    moved = transport_event(e, fine, mapping)
    assert moved.prob == e.prob
    fine_members = data.draw(st.sets(st.integers(0, fine.size - 1)))
    assert Event(fine, fine_members).prob == sum(
        (fine.weight(i) for i in fine_members), Fraction(0)
    )


def test_integer_weights_are_derived_state():
    a = Partition([("x", "1/3"), ("y", "1/6"), ("z", "1/2")])
    b = Partition([("x", Fraction(2, 6)), ("y", Fraction(1, 6)), ("z", Fraction(3, 6))])
    assert a == b and hash(a) == hash(b)
    assert "_nums" not in repr(a) and "_denom" not in repr(a)
    with pytest.raises(ValueError, match="weights sum to 7/6"):
        Partition([("x", "1/3"), ("y", "1/3"), ("z", "1/2")])
