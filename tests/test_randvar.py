from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randcl
from randcl import (
    And,
    Atom,
    Const,
    DLO,
    Exists,
    Not,
    Or,
    Partition,
    RandomElement,
    Randomization,
    Var,
    complement,
    definable_closure,
    differs,
    elem_dist,
    eval_event,
    eval_qf,
    finite_enum,
    free_vars,
    glue,
    if_less,
    indicator,
    is_valid,
    join,
    meet,
    parse,
    pointwise_definable_event,
    pointwise_max,
    pointwise_min,
    qe,
    refine,
    transport_elem,
    witness,
)
from randcl.checks import (
    definable_in_model,
    perturb_element,
    random_formula,
    random_instance,
    type_key,
)
from randcl.randvar import _int_columns, _type_rows

HALF = Fraction(1, 2)


def test_element_validation(swap_pair):
    part = swap_pair.partition
    with pytest.raises(ValueError, match="1 values for 2 atoms"):
        RandomElement(DLO, part, (0,))
    with pytest.raises(ValueError, match="out of domain"):
        RandomElement(finite_enum(2), part, (0, 2))
    with pytest.raises(ValueError, match="out of domain"):
        RandomElement(finite_enum(2), part, (0, True))


def test_element_rejects_float_values(swap_pair):
    part = swap_pair.partition
    with pytest.raises(ValueError, match="float 0.1 is not exact"):
        RandomElement(DLO, part, (0.1, 2))
    e = RandomElement(DLO, part, (1, "3/2"))
    assert e.values == (1, Fraction(3, 2))
    assert all(type(v) is Fraction for v in e.values)


def test_unknown_element(swap_pair):
    with pytest.raises(ValueError, match="unknown element 'z'"):
        swap_pair.element("z")


# ---------------------------------------------------------------------------
# event evaluation
# ---------------------------------------------------------------------------

def test_eval_event_atoms(swap_pair):
    r = swap_pair
    assert eval_event(r, parse("a < b"), {"a": "a", "b": "b"}) == r.partition.event(["w1"])
    assert eval_event(r, parse("a = b"), {"a": "a", "b": "b"}) == r.partition.bottom()
    between = parse("exists u. (a < u & u < b)")
    assert eval_event(r, between, {"a": "a", "b": "b"}) == r.partition.event(["w1"])


def test_eval_event_needs_binding(swap_pair):
    with pytest.raises(ValueError, match="unassigned free variable"):
        eval_event(swap_pair, parse("a < b"), {"a": "a"})


def test_bad_signature_raises_before_unbound_variable(coin):
    # '<' is outside FiniteEnum, and neither variable is bound
    f = Atom(Var("x"), "<", Var("y"))
    with pytest.raises(ValueError, match="not in FiniteEnum"):
        eval_event(coin, f, {})
    with pytest.raises(ValueError, match="not in FiniteEnum"):
        witness(coin, f, "x")


_FOREIGN_USES = {
    "closure parameter": lambda r, x: definable_closure(r, ["a", x]),
    "eval_event binding": lambda r, x: eval_event(r, parse("a < x"), {"a": "a", "x": x}),
    "witness binding": lambda r, x: witness(r, parse("u < x"), "u", {"x": x}),
}


@pytest.mark.parametrize("use", sorted(_FOREIGN_USES))
def test_element_of_another_space_is_rejected(swap_pair, use):
    # same theory and atom names, different weights
    other = Partition([("w1", "1/3"), ("w2", "2/3")])
    foreign = RandomElement(DLO, other, (0, 1))
    with pytest.raises(ValueError, match="different space"):
        _FOREIGN_USES[use](swap_pair, foreign)


def test_eval_event_enum(coin):
    r = coin
    assert eval_event(r, parse("x = c0", r.sig), {"x": "b"}) == r.partition.event(["w1"])
    tauto = parse("x = c0 | x = c1", r.sig)
    assert eval_event(r, tauto, {"x": "b"}).is_top()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_event_map_is_boolean_homomorphism(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    names = tuple(r.elements)
    binding = {n: n for n in names}
    f = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
    g = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
    ef, eg = eval_event(r, f, binding), eval_event(r, g, binding)
    assert eval_event(r, And(f, g), binding) == meet(ef, eg)
    assert eval_event(r, Or(f, g), binding) == join(ef, eg)
    assert eval_event(r, Not(f), binding) == complement(ef)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validity_transfers_to_sure_events(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    f = random_formula(rng, r.sig, tuple(r.elements), quantifiers=rng.randint(0, 2))
    if is_valid(r.sig, f):
        assert eval_event(r, f, {n: n for n in free_vars(f)}).is_top()
    assert eval_event(r, Or(f, Not(f)), {n: n for n in free_vars(f)}).is_top()


# ---------------------------------------------------------------------------
# the element metric
# ---------------------------------------------------------------------------

def test_elem_dist(swap_pair):
    r = swap_pair
    a, b = r.element("a"), r.element("b")
    assert elem_dist(a, a) == 0
    assert elem_dist(a, b) == 1
    assert elem_dist(a, pointwise_max(a, b)) == HALF


def test_elem_dist_metric_axioms(swap_pair):
    elems = list(swap_pair.elements.values())
    for x in elems:
        for y in elems:
            assert elem_dist(x, y) == elem_dist(y, x)
            assert elem_dist(x, y) == differs(x, y).prob
            assert (elem_dist(x, y) == 0) == (x.values == y.values)
            for z in elems:
                assert elem_dist(x, z) <= elem_dist(x, y) + elem_dist(y, z)


def test_elem_dist_checks_both_elements_share_a_space(swap_pair):
    a = swap_pair.element("a")
    elsewhere = RandomElement(DLO, Partition([("w1", 1)]), (0,))
    with pytest.raises(ValueError, match="partition mismatch"):
        elem_dist(a, elsewhere)
    enum = RandomElement(finite_enum(2), a.partition, (0, 1))
    with pytest.raises(ValueError, match="signature mismatch"):
        elem_dist(a, enum)


# ---------------------------------------------------------------------------
# glue, characteristic elements, if_less
# ---------------------------------------------------------------------------

def test_glue(swap_pair):
    r = swap_pair
    a, b = r.element("a"), r.element("b")
    w1 = r.partition.event(["w1"])
    assert glue(a, b, w1).values == (Fraction(0), Fraction(0))
    assert glue(a, b, r.partition.top()) == a
    assert glue(a, b, r.partition.bottom()) == b


def test_glue_postcondition(swap_pair):
    r = swap_pair
    a, b = r.element("a"), r.element("hi")
    e = r.partition.event(["w2"])
    c = glue(a, b, e)
    assert e.members <= complement(differs(c, a)).members
    assert complement(e).members <= complement(differs(c, b)).members


def test_indicator(swap_pair):
    r = swap_pair
    hi, lo = r.element("hi"), r.element("lo")
    w1 = r.partition.event(["w1"])
    assert indicator(w1, hi, lo).values == (Fraction(1), Fraction(0))
    assert indicator(r.partition.top(), hi, lo) == hi
    assert indicator(r.partition.bottom(), hi, lo) == lo


def test_indicator_needs_disagreement_everywhere(swap_pair):
    r = swap_pair
    with pytest.raises(ValueError, match="agree somewhere"):
        indicator(r.partition.top(), r.element("a"), r.element("lo"))


def test_if_less(swap_pair):
    r = swap_pair
    a, b = r.element("a"), r.element("b")
    assert if_less(a, b, a, b).values == (Fraction(0), Fraction(0))
    assert if_less(a, b, b, a).values == (Fraction(1), Fraction(1))
    x, y = r.element("hi"), r.element("lo")
    assert if_less(a, a, x, y) == y


def test_if_less_matches_glue(swap_pair):
    r = swap_pair
    a, b, x, y = (r.element(n) for n in ("a", "b", "hi", "lo"))
    e = eval_event(r, parse("a < b"), {"a": a, "b": b})
    assert if_less(a, b, x, y) == glue(x, y, e)


def test_min_max(swap_pair):
    r = swap_pair
    a, b = r.element("a"), r.element("b")
    assert pointwise_min(a, b) == r.element("lo")
    assert pointwise_max(a, b) == r.element("hi")
    assert pointwise_max(a, a) == a


def test_if_less_rejects_enum(coin):
    b = coin.element("b")
    with pytest.raises(ValueError, match="ordered"):
        if_less(b, b, b, b)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_midpoint_rule(swap_pair):
    r = swap_pair
    theta = parse("a < u & u < b")
    w = witness(r, theta, "u", {"a": "a", "b": "b"})
    assert w.values == (HALF, Fraction(0))
    got = eval_event(r, theta, {"a": "a", "b": "b", "u": w})
    want = eval_event(r, Exists("u", theta), {"a": "a", "b": "b"})
    assert got == want == r.partition.event(["w1"])


def test_witness_forced_value(swap_pair):
    w = witness(swap_pair, parse("u = a"), "u", {"a": "a"})
    assert w == swap_pair.element("a")


def test_witness_unsatisfiable(swap_pair):
    r = swap_pair
    theta = parse("u < a & a < u")
    w = witness(r, theta, "u", {"a": "a"})
    assert w.values == (Fraction(0), Fraction(0))
    assert eval_event(r, theta, {"a": "a", "u": w}).is_bottom()
    assert eval_event(r, Exists("u", theta), {"a": "a"}).is_bottom()


def test_witness_enum(coin):
    r = coin
    theta = parse("~ u = x", r.sig)
    w = witness(r, theta, "u", {"x": "b"})
    assert w.values == (1, 0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_event_equals_projection(seed):
    rng = random.Random(seed)
    r = random_instance(rng)
    names = tuple(r.elements)[:2]
    theta = random_formula(rng, r.sig, ("t",) + names, quantifiers=rng.randint(0, 1))
    binding = {n: n for n in free_vars(theta) if n != "t"}
    w = witness(r, theta, "t", binding)
    assert eval_event(r, theta, {**binding, "t": w}) == eval_event(
        r, Exists("t", theta), binding
    )


def _witness_by_atom(r, theta, u, binding) -> tuple:
    """Reference for witness: the region search run afresh on every atom,
    on the atom's own values, in the preference order of the docstring."""
    g = qe(theta, r.sig)
    params = {v: r.element(n) for v, n in binding.items() if v != u}
    out = []
    for i in range(r.partition.size):
        assign = {v: e.values[i] for v, e in params.items()}

        def sat(point):
            return eval_qf(g, {**assign, u: point})

        if not r.sig.is_dlo:
            out.append(next((d for d in range(r.sig.n) if sat(d)), 0))
            continue
        vals = sorted(set(assign.values()))
        if not vals:
            out.append(Fraction(0))
            continue
        gaps = [(lo, hi) for lo, hi in zip(vals, vals[1:]) if sat((lo + hi) / 2)]
        if gaps:
            lo, hi = min(gaps, key=lambda gap: gap[1] - gap[0])
            out.append((lo + hi) / 2)
        else:
            candidates = [v for v in vals if sat(v)]
            candidates += [vals[0] - 1] if sat(vals[0] - 1) else []
            candidates += [vals[-1] + 1] if sat(vals[-1] + 1) else []
            out.append(candidates[0] if candidates else Fraction(0))
    return tuple(out)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_matches_per_atom_search(seed):
    # the regions are decided once per type of the bound values; the values
    # must be those of a search on every atom, unused bound variables included
    rng = random.Random(seed)
    r = random_instance(rng)
    names = tuple(r.elements)
    theta = random_formula(rng, r.sig, ("t",) + names[:3], quantifiers=rng.randint(0, 2))
    binding = {n: n for n in free_vars(theta) if n != "t"}
    binding[names[-1]] = names[-1]
    assert witness(r, theta, "t", binding).values == _witness_by_atom(
        r, theta, "t", binding
    )


def test_witness_picks_smallest_forced_value(swap_pair):
    # no gap satisfies, so the smallest satisfying value wins on each atom
    w = witness(swap_pair, parse("u = a | u = b"), "u", {"a": "a", "b": "b"})
    assert w.values == (Fraction(0), Fraction(0))


def test_witness_picks_tightest_gap_per_atom():
    # one order type on both atoms, but the tighter gap differs
    part = Partition([("w1", "1/2"), ("w2", "1/2")])
    r = Randomization.build(
        DLO, part, {"a": (0, 0), "b": (1, 5), "c": (3, 6)}
    )
    theta = parse("(a < u & u < b) | (b < u & u < c)")
    w = witness(r, theta, "u", {"a": "a", "b": "b", "c": "c"})
    assert w.values == (HALF, Fraction(11, 2))


@st.composite
def _enum_witness_case(draw):
    """An enum(n) instance for n in 2..7 and a formula in t and its
    elements naming up to n constants."""
    n = draw(st.integers(2, 7))
    size = draw(st.integers(1, 4))
    values = st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
    elems = {name: tuple(draw(values)) for name in ("a", "b")}
    part = Partition([(f"w{i}", Fraction(1, size)) for i in range(size)])
    r = Randomization.build(finite_enum(n), part, elems)
    terms = st.sampled_from([Var("t"), Var("a"), Var("b"), *map(Const, range(n))])
    atoms = st.builds(lambda lhs, rhs: Atom(lhs, "=", rhs), terms, terms)
    theta = draw(
        st.recursive(
            atoms,
            lambda inner: st.one_of(
                st.builds(Not, inner),
                st.builds(And, inner, inner),
                st.builds(Or, inner, inner),
            ),
            max_leaves=2 * n,
        )
    )
    return r, theta


@settings(max_examples=300, deadline=None)
@given(case=_enum_witness_case())
def test_enum_witness_is_the_full_scan_s(case):
    # witness tries only the assigned values, the constants and 0..|M|;
    # the answer must be the smallest satisfying value of all of range(n)
    r, theta = case
    binding = {"a": "a", "b": "b"}
    assert witness(r, theta, "t", binding).values == _witness_by_atom(
        r, theta, "t", binding
    )


def test_enum_witness_under_a_huge_domain_answers_at_once(tmp_path):
    # no value satisfies, so the answer is the default 0; finding that out
    # must not scan the domain
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {"theory": f"enum({10**20})", "atoms": [["w", "1"]], "elements": {"a": [5]}}
        )
    )
    src = str(Path(randcl.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["witness", str(path), "t = a & ~(t = a)", "t"]
    proc = subprocess.run(
        [sys.executable, "-m", "randcl.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(0)\n", "")


# ---------------------------------------------------------------------------
# transport under refinement
# ---------------------------------------------------------------------------

def test_transport_preserves_elem_dist(swap_pair):
    r = swap_pair
    fine, mapping = refine(r.partition, "w1", 2)
    moved = {
        n: transport_elem(e, fine, mapping) for n, e in r.elements.items()
    }
    for x in r.elements:
        for y in r.elements:
            assert elem_dist(r.element(x), r.element(y)) == elem_dist(
                moved[x], moved[y]
            )


# ---------------------------------------------------------------------------
# the integer core
# ---------------------------------------------------------------------------
# randvar._int_columns gives the values of a tuple of elements as integers
# that compare as the values do: under DLO floor(v * 2**k), k twice the
# bit length of the tuple's largest denominator; under an enumerated
# domain the values.
# _type_rows, pointwise_definable_event, differs and
# witness compare those integers.  Each is checked against a reference on
# the values themselves, on instances with mixed denominators and with
# elements built through the public constructor from values no file holds:
# ints, equal values held in separate Fraction objects, the +1/3 of
# checks.perturb_element, and, in some instances, a value 2**-70 above
# another, whose key would tie with it at the k of the other values.

_DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)


def _instance(rng: random.Random) -> Randomization:
    """A random instance whose elements mix denominators and the ways a
    value can be held: one pool of shared Fraction objects (as the loader
    builds them), fresh copies of pool values, ints and perturbed copies."""
    n_atoms = rng.randint(1, 9)
    masses = [rng.randint(1, 5) for _ in range(n_atoms)]
    total = sum(masses)
    part = Partition((f"w{i + 1}", Fraction(m, total)) for i, m in enumerate(masses))
    if rng.random() < 0.25:
        sig = finite_enum(rng.randint(2, 4))
        elements = {
            f"e{k}": RandomElement(
                sig, part, [rng.randrange(sig.n) for _ in range(n_atoms)]
            )
            for k in range(rng.randint(2, 5))
        }
        return Randomization(sig, part, elements)
    pool = [
        Fraction(rng.randint(-12, 12), rng.choice(_DENOMINATORS)) for _ in range(5)
    ]
    if rng.random() < 0.3:
        pool.append(pool[0] + Fraction(1, 2**70))

    def draw() -> object:
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-2, 2)  # an int, converted by the constructor
        v = rng.choice(pool)
        return Fraction(v.numerator, v.denominator) if kind == 1 else v

    r = Randomization(DLO, part, {})
    for k in range(rng.randint(2, 5)):
        r.elements[f"e{k}"] = RandomElement(DLO, part, [draw() for _ in range(n_atoms)])
    base = r.elements[rng.choice(list(r.elements))]
    r.elements["p"] = perturb_element(rng, r, base)
    return r


def _tuple(rng: random.Random, r: Randomization) -> tuple[RandomElement, ...]:
    elems = list(r.elements.values())
    return tuple(rng.choice(elems) for _ in range(rng.randint(1, 4)))


def _places_reference(r, elems, b) -> list:
    """b's place among the parameters on each atom, on the values: b's
    rank among the parameters' distinct values doubled, or the gap above
    the highest one below it, -1 below them all; so the places are even
    exactly where some parameter pins b.  Under an enumerated domain,
    b's values."""
    if not r.sig.is_dlo:
        return list(b.values)
    out = []
    for i, v in enumerate(b.values):
        ranked = sorted({e.values[i] for e in elems})
        place = -1
        for k, w in enumerate(ranked):
            if w == v:
                place = 2 * k
                break
            if w < v:
                place = 2 * k + 1
        out.append(place)
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_type_rows_equal_type_key(seed):
    rng = random.Random(seed)
    r = _instance(rng)
    elems = _tuple(rng, r)
    expected = [type_key(r.sig, vals) for vals in zip(*(e.values for e in elems))]
    assert _type_rows(r, elems) == expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_places_match_value_reference(seed):
    rng = random.Random(seed)
    r = _instance(rng)
    elems = list(_tuple(rng, r))[: rng.randint(0, 3)]
    b = rng.choice(list(r.elements.values()))
    event = pointwise_definable_event(r, b, elems)
    if not r.sig.is_dlo:
        assert event.is_top()
        return
    places = _places_reference(r, elems, b)
    assert event.members == {i for i, p in enumerate(places) if p % 2 == 0}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pointwise_event_matches_definable_in_model(seed):
    rng = random.Random(seed)
    r = _instance(rng)
    names = list(r.elements)
    params = rng.sample(names, rng.randint(0, min(3, len(names))))
    b = r.element(rng.choice(names))
    expected = {
        i
        for i in range(r.partition.size)
        if definable_in_model(r.sig, b.values[i], [r.element(p).values[i] for p in params])
    }
    assert pointwise_definable_event(r, b, params).members == expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_differs_matches_value_comparison(seed):
    rng = random.Random(seed)
    r = _instance(rng)
    a, b = (rng.choice(list(r.elements.values())) for _ in range(2))
    expected = {i for i, (x, y) in enumerate(zip(a.values, b.values)) if x != y}
    assert differs(a, b).members == expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_matches_value_reference(seed):
    rng = random.Random(seed)
    r = _instance(rng)
    names = tuple(r.elements)
    scope = ("t",) + tuple(rng.sample(names, min(3, len(names))))
    theta = random_formula(rng, r.sig, scope, quantifiers=rng.randint(0, 2))
    binding = {n: n for n in free_vars(theta) if n != "t"}
    w = witness(r, theta, "t", binding)
    assert w.values == _witness_by_atom(r, theta, "t", binding)
    assert str(w) == "(" + ", ".join(str(v) for v in w.values) + ")"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_element_text_renders_each_value(seed):
    r = _instance(random.Random(seed))
    for e in r.elements.values():
        assert str(e) == "(" + ", ".join(str(v) for v in e.values) + ")"


def _assert_compare_as_values(elems) -> None:
    # the columns order and equate, atom by atom and across the elements,
    # exactly as the values do
    columns = _int_columns(DLO, elems)
    keys = [k for col in columns for k in col]
    values = [v for e in elems for v in e.values]
    assert [x < y for x in keys for y in keys] == [p < q for p in values for q in values]
    assert [x == y for x in keys for y in keys] == [p == q for p in values for q in values]


def test_large_denominators_compare_exactly():
    # at k = 64 the keys of v and v + 2**-70 tie; a tuple holding the
    # larger denominator keys every value at the k that denominator needs
    part = Partition([("w1", "1/3"), ("w2", "1/3"), ("w3", "1/3")])
    v = Fraction(1, 3)
    close = v + Fraction(1, 2**70)
    a = RandomElement(DLO, part, [v, close, Fraction(1, 3)])
    b = RandomElement(DLO, part, [close, v, v])
    for first, second in ((a, b), (b, a)):  # either value object seen first
        _assert_compare_as_values((first, second))
    column = _int_columns(DLO, (a,))[0]
    assert column[0] == column[2] < column[1]
    r = Randomization(DLO, part, {"a": a, "b": b})
    assert _type_rows(r, (a, b)) == [(0, 1), (1, 0), (0, 0)]
    assert differs(a, b).members == {0, 1}
    # denominators just past 2**32 already allow such ties: 1/2**40 and
    # 1/(2**40 - 1) differ by about 2**-80
    lo, hi = Fraction(1, 2**40), Fraction(1, 2**40 - 1)
    c = RandomElement(DLO, part, [lo, hi, lo])
    d = RandomElement(DLO, part, [hi, lo, Fraction(1, 2**40)])
    _assert_compare_as_values((c, d))
    assert _type_rows(r, (c, d)) == [(0, 1), (1, 0), (0, 0)]
    assert differs(c, d).members == {0, 1}


@settings(max_examples=150, deadline=None)
@given(
    small=st.lists(
        st.fractions(max_denominator=12).filter(lambda v: abs(v) <= 12),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_mixed_precision_tuples(small, data):
    # one element with only small denominators, another holding some of
    # its values 2**-70 above themselves: the tuple keys both at the fine
    # element's k
    n = len(small)
    lift = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    fine_values = [
        v + Fraction(1, 2**70) if up else data.draw(st.sampled_from(small))
        for v, up in zip(small, lift)
    ] + [small[0] + Fraction(1, 2**70)]  # at least one fine value
    part = Partition((f"w{i}", Fraction(1, n + 1)) for i in range(n + 1))
    a = RandomElement(DLO, part, [*small, small[-1]])
    b = RandomElement(DLO, part, fine_values)
    elems = tuple(data.draw(st.permutations([a, b, a])))
    _assert_compare_as_values(elems)
    r = Randomization(DLO, part, {"a": a, "b": b})
    expected = [type_key(DLO, vals) for vals in zip(*(e.values for e in elems))]
    assert _type_rows(r, elems) == expected


def _primes(lo: int, count: int) -> list[int]:
    out, p = [], lo
    while len(out) < count:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            out.append(p)
        p += 1
    return out


def test_coprime_denominators_stay_cheap():
    # 3000 atoms whose values have pairwise coprime 5-digit denominators: a
    # common denominator of one column would have over 14,000 digits.  The
    # ranks stay below the number of values, and the whole core runs in a
    # small fraction of the bound, the same as for any 9000 distinct values
    n = 3000
    ps = _primes(10007, n + 1)
    part = Partition((f"w{i}", Fraction(1, n)) for i in range(n))
    a = RandomElement(DLO, part, [Fraction(1, p) for p in ps[:n]])
    b = RandomElement(DLO, part, [Fraction(1, p) for p in ps[1:]])
    c = RandomElement(DLO, part, [Fraction(i % 3, p) for i, p in enumerate(ps[:n])])
    r = Randomization(DLO, part, {"a": a, "b": b, "c": c})
    start = time.process_time()
    columns = _int_columns(DLO, (a, b, c))
    rows = _type_rows(r, (a, b, c))
    pinned = pointwise_definable_event(r, c, [a, b])
    apart = differs(a, c)
    w = witness(r, parse("b < t & t < a"), "t", {"a": "a", "b": "b"})
    assert time.process_time() - start < 5.0
    # the ints are floor(v * 2**k), k twice the bit length of the largest
    # denominator, here 32: for these values in [0, 1], at most k + 1 bits
    assert max(k.bit_length() for col in columns for k in col) <= 65
    assert rows == [type_key(DLO, t) for t in zip(a.values, b.values, c.values)]
    places = _places_reference(r, [a, b], c)
    assert pinned.members == {i for i, p in enumerate(places) if p % 2 == 0}
    assert apart.members == {i for i in range(n) if i % 3 != 1}  # c = a at 1 mod 3
    assert w.values == tuple((x + y) / 2 for x, y in zip(a.values, b.values))
