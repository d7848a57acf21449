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

from randcl import (
    DLO,
    Event,
    EventAlgebra,
    Partition,
    Randomization,
    complement,
    differs,
    event_dist,
    eval_event,
    generated_algebra,
    join,
    loads,
    meet,
    parse,
    refine,
    transport_event,
)
from randcl import measure

HALF = Fraction(1, 2)


@pytest.fixture
def halves() -> Partition:
    return Partition([("w1", "1/2"), ("w2", "1/2")])


@pytest.fixture
def thirds() -> Partition:
    return Partition([("w1", "1/3"), ("w2", "1/3"), ("w3", "1/3")])


# ---------------------------------------------------------------------------
# partition validation
# ---------------------------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="weights sum to 5/6"):
        Partition([("w1", "1/2"), ("w2", "1/3")])


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="nonpositive"):
        Partition([("w1", "0"), ("w2", "1")])


def test_shared_weight_objects_give_each_atom_its_numerator():
    # the loader shares one object among the atoms of a repeated weight;
    # equal weights held by distinct objects must read the same
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    ws = [quarter, eighth, quarter, Fraction(1, 4), Fraction(1, 8)]
    p = Partition((f"w{i}", w) for i, w in enumerate(ws))
    assert p._denom == 8
    assert p._nums == (2, 1, 2, 2, 1)
    assert p.event([0, 3, 4]).prob == Fraction(5, 8)


def test_weight_errors_name_the_first_bad_atom_among_shared_objects():
    third, neg = Fraction(1, 3), Fraction(-1, 3)
    with pytest.raises(ValueError, match="atom 'w2' has nonpositive weight -1/3"):
        Partition(
            [("w1", third), ("w2", neg), ("w3", third), ("w4", neg), ("w5", 2 * third)]
        )
    zero = Fraction(0)
    with pytest.raises(ValueError, match="atom 'w1' has nonpositive weight 0"):
        Partition([("w0", Fraction(1)), ("w1", zero), ("w2", zero)])
    with pytest.raises(ValueError, match="weights sum to 4/3"):
        Partition([(f"w{i}", third) for i in range(4)])


def test_atom_names_unique():
    with pytest.raises(ValueError, match="duplicate"):
        Partition([("w", "1/2"), ("w", "1/2")])


def test_partition_rejects_float_weights():
    with pytest.raises(ValueError, match="float 0.5 is not exact"):
        Partition([("w1", 0.5), ("w2", "1/2")])


def test_partition_class_rejects_float_weights():
    with pytest.raises(ValueError, match="float 0.25 is not exact"):
        Partition((("w1", Fraction(3, 4)), ("w2", 0.25)))


def test_exact_weights_accepted_in_every_form():
    p = Partition([("w1", HALF), ("w2", "1/4"), ("w3", Fraction(1, 4))])
    assert [w for _, w in p.atoms] == [HALF, Fraction(1, 4), Fraction(1, 4)]
    assert all(type(w) is Fraction for _, w in p.atoms)
    assert Partition((("w1", 1),)).weight(0) == 1


# values the one converter, measure.as_fraction, must refuse, reached
# directly, as a weight and as a DLO value; the exponent strings and
# Decimals would take seconds to minutes to build
REFUSED = [
    "as_fraction('1e20000000')",
    "as_fraction('1e-3000000')",
    "Partition([('w1', '1e20000000'), ('w2', '1/2')])",
    "Partition([('w1', '1e-3000000'), ('w2', '1/2')])",
    "RandomElement(DLO, HALVES, ['1e20000000', '0'])",
    "RandomElement(DLO, HALVES, ['1e-3000000', '0'])",
    "as_fraction('1/0')",
    "as_fraction(True)",
    "as_fraction(Decimal('1e300000'))",
    "as_fraction(Decimal('1e-300000'))",
    "Partition([('w1', Decimal('1e20000000')), ('w2', '1/2')])",
    "RandomElement(DLO, HALVES, [Decimal('1e20000000'), '0'])",
    "as_fraction(Decimal('NaN'))",
    "as_fraction(Decimal('Infinity'))",
    "as_fraction(Decimal('-Infinity'))",
]


@pytest.mark.parametrize("expr", REFUSED)
def test_converter_refuses_at_once(expr):
    # a fresh process with a time cap, so a value that is built after all
    # fails the test instead of hanging the suite
    code = (
        "from decimal import Decimal\n"
        "from randcl import DLO, Partition, RandomElement\n"
        "from randcl.measure import as_fraction\n"
        "HALVES = Partition([('w1', '1/2'), ('w2', '1/2')])\n"
        f"try:\n    {expr}\nexcept ValueError:\n    print('ValueError')\n"
    )
    src = str(Path(measure.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.stdout == "ValueError\n", proc.stderr


def test_event_accepts_names_and_indices(halves):
    assert halves.event(["w1"]) == halves.event([0])
    with pytest.raises(ValueError, match="unknown atom"):
        halves.event(["nope"])


# True == 1, but a bool is no atom index, as it is no value for
# as_fraction or RandomElement
@pytest.mark.parametrize("bad", [-1, 3, "w1", 0.5, True], ids=repr)
def test_event_refuses_a_bad_index_and_names_it(thirds, bad):
    with pytest.raises(ValueError) as exc:
        Event(thirds, [0, bad, 2])
    assert str(exc.value) == f"atom index {bad!r} out of range"


def test_event_accepts_every_index_of_a_large_partition():
    n = 10**5
    part = Partition((f"w{i}", Fraction(1, n)) for i in range(n))
    e = Event(part, range(n))
    assert e.is_top() and e.prob == 1
    assert Event(part, range(0, n, 2)).prob == HALF


def test_engine_built_events_are_the_checked_constructor_s():
    part = Partition([("w1", "1/4"), ("w2", "1/4"), ("w3", "1/2")])
    r = Randomization.build(DLO, part, {"a": (0, 1, 2), "b": (1, 1, 0)})
    less = eval_event(r, parse("a < b"), {"a": "a", "b": "b"})
    events = [
        less,
        meet(less, r.partition.event([0, 2])),
        complement(less),
        differs(r.element("a"), r.element("b")),
        r.partition.top(),
        r.partition.bottom(),
    ]
    for e in events:
        assert type(e.members) is frozenset
        assert e == Event(e.partition, e.members)


# ---------------------------------------------------------------------------
# measure and metric
# ---------------------------------------------------------------------------

def test_mu(halves):
    assert halves.bottom().prob == 0
    assert halves.top().prob == 1
    assert halves.event(["w1"]).prob == HALF


def test_event_dist(halves):
    e = halves.event(["w1"])
    assert event_dist(e, e) == 0
    assert event_dist(halves.top(), halves.bottom()) == 1
    assert event_dist(halves.event(["w1"]), halves.event(["w2"])) == 1


def test_event_dist_partition_mismatch(halves, thirds):
    with pytest.raises(ValueError, match="partition mismatch"):
        event_dist(halves.top(), thirds.top())


def test_bool_ops(halves, thirds):
    e1, e2 = halves.event(["w1"]), halves.event(["w2"])
    assert meet(e1, e2) == halves.bottom()
    assert complement(e1) == e2
    assert join(e1, complement(e1)) == halves.top()
    assert join(e1, e2) == halves.top() and complement(halves.top()) == halves.bottom()
    for combine in (meet, join):
        with pytest.raises(ValueError, match="partition mismatch"):
            combine(e1, thirds.top())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mu_finitely_additive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    masses = [rng.randint(1, 8) for _ in range(n)]
    part = Partition(
        (f"w{i}", Fraction(m, sum(masses))) for i, m in enumerate(masses)
    )
    e1 = part.event([i for i in range(n) if rng.random() < 0.5])
    e2 = part.event([i for i in range(n) if rng.random() < 0.5])
    assert join(e1, e2).prob + meet(e1, e2).prob == e1.prob + e2.prob
    # metric via symmetric difference respects the triangle inequality
    e3 = part.event([i for i in range(n) if rng.random() < 0.5])
    assert event_dist(e1, e3) <= event_dist(e1, e2) + event_dist(e2, e3)
    assert (event_dist(e1, e2) == 0) == (e1 == e2)


# ---------------------------------------------------------------------------
# generated algebras
# ---------------------------------------------------------------------------

def test_generated_algebra_empty(halves):
    alg = generated_algebra(halves, [])
    assert alg.atoms == (halves.top(),)


def test_generated_algebra_single(halves):
    alg = generated_algebra(halves, [halves.event(["w1"])])
    assert alg.atoms == (halves.event(["w1"]), halves.event(["w2"]))


def test_generated_algebra_overlap(thirds):
    alg = generated_algebra(
        thirds, [thirds.event(["w1", "w2"]), thirds.event(["w2", "w3"])]
    )
    assert alg.atoms == (
        thirds.event(["w1"]),
        thirds.event(["w2"]),
        thirds.event(["w3"]),
    )


def test_algebra_contains(halves, thirds):
    two = EventAlgebra((halves.event(["w1"]), halves.event(["w2"])))
    assert two.contains(halves.top())
    assert two.contains(halves.event(["w1"]))
    coarse = EventAlgebra((thirds.event(["w1"]), thirds.event(["w2", "w3"])))
    assert not coarse.contains(thirds.event(["w2"]))


def test_algebra_atoms_validated(thirds):
    with pytest.raises(ValueError, match="cover"):
        EventAlgebra((thirds.event(["w1"]),))
    with pytest.raises(ValueError, match="disjoint"):
        EventAlgebra((thirds.event(["w1", "w2"]), thirds.event(["w2", "w3"])))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generators_are_unions_of_atoms(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    part = Partition((f"w{i}", Fraction(1, n)) for i in range(n))
    gens = [
        part.event([i for i in range(n) if rng.random() < 0.5])
        for _ in range(rng.randint(0, 4))
    ]
    alg = generated_algebra(part, gens)
    total = frozenset()
    for atom in alg.atoms:
        assert atom.members
        assert not (total & atom.members)
        total |= atom.members
    assert total == frozenset(range(n))
    for g in gens:
        assert alg.contains(g)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_splits_weight(halves):
    fine, mapping = refine(halves, "w1", 2)
    assert fine.names == ("w1.1", "w1.2", "w2")
    assert fine.weight(0) == Fraction(1, 4)
    assert mapping == {0: (0, 1), 1: (2,)}


def test_refine_preserves_mu(halves):
    fine, mapping = refine(halves, 0, 3)
    e = halves.event(["w1"])
    assert transport_event(e, fine, mapping).prob == e.prob
    assert transport_event(halves.top(), fine, mapping) == fine.top()


def test_refine_preserves_event_dist(thirds):
    fine, mapping = refine(thirds, 1, 2)
    e1 = thirds.event(["w1", "w2"])
    e2 = thirds.event(["w2", "w3"])
    assert event_dist(e1, e2) == event_dist(
        transport_event(e1, fine, mapping), transport_event(e2, fine, mapping)
    )


def test_event_by_name_matches_scan():
    n = 8000
    part = Partition((f"a{i}", Fraction(1, n)) for i in range(n))
    names = [f"a{i}" for i in range(0, n, 2)]
    wanted = set(names)
    scanned = frozenset(i for i, (name, _) in enumerate(part.atoms) if name in wanted)
    assert part.event(names).members == scanned
    assert part.index("a7999") == n - 1
    with pytest.raises(ValueError, match="unknown atom 'zz'"):
        part.event(["a0", "zz"])


def test_name_index_is_not_compared_or_shown(halves):
    twin = Partition([("w1", "1/2"), ("w2", "1/2")])
    assert twin == halves and hash(twin) == hash(halves)
    assert "_index" not in repr(halves)


def test_partition_entries_become_name_weight_tuples():
    # entries given as lists, or with int and string weights, are stored
    # as (str, Fraction) tuples: the same partition, equal and hashable
    built = Partition([["w1", HALF], ["w2", HALF]])
    mixed = Partition([("w1", "1/2"), ["w2", HALF]])
    plain = Partition([("w1", HALF), ("w2", HALF)])
    assert built.atoms == mixed.atoms == (("w1", HALF), ("w2", HALF))
    assert all(type(entry) is tuple for entry in built.atoms)
    assert built == mixed == plain
    assert hash(built) == hash(mixed) == hash(plain)


def test_partition_entry_of_wrong_length_is_refused():
    with pytest.raises(ValueError):
        Partition([("w1", HALF), ("w2", HALF, "extra")])
    with pytest.raises(ValueError):
        Partition([("w1", HALF), ("w2",)])


# the loader's columns: each pair of (names, weights) columns, and the
# error the atoms they make are refused with, None if they are accepted
COLUMNS = [
    (("w1", "w2", "w3"), (HALF, Fraction(1, 4), Fraction(1, 4)), None),
    (("w1", "w2", "w1"), (HALF, Fraction(1, 4), Fraction(1, 4)), "duplicate atom"),
    ((), (), "a partition needs at least one atom"),
    (("a", "b", "c"), (HALF, Fraction(-1, 4), Fraction(0)), "atom 'b' has nonpositive"),
    (("a", "b"), (HALF, Fraction(1, 3)), "weights sum to 5/6"),
    (("a", "b"), (Fraction(1, 3**9100), 1 - Fraction(1, 3**9100)), "denominator"),
]


@pytest.mark.parametrize("names, weights, error", COLUMNS)
def test_partition_of_columns_is_the_partition_of_its_atoms(names, weights, error):
    # the loader builds Partition(zip(names, weights)) from its columns
    def built(make):
        try:
            return make()
        except ValueError as exc:
            return str(exc)

    by_columns = built(lambda: Partition(zip(names, weights)))
    by_atoms = built(lambda: Partition([[n, w] for n, w in zip(names, weights)]))
    # a file holding the atoms; the loader refuses an empty atom list and a
    # weight past its digit bound itself, before any partition is built
    loadable = names and all(w.denominator < 10**measure._MAX_DIGITS for w in weights)
    if loadable:
        atoms = [[n, str(w)] for n, w in zip(names, weights)]
        text = json.dumps({"theory": "dlo", "atoms": atoms, "elements": {}})
        by_file = built(lambda: loads(text).partition)
    if error is not None:
        assert by_columns == by_atoms
        assert error in by_columns
        if loadable:
            assert by_file == by_columns
        return
    assert by_columns == by_atoms == by_file
    assert repr(by_columns) == repr(by_atoms) == repr(by_file)
    for p in (by_atoms, by_file):
        assert p._nums == by_columns._nums and p._denom == by_columns._denom
    assert by_columns.names == by_file.names == names
    assert by_columns.names is by_columns.names  # kept, not rebuilt per call
