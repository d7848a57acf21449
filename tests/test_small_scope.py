"""Every DLO, enum(2) and enum(3) instance up to a small scope, checked
exhaustively.

Under DLO an answer depends only on the weights and on each atom's tuple of
dense ranks: the fibers are independent and the signature has no
constants, so a strictly increasing map of one atom's values changes no
answer.  An instance of 3 elements on k atoms of equal weight is therefore
fixed, up to atom order and that isomorphism, by a multiset of k of the 13
weak orders of 3 values.  For k = 1..3 that is 13 + 91 + 455 = 559
instances.

Under an enumerated domain every point is named by a constant, so no map
of values preserves answers, but the fibers are still independent: an
instance on k atoms of equal weight is fixed, up to atom order, by the
multiset of its atoms' value tuples.  With 3 elements under enum(2) there
are 8 tuples, and 8 + 36 + 120 = 164 instances on 1..3 atoms; with 2
elements under enum(3) there are 9, and 9 + 45 + 165 = 219.

Each instance is checked here:

- the whole cross-check suite (run_checks) with a fixed seed;
- for every element and every subset of the elements as parameters, the
  deciders of definability_report agree, and their verdict is membership
  in definable_closure.

The weights are not covered exhaustively.  Besides equal weights, only one
unequal pair is tried: 1/3 and 2/3 on 2 atoms, with each ordered pair of
weak orders.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from randcl import (
    DLO,
    Partition,
    Randomization,
    definability_report,
    definable_closure,
    finite_enum,
)
from randcl.checks import run_checks

NAMES = ("a", "b", "c")
# the dense-rank tuples of 3 values: every tuple over 0..2 whose values
# are exactly 0..max
WEAK_ORDERS = [
    t for t in itertools.product(range(3), repeat=3) if set(t) == set(range(max(t) + 1))
]
SUBSETS = {
    n: [list(s) for k in range(n + 1) for s in itertools.combinations(NAMES[:n], k)]
    for n in (2, 3)
}


def _instance(sig, weights: tuple[Fraction, ...], rows: tuple[tuple[int, ...], ...]):
    part = Partition((f"w{i + 1}", w) for i, w in enumerate(weights))
    return Randomization.build(sig, part, dict(zip(NAMES, zip(*rows))))


def _scope(
    k: int, weights: tuple[Fraction, ...] | None = None, sig=DLO, tuples=WEAK_ORDERS
) -> list[Randomization]:
    """Every instance on k atoms whose value tuples are drawn from tuples:
    of equal weight, each multiset of k of them; of the given weights, each
    sequence of them."""
    if weights is None:
        weights = (Fraction(1, k),) * k
        rows = itertools.combinations_with_replacement(tuples, k)
    else:
        rows = itertools.product(tuples, repeat=k)
    return [_instance(sig, weights, r) for r in rows]


def _enum_scope(d: int, n: int) -> list[Randomization]:
    """Every instance of n elements under enum(d) on 1..3 atoms of equal
    weight."""
    sig, tuples = finite_enum(d), list(itertools.product(range(d), repeat=n))
    return [r for k in (1, 2, 3) for r in _scope(k, sig=sig, tuples=tuples)]


SCOPES = {
    "1 atom": lambda: _scope(1),
    "2 atoms": lambda: _scope(2),
    "3 atoms": lambda: _scope(3),
    "2 atoms of 1/3 and 2/3": lambda: _scope(2, (Fraction(1, 3), Fraction(2, 3))),
    "enum(2), 3 elements": lambda: _enum_scope(2, 3),
    "enum(3), 2 elements": lambda: _enum_scope(3, 2),
}


def test_the_scope_is_the_multisets_of_the_weak_orders():
    assert len(WEAK_ORDERS) == 13
    assert [len(SCOPES[s]()) for s in ("1 atom", "2 atoms", "3 atoms")] == [13, 91, 455]


def test_the_enum_scopes_are_the_multisets_of_the_value_tuples():
    sizes = [len(SCOPES[s]()) for s in ("enum(2), 3 elements", "enum(3), 2 elements")]
    assert sizes == [164, 219]


def _failures(r: Randomization) -> list[str]:
    """What fails on r: a cross-check, or a pair whose deciders disagree or
    whose verdict is not membership in the closure."""
    out = [f"{name}: {detail}" for name, detail in run_checks(r, random.Random(0)) if detail]
    names = tuple(r.elements)
    for params in SUBSETS[len(names)]:
        closure = {e.values for e in definable_closure(r, params)}
        for name in names:
            report = definability_report(r, name, params)
            if not report.agree:
                out.append(f"{name} over {params}: deciders disagree {report.paths}")
            elif report.verdict != (r.element(name).values in closure):
                out.append(f"{name} over {params}: verdict {report.verdict}")
    return out


@pytest.mark.parametrize("scope", SCOPES)
def test_every_instance_of_the_scope_passes(scope):
    failed = [
        (r.partition.atoms, {n: e.values for n, e in r.elements.items()}, f)
        for r in SCOPES[scope]()
        for f in _failures(r)
    ]
    assert not failed, f"{len(failed)} failures, the first: {failed[:3]}"
