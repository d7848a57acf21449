"""The deterministic witness builder.

witness picks, atom by atom, a value for a variable that makes a formula
hold wherever it can hold.  Only the witness subcommand and the
cross-checks import this module.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import partial

from .formula import (
    Atom,
    Const,
    Exists,
    Formula,
    _check_assignment,
    eval_qf,
    qe,
    subformulas,
)
from .measure import _MAX_DIGITS, _TOO_MANY_DIGITS
from .randvar import (
    RandomElement,
    Randomization,
    _dense_ranks,
    _int_columns,
    _resolve,
)
from .records import Value


def witness(
    r: Randomization,
    theta: Formula,
    u: str,
    binding: Mapping[str, str | RandomElement] | None = None,
) -> RandomElement:
    """A deterministic element w with theta(w) holding wherever possible.

    Atom by atom, the bound values carve the line into order regions
    (each value; each open interval between consecutive values; below all;
    above all) on which the truth of theta is constant.  The choice is, in
    order of preference: midpoint of the tightest satisfying bounded open
    interval, smallest satisfying value (forced equality), one below the
    smallest value when only the left tail satisfies, one above the largest
    when only the right tail does, and 0 when nothing satisfies or no
    values are bound.  For FiniteEnum the smallest satisfying domain value
    is chosen, default 0.

    Raises ValueError when a chosen value's numerator or denominator has
    more than _MAX_DIGITS digits, so it could not be printed: a midpoint's
    denominator can have twice the digits of the values around it.

    Which regions satisfy depends only on the type of the bound values
    (checks.type_key), so it is decided once per type that occurs; each
    atom then only does the arithmetic of its own values.
    """
    g = qe(theta, r.sig)
    bound = {v: _resolve(r, p) for v, p in (binding or {}).items()}
    _check_assignment(Exists(u, theta), bound)  # u itself needs no binding
    params = {var: e for var, e in bound.items() if var != u}
    columns = _int_columns(r.sig, tuple(params.values()))
    if r.sig.is_dlo:
        # the bound values by their ints
        value_of: dict[int, Fraction] = {}
        for col, e in zip(columns, params.values()):
            value_of.update(zip(col, e.values))
        rule = partial(_dlo_rule, g, u, value_of)
    else:
        assert r.sig.n is not None
        rule = partial(_enum_rule, r.sig.n, g, u)
    # each atom's bound values as ints; none bound means () on every atom
    rows = list(zip(*columns)) if columns else [()] * r.partition.size
    # an atom's ints fix its type, so its rule: each type's rule is built
    # once, and each distinct row's witness worked out once (kept: per
    # atom, the four wide witness requests took 495 -> 530 ms CPU); an
    # atom's type key is its dense ranks under DLO, its values otherwise
    keys = {row: _dense_ranks(row) if r.sig.is_dlo else row for row in set(rows)}
    rules = {key: rule(dict(zip(params, key))) for key in set(keys.values())}
    value: dict[tuple, Value] = {}
    for row, key in keys.items():
        w = value[row] = rules[key](row)
        if abs(w.numerator) >= _TOO_MANY_DIGITS or w.denominator >= _TOO_MANY_DIGITS:
            raise ValueError(f"witness value has more than {_MAX_DIGITS} digits")
    return RandomElement(r.sig, r.partition, tuple(map(value.__getitem__, rows)))


def _enum_rule(
    n: int, g: Formula, u: str, assign: dict[str, Value]
) -> Callable[[tuple[Value, ...]], Value]:
    """The smallest domain value satisfying g for this tuple, default 0.

    g compares u only by = with the assigned values and its constants, M:
    every value outside M satisfies g alike, and the smallest of them is at
    most |M|.  So the smallest of M ∪ {0..|M|} below n that satisfies g is
    the smallest domain value that does, found without scanning range(n).
    """
    marks = {*assign.values()}
    marks.update(
        t.index
        for a in subformulas(g)
        if isinstance(a, Atom)
        for t in (a.lhs, a.rhs)
        if isinstance(t, Const)
    )
    tries = sorted(marks.union(range(len(marks) + 1)))
    pick = next((d for d in tries if d < n and eval_qf(g, {**assign, u: d})), 0)
    return lambda _: pick


def _dlo_rule(
    g: Formula, u: str, value_of: dict[int, Fraction], ranks: dict[str, int]
) -> Callable[[tuple[int, ...]], Fraction]:
    """The witness rule (see witness) for one order type of the bound
    values, given as their dense ranks: it maps an atom's row of bound
    values of that type, as ints (see _int_columns) that value_of turns
    back into values, to the witness value there.

    The regions are decided on the ranks doubled, so that 2j + 1 lies in
    the gap above rank j, -1 below all and 2 * top + 1 above all.
    """
    if not ranks:
        return lambda _: Fraction(0)  # sole order region; also the default
    top = max(ranks.values())
    assign = {v: 2 * k for v, k in ranks.items()}

    def sat(point: int) -> bool:
        assign[u] = point
        return eval_qf(g, assign)

    # position in the bound tuple of a value of each rank, lowest rank first
    first: dict[int, int] = {}
    for pos, k in enumerate(ranks.values()):
        first.setdefault(k, pos)
    at = [first[k] for k in range(top + 1)]
    gaps = [j for j in range(top) if sat(2 * j + 1)]
    if gaps:

        def tightest_midpoint(row: tuple[int, ...]) -> Fraction:
            vals = [value_of[row[pos]] for pos in at]  # lowest first
            # min keeps the lowest of equally tight gaps
            j = min(gaps, key=lambda j: vals[j + 1] - vals[j])
            return Fraction(vals[j] + vals[j + 1], 2)

        return tightest_midpoint
    for j in range(top + 1):
        if sat(2 * j):
            return lambda row: value_of[row[at[j]]]
    if sat(-1):
        return lambda row: value_of[row[at[0]]] - 1
    if sat(2 * top + 1):
        return lambda row: value_of[row[at[top]]] + 1
    return lambda _: Fraction(0)
