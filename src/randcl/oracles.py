"""Reference routes that only the cross-checks and the tests use.

The request path answers each question one way; the functions here answer
it independently or check a law of the theory: evaluation without
quantifier elimination, the complete type of a value tuple, validity and
functional formulas, the full list of isolating formulas, definability
inside one model, and the closure enumerations by candidate filtering,
by partition refinement under if_less and by fixpoint iteration.  Of the
subcommands only check and fuzz load this module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .closure import (
    ParamSet,
    _assemble,
    _fo_definable_on,
    _group_indices,
    _group_restrictions,
    _places,
    _resolve_params,
)
from .formula import (
    DLO,
    TRUE,
    And,
    Atom,
    Const,
    Exists,
    Falsity,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Truth,
    Var,
    free_vars,
    substitute,
)
from .randvar import RandomElement, Randomization, _type_rows
from .theory import Value, _check_assignment, conj_all, eval_qf, qe


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(sig: Signature, f: Formula, assign: Mapping[str, Value]) -> bool:
    """Truth of f under assign in the theory of sig."""
    _check_assignment(f, assign)
    return eval_qf(qe(f, sig), assign)


def type_key(sig: Signature, values: Sequence[Value]) -> tuple:
    """The complete type of a value tuple inside one model of the theory.

    For DLO formulas, which carry no constants, this is the order type:
    the dense rank of each value.  Under an enumerated domain every point
    is named, so the type is the tuple itself.  Two tuples with the same
    key satisfy the same formulas, and so does the key itself: the ranks
    are ordered as the values are.
    """
    if not sig.is_dlo:
        return tuple(values)
    # over a common denominator the order is that of plain ints, which
    # compare far faster than Fractions
    common = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    order = sorted(range(len(scaled)), key=scaled.__getitem__)
    key = [0] * len(scaled)
    rank = 0
    for prev, i in zip(order, order[1:]):
        if scaled[i] != scaled[prev]:
            rank += 1
        key[i] = rank
    return tuple(key)


def eval_direct(
    f: Formula, assign: Mapping[str, Value], sig: Signature = DLO
) -> bool:
    """Evaluation without quantifier elimination (test oracle).

    A quantified variable is tried at enough points to meet every case.
    Enumerated domain: each of 0..n-1.  Dense order: one representative
    per order position relative to the currently assigned values (below
    all of them, equal to each, between each consecutive pair, above all),
    or a single point when no value is assigned.
    """
    if isinstance(f, (Atom, Truth, Falsity)):
        return eval_qf(f, assign)
    if isinstance(f, Not):
        return not eval_direct(f.body, assign, sig)
    if isinstance(f, And):
        return eval_direct(f.lhs, assign, sig) and eval_direct(f.rhs, assign, sig)
    if isinstance(f, Or):
        return eval_direct(f.lhs, assign, sig) or eval_direct(f.rhs, assign, sig)
    if isinstance(f, Implies):
        return (not eval_direct(f.lhs, assign, sig)) or eval_direct(f.rhs, assign, sig)
    if isinstance(f, Iff):
        return eval_direct(f.lhs, assign, sig) == eval_direct(f.rhs, assign, sig)
    if isinstance(f, (Exists, Forall)):
        candidates: list[Value]
        if not sig.is_dlo:
            assert sig.n is not None
            candidates = list(range(sig.n))
        elif not assign:
            candidates = [Fraction(0)]
        else:
            vals = sorted(set(assign.values()))
            candidates = [vals[0] - 1]
            for a, b in zip(vals, vals[1:]):
                candidates.append(a)
                candidates.append(Fraction(a + b, 2))
            candidates.append(vals[-1])
            candidates.append(vals[-1] + 1)
        inner = dict(assign)
        results = []
        for c in candidates:
            inner[f.var] = c
            results.append(eval_direct(f.body, inner, sig))
        return any(results) if isinstance(f, Exists) else all(results)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# validity and functional formulas
# ---------------------------------------------------------------------------

def universal_closure(f: Formula) -> Formula:
    out = f
    for v in reversed(free_vars(f)):
        out = Forall(v, out)
    return out


def is_valid(sig: Signature, f: Formula) -> bool:
    """Truth of the universal closure of f in the theory."""
    return eval_qf(qe(universal_closure(f), sig), {})


def is_functional(sig: Signature, f: Formula, u: str) -> bool:
    """Whether f admits at most one u for each choice of its other variables.

    Encoded as validity of  f & f[u := u'] -> u = u'  for a fresh u'.
    """
    taken = set(free_vars(f)) | {u}
    fresh = u + "'"
    while fresh in taken:
        fresh += "'"
    paired = And(f, substitute(f, {u: Var(fresh)}))
    return is_valid(sig, Implies(paired, Atom(Var(u), "=", Var(fresh))))


# ---------------------------------------------------------------------------
# isolating formulas and definability inside one model
# ---------------------------------------------------------------------------

def _isolating_dlo(n: int) -> list[Formula]:
    if n == 0:
        return [TRUE]
    out: list[Formula] = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product("<=", repeat=n - 1):
            # one formula per weak ordering: inside an equality run the
            # variable indices must increase, which picks a single
            # representative chain for each ordering
            ok = all(
                perm[i] < perm[i + 1]
                for i, s in enumerate(signs)
                if s == "="
            )
            if not ok:
                continue
            chain = [
                Atom(Var(f"v{perm[i]}"), signs[i], Var(f"v{perm[i + 1]}"))
                for i in range(n - 1)
            ]
            out.append(conj_all(chain))
    return out


def _isolating_enum(n_vars: int, domain: int) -> list[Formula]:
    out = []
    for combo in itertools.product(range(domain), repeat=n_vars):
        out.append(
            conj_all(
                Atom(Var(f"v{i + 1}"), "=", Const(c)) for i, c in enumerate(combo)
            )
        )
    return out


def isolating_formulas(sig: Signature, n: int) -> list[Formula]:
    """Complete, pairwise exclusive n-variable case split for the theory.

    For a dense linear order there is one formula per weak ordering of
    v1..vn (a chain of < and = atoms); for FiniteEnum(k) one per assignment
    of constants to v1..vn.  The empty conjunction (n = 0) is 'true'.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if sig.is_dlo:
        return _isolating_dlo(n)
    assert sig.n is not None
    return _isolating_enum(n, sig.n)


def definable_in_model(sig: Signature, value: Value, params: Sequence[Value]) -> bool:
    """Whether a point is definable from parameter points inside one model.

    Order automorphisms of the rationals fix nothing outside the parameter
    set, so for DLO the value must be one of the parameters; an enumerated
    domain names every point with a constant, so everything is definable.
    """
    if sig.is_dlo:
        return value in tuple(params)
    return True


# ---------------------------------------------------------------------------
# closure enumerations
# ---------------------------------------------------------------------------

def fo_definable_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Every element carved out everywhere by a functional formula over the
    parameters; enumerated independently of definable_closure by filtering
    a sound candidate pool through fo_definable_on's rule.

    The pool: under DLO every value some parameter takes, on each atom on
    its own; under an enumerated domain every constant on each type group.
    Each pool is in increasing order, so the candidates, and with them the
    output, come in lexicographic order.
    """
    elems = _resolve_params(r, params)
    if not r.sig.is_dlo:
        groups = _group_indices(r, elems)
    elif elems:
        groups = [(i,) for i in range(r.partition.size)]
    else:
        return []
    per_group = _group_restrictions(r, elems, groups)
    # the parameters are resolved once, and each candidate runs only
    # fo_definable_on's own rule
    top, rows = r.partition.top(), _type_rows(r, tuple(elems))
    return [
        b
        for b in _assemble(r, groups, itertools.product(*per_group))
        if _fo_definable_on(r, top, rows, _places(r, elems, b))
    ]


def if_less_closure(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Least set of elements containing the parameters and closed under the
    four-argument if_less combinator.

    An application if_less(u, v, x, y) copies x on the event "u < v" and y
    off it; since u < v is decided per order-type group, the result selects
    between x and y groupwise, following the comparison pattern of (u, v).
    Composing such selections yields exactly the mixes measurable in the
    algebra the realized patterns generate over the groups.  So the closure
    is computed by partition refinement: start with all groups in one block
    carrying the parameters' joint patterns, and split a block whenever a
    realized comparison orders two of its patterns differently on two of
    its coordinates.  Once no block splits, the closure is the product of
    the per-block pattern sets.

    A pattern gives, per group, the rank of the parameter restriction it
    takes there (see _group_restrictions); ranks compare as the
    restrictions do on every atom of the group.
    """
    elems = _resolve_params(r, params)
    if not r.sig.is_dlo:
        raise ValueError("if_less closure needs an ordered theory")
    if not elems:
        return []
    groups = _group_indices(r, elems)
    m = len(groups)
    rows = _type_rows(r, tuple(elems))

    def dedup(pats) -> list[tuple[int, ...]]:
        return list(dict.fromkeys(pats))

    Block = tuple[tuple[int, ...], list[tuple[int, ...]]]
    blocks: list[Block] = [
        (tuple(range(m)), dedup(zip(*(rows[g[0]] for g in groups))))
    ]
    while True:
        split = False
        refined: list[Block] = []
        for coords, pats in blocks:
            by_sig: dict[tuple[bool, ...], list[int]] = {}
            for pos in range(len(coords)):
                sig = tuple(t[pos] < s[pos] for t in pats for s in pats)
                by_sig.setdefault(sig, []).append(pos)
            if len(by_sig) == 1:
                refined.append((coords, pats))
                continue
            split = True
            for positions in by_sig.values():
                sub_coords = tuple(coords[p] for p in positions)
                sub_pats = dedup(tuple(t[p] for p in positions) for t in pats)
                refined.append((sub_coords, sub_pats))
        blocks = refined
        if not split:
            break

    # distinct combinations give distinct rank tuples; sorting those sorts
    # the elements by value, the groups being ordered by first atom
    choices = []
    for combo in itertools.product(*(pats for _, pats in blocks)):
        ranks = [0] * m
        for (coords, _), pat in zip(blocks, combo):
            for d, k in zip(coords, pat):
                ranks[d] = k
        choices.append(ranks)
    choices.sort()
    per_group = _group_restrictions(r, elems, groups)
    combos = ([per_group[d][k] for d, k in enumerate(ranks)] for ranks in choices)
    return list(_assemble(r, groups, combos))


def _if_less_closure_naive(r: Randomization, params: ParamSet) -> list[RandomElement]:
    """Reference fixpoint: iterate if_less over element quadruples until no
    new element appears.  Exponential; only for small cross-checks.

    Every element reached takes, on each atom, one of the parameters'
    values there, so it is held as its tuple of per-atom ranks, which
    if_less compares exactly as it would the values.
    """
    elems = _resolve_params(r, params)
    if not r.sig.is_dlo:
        raise ValueError("if_less closure needs an ordered theory")
    if not elems:
        return []
    rows = _type_rows(r, tuple(elems))
    current = dict.fromkeys(zip(*rows))
    while True:
        pool = list(current)
        added = False
        for a, b in itertools.product(pool, repeat=2):
            for x, y in itertools.product(pool, repeat=2):
                z = tuple(
                    xi if ai < bi else yi for ai, bi, xi, yi in zip(a, b, x, y)
                )
                if z not in current:
                    current[z] = None
                    added = True
        if not added:
            break
    atoms = [(i,) for i in range(r.partition.size)]
    per_atom = _group_restrictions(r, elems, atoms)
    combos = ([per_atom[i][k] for i, k in enumerate(z)] for z in sorted(current))
    return list(_assemble(r, atoms, combos))
