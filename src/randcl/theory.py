"""Decision procedures for the two concrete theories.

Dense linear orders without endpoints get textbook quantifier elimination
plus an independent direct evaluator used as an oracle in tests; finite
enumerated domains are decided by brute force.  On top of those sit
validity, functional-formula checking, and the isolating-formula
enumerations that drive the closure operators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .formula import (
    FALSE,
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
    Term,
    Truth,
    Var,
    free_vars,
    is_quantifier_free,
    subformulas,
    substitute,
)

Value = Fraction | int


# ---------------------------------------------------------------------------
# smart constructors (light simplification only)
# ---------------------------------------------------------------------------

def _atom(lhs: Term, rel: str, rhs: Term) -> Formula:
    if lhs == rhs:
        return TRUE if rel == "=" else FALSE
    return Atom(lhs, rel, rhs)


def _not(f: Formula) -> Formula:
    if isinstance(f, Truth):
        return FALSE
    if isinstance(f, Falsity):
        return TRUE
    return Not(f)


def _and2(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Falsity) or isinstance(b, Falsity):
        return FALSE
    if isinstance(a, Truth):
        return b
    if isinstance(b, Truth):
        return a
    return And(a, b)


def _or2(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Truth) or isinstance(b, Truth):
        return TRUE
    if isinstance(a, Falsity):
        return b
    if isinstance(b, Falsity):
        return a
    return Or(a, b)


def conj_all(fs: Iterable[Formula]) -> Formula:
    out: Formula = TRUE
    for f in fs:
        out = _and2(out, f)
    return out


def disj_all(fs: Iterable[Formula]) -> Formula:
    out: Formula = FALSE
    for f in fs:
        out = _or2(out, f)
    return out


# ---------------------------------------------------------------------------
# quantifier elimination for dense linear orders
# ---------------------------------------------------------------------------

def _nnf(f: Formula, neg: bool) -> Formula:
    """Negation normal form of a quantifier-free formula.

    A negated order atom is expanded into positive atoms using totality
    (not a < b  becomes  b < a or a = b), so the result is built from
    positive atoms with & and | only.
    """
    if isinstance(f, Atom):
        a = _atom(f.lhs, f.rel, f.rhs)
        if isinstance(a, (Truth, Falsity)):
            return _not(a) if neg else a
        if not neg:
            return a
        if f.rel == "<":
            return _or2(_atom(f.rhs, "<", f.lhs), _atom(f.lhs, "=", f.rhs))
        return _or2(_atom(f.lhs, "<", f.rhs), _atom(f.rhs, "<", f.lhs))
    if isinstance(f, Truth):
        return FALSE if neg else TRUE
    if isinstance(f, Falsity):
        return TRUE if neg else FALSE
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, And):
        if neg:
            return _or2(_nnf(f.lhs, True), _nnf(f.rhs, True))
        return _and2(_nnf(f.lhs, False), _nnf(f.rhs, False))
    if isinstance(f, Or):
        if neg:
            return _and2(_nnf(f.lhs, True), _nnf(f.rhs, True))
        return _or2(_nnf(f.lhs, False), _nnf(f.rhs, False))
    if isinstance(f, Implies):
        if neg:
            return _and2(_nnf(f.lhs, False), _nnf(f.rhs, True))
        return _or2(_nnf(f.lhs, True), _nnf(f.rhs, False))
    if isinstance(f, Iff):
        if neg:
            return _or2(
                _and2(_nnf(f.lhs, False), _nnf(f.rhs, True)),
                _and2(_nnf(f.lhs, True), _nnf(f.rhs, False)),
            )
        return _or2(
            _and2(_nnf(f.lhs, False), _nnf(f.rhs, False)),
            _and2(_nnf(f.lhs, True), _nnf(f.rhs, True)),
        )
    raise ValueError(f"quantifier reached negation normal form: {f}")


def _dnf(f: Formula) -> list[tuple[Atom, ...]]:
    """Disjunctive normal form of an NNF formula, as atom tuples."""
    if isinstance(f, Truth):
        return [()]
    if isinstance(f, Falsity):
        return []
    if isinstance(f, Atom):
        return [(f,)]
    if isinstance(f, Or):
        seen: set[frozenset[Atom]] = set()
        out = []
        for c in _dnf(f.lhs) + _dnf(f.rhs):
            key = frozenset(c)
            if key not in seen:
                seen.add(key)
                out.append(c)
        return out
    if isinstance(f, And):
        out = []
        seen = set()
        for c1 in _dnf(f.lhs):
            for c2 in _dnf(f.rhs):
                merged = list(c1)
                have = set(c1)
                for a in c2:
                    if a not in have:
                        have.add(a)
                        merged.append(a)
                key = frozenset(merged)
                if key not in seen:
                    seen.add(key)
                    out.append(tuple(merged))
        return out
    raise ValueError(f"unexpected node in disjunctive normal form: {f}")


def _is_var(t: Term, name: str) -> bool:
    return isinstance(t, Var) and t.name == name


def _elim_conjunct(u: str, atoms: Sequence[Atom]) -> tuple[Atom, ...] | None:
    """Eliminate 'exists u' from a conjunction of atoms (None = false)."""
    eq_term: Term | None = None
    for a in atoms:
        if a.rel != "=":
            continue
        if _is_var(a.lhs, u) and not _is_var(a.rhs, u):
            eq_term = a.rhs
            break
        if _is_var(a.rhs, u) and not _is_var(a.lhs, u):
            eq_term = a.lhs
            break
    if eq_term is not None:
        out: list[Atom] = []
        seen: set[Atom] = set()
        for a in atoms:
            lhs = eq_term if _is_var(a.lhs, u) else a.lhs
            rhs = eq_term if _is_var(a.rhs, u) else a.rhs
            na = _atom(lhs, a.rel, rhs)
            if isinstance(na, Falsity):
                return None
            if isinstance(na, Truth):
                continue
            assert isinstance(na, Atom)
            if na not in seen:
                seen.add(na)
                out.append(na)
        return tuple(out)

    lows: list[Term] = []
    highs: list[Term] = []
    rest: list[Atom] = []
    for a in atoms:
        lu, ru = _is_var(a.lhs, u), _is_var(a.rhs, u)
        if a.rel == "<" and (lu or ru):
            if lu and ru:
                return None
            if lu:
                highs.append(a.rhs)
            else:
                lows.append(a.lhs)
        else:
            rest.append(a)
    out = list(rest)
    seen = set(rest)
    for low in lows:
        for high in highs:
            na = _atom(low, "<", high)
            if isinstance(na, Falsity):
                return None
            if isinstance(na, Truth):
                continue
            assert isinstance(na, Atom)
            if na not in seen:
                seen.add(na)
                out.append(na)
    return tuple(out)


def _exists_qf(u: str, g: Formula) -> Formula:
    conjs = _dnf(_nnf(g, False))
    results = []
    seen: set[frozenset[Atom]] = set()
    for c in conjs:
        r = _elim_conjunct(u, c)
        if r is None:
            continue
        key = frozenset(r)
        if key not in seen:
            seen.add(key)
            results.append(r)
    return disj_all(conj_all(c) for c in results)


def _require_dlo_formula(f: Formula) -> None:
    for g in subformulas(f):
        if isinstance(g, Atom) and (
            isinstance(g.lhs, Const) or isinstance(g.rhs, Const)
        ):
            raise ValueError("quantifier elimination applies to DLO formulas only")


def _qe(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return _atom(f.lhs, f.rel, f.rhs)
    if isinstance(f, (Truth, Falsity)):
        return f
    if isinstance(f, Not):
        return _not(_qe(f.body))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_qe(f.lhs), _qe(f.rhs))
    if isinstance(f, Exists):
        return _exists_qf(f.var, _qe(f.body))
    if isinstance(f, Forall):
        return _not(_exists_qf(f.var, Not(_qe(f.body))))
    raise TypeError(f"not a formula: {f!r}")


# fixed bound on remembered qe results, so a long-lived process (a long
# fuzz run, a library user's loop) keeps flat memory; a deciding request
# fills a few hundred entries at most
_QE_CACHE_SIZE = 4096


@lru_cache(maxsize=_QE_CACHE_SIZE)
def qe(f: Formula) -> Formula:
    """Quantifier-free DLO equivalent of f.

    Works innermost-out: each existential body is rewritten to a disjunction
    of atom conjunctions; per conjunct the bound variable is removed either
    by substituting an equality partner or by replacing its lower/upper
    bound pairs with direct comparisons (density and the absence of
    endpoints make one-sided bounds vacuous).
    """
    _require_dlo_formula(f)
    out = _qe(f)
    assert is_quantifier_free(out)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_qf(f: Formula, assign: Mapping[str, Value]) -> bool:
    """Evaluate a quantifier-free formula under a variable assignment."""

    def value(t: Term) -> Value:
        if isinstance(t, Const):
            return t.index
        try:
            return assign[t.name]
        except KeyError:
            raise ValueError(f"unassigned free variable {t.name!r}") from None

    if isinstance(f, Atom):
        a, b = value(f.lhs), value(f.rhs)
        return a < b if f.rel == "<" else a == b
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Not):
        return not eval_qf(f.body, assign)
    if isinstance(f, And):
        return eval_qf(f.lhs, assign) and eval_qf(f.rhs, assign)
    if isinstance(f, Or):
        return eval_qf(f.lhs, assign) or eval_qf(f.rhs, assign)
    if isinstance(f, Implies):
        return (not eval_qf(f.lhs, assign)) or eval_qf(f.rhs, assign)
    if isinstance(f, Iff):
        return eval_qf(f.lhs, assign) == eval_qf(f.rhs, assign)
    raise ValueError("quantifier in quantifier-free evaluation")


def _check_assignment(f: Formula, assign: Mapping[str, Value]) -> None:
    for v in free_vars(f):
        if v not in assign:
            raise ValueError(f"unassigned free variable {v!r}")


def eval_enum(n: int, f: Formula, assign: dict[str, Value]) -> bool:
    """Truth of f over the domain 0..n-1; quantifiers range over it.

    assign must cover the free variables of f; it is used as scratch
    space for bound variables and restored before returning.
    """
    if isinstance(f, (Atom, Truth, Falsity)):
        return eval_qf(f, assign)
    if isinstance(f, Not):
        return not eval_enum(n, f.body, assign)
    if isinstance(f, And):
        return eval_enum(n, f.lhs, assign) and eval_enum(n, f.rhs, assign)
    if isinstance(f, Or):
        return eval_enum(n, f.lhs, assign) or eval_enum(n, f.rhs, assign)
    if isinstance(f, Implies):
        return (not eval_enum(n, f.lhs, assign)) or eval_enum(n, f.rhs, assign)
    if isinstance(f, Iff):
        return eval_enum(n, f.lhs, assign) == eval_enum(n, f.rhs, assign)
    if isinstance(f, (Exists, Forall)):
        had_outer = f.var in assign
        outer = assign.get(f.var)
        want_any = isinstance(f, Exists)
        result = not want_any
        for d in range(n):
            assign[f.var] = d
            truth = eval_enum(n, f.body, assign)
            if truth == want_any:
                result = want_any
                break
        if had_outer:
            assign[f.var] = outer  # type: ignore[assignment]
        else:
            del assign[f.var]
        return result
    raise TypeError(f"not a formula: {f!r}")


def evaluate(sig: Signature, f: Formula, assign: Mapping[str, Value]) -> bool:
    """Truth of f under assign; quantifiers handled per theory."""
    _check_assignment(f, assign)
    if sig.is_dlo:
        return eval_qf(qe(f), assign)
    assert sig.n is not None
    return eval_enum(sig.n, f, dict(assign))


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


def eval_direct(f: Formula, assign: Mapping[str, Value]) -> bool:
    """DLO evaluation without quantifier elimination (test oracle).

    A quantified variable is tested at one representative per order
    position relative to the currently assigned values: below all of them,
    equal to each, between each consecutive pair, above all.  With no
    assigned values a single test point suffices.
    """
    if isinstance(f, (Atom, Truth, Falsity)):
        return eval_qf(f, assign)
    if isinstance(f, Not):
        return not eval_direct(f.body, assign)
    if isinstance(f, And):
        return eval_direct(f.lhs, assign) and eval_direct(f.rhs, assign)
    if isinstance(f, Or):
        return eval_direct(f.lhs, assign) or eval_direct(f.rhs, assign)
    if isinstance(f, Implies):
        return (not eval_direct(f.lhs, assign)) or eval_direct(f.rhs, assign)
    if isinstance(f, Iff):
        return eval_direct(f.lhs, assign) == eval_direct(f.rhs, assign)
    if isinstance(f, (Exists, Forall)):
        vals = sorted(set(assign.values()))
        candidates: list[Value]
        if not vals:
            candidates = [Fraction(0)]
        else:
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
            results.append(eval_direct(f.body, inner))
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
    closed = universal_closure(f)
    if sig.is_dlo:
        return eval_qf(qe(closed), {})
    return evaluate(sig, closed, {})


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
# isolating formulas and small-model closure
# ---------------------------------------------------------------------------

def isolating_vars(n: int) -> list[str]:
    """Variable names v1..vn used by isolating_formulas."""
    return [f"v{i}" for i in range(1, n + 1)]


@lru_cache(maxsize=None)
def _isolating_dlo(n: int) -> tuple[Formula, ...]:
    if n == 0:
        return (TRUE,)
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
    return tuple(out)


@lru_cache(maxsize=None)
def _isolating_enum(n_vars: int, domain: int) -> tuple[Formula, ...]:
    out = []
    for combo in itertools.product(range(domain), repeat=n_vars):
        out.append(
            conj_all(
                Atom(Var(f"v{i + 1}"), "=", Const(c)) for i, c in enumerate(combo)
            )
        )
    return tuple(out)


def isolating_formulas(sig: Signature, n: int) -> list[Formula]:
    """Complete, pairwise exclusive n-variable case split for the theory.

    For a dense linear order there is one formula per weak ordering of
    v1..vn (a chain of < and = atoms); for FiniteEnum(k) one per assignment
    of constants to v1..vn.  The empty conjunction (n = 0) is 'true'.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if sig.is_dlo:
        return list(_isolating_dlo(n))
    assert sig.n is not None
    return list(_isolating_enum(n, sig.n))


def isolating_formula(sig: Signature, key: Sequence[Value]) -> Formula:
    """The member of isolating_formulas(sig, len(key)) satisfied by every
    tuple whose type_key is key.

    For a dense linear order the variables are sorted by (rank, index) and
    chained with < between ranks and = inside one, which is the
    representative _isolating_dlo builds for that weak ordering; for
    FiniteEnum each vi is pinned to its constant.
    """
    if not sig.is_dlo:
        return conj_all(
            Atom(Var(f"v{i + 1}"), "=", Const(c)) for i, c in enumerate(key)
        )
    order = sorted(range(len(key)), key=lambda i: (key[i], i))
    return conj_all(
        Atom(
            Var(f"v{i + 1}"),
            "=" if key[i] == key[j] else "<",
            Var(f"v{j + 1}"),
        )
        for i, j in zip(order, order[1:])
    )


def definable_in_model(sig: Signature, value: Value, params: Sequence[Value]) -> bool:
    """Whether a point is definable from parameter points inside one model.

    Order automorphisms of the rationals fix nothing outside the parameter
    set, so for DLO the value must be one of the parameters; an enumerated
    domain names every point with a constant, so everything is definable.
    """
    if sig.is_dlo:
        return value in tuple(params)
    return True
