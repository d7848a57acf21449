"""Decision procedures for the two concrete theories.

Both theories, dense linear orders without endpoints and finite
enumerated domains, are decided by one quantifier eliminator: a
quantifier becomes the truth of its body at finitely many test points,
and every evaluator is qe followed by eval_qf.  An independent direct
evaluator, which searches the same points without eliminating anything,
is the oracle in tests.  On top of those sit validity, functional-formula
checking, and the isolating formulas that drive the closure operators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .formula import (
    DLO,
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
    check_signature,
    free_vars,
    is_quantifier_free,
    subformulas,
    substitute,
)

Value = Fraction | int


# ---------------------------------------------------------------------------
# smart constructors (constant folding only)
# ---------------------------------------------------------------------------

def _atom(lhs: Term, rel: str, rhs: Term) -> Formula:
    if lhs == rhs:
        return TRUE if rel == "=" else FALSE
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return FALSE  # distinct constants name distinct points ('=' only)
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


def _implies2(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Falsity) or isinstance(b, Truth):
        return TRUE
    if isinstance(a, Truth):
        return b
    if isinstance(b, Falsity):
        return _not(a)
    return Implies(a, b)


def _iff2(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Truth):
        return b
    if isinstance(b, Truth):
        return a
    if isinstance(a, Falsity):
        return _not(b)
    if isinstance(b, Falsity):
        return _not(a)
    return Iff(a, b)


_FOLD = {And: _and2, Or: _or2, Implies: _implies2, Iff: _iff2}


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
# quantifier elimination by test points
# ---------------------------------------------------------------------------

def _is_var(t: Term, name: str) -> bool:
    return isinstance(t, Var) and t.name == name


def _place(a: Atom, u: str, t: Term | None, above: bool) -> Formula:
    """Truth of a folded atom with u at a test point: below every term (t
    is None, not above), above every term (t is None, above), at t, or just
    above t and below every larger term."""
    lu, ru = _is_var(a.lhs, u), _is_var(a.rhs, u)
    if not (lu or ru):
        return a
    if t is None:
        return TRUE if a.rel == "<" and (ru if above else lu) else FALSE
    if not above:
        return _atom(t if lu else a.lhs, a.rel, t if ru else a.rhs)
    if a.rel == "=":
        return FALSE
    s = a.rhs if lu else a.lhs
    # t+ < s iff t < s;  s < t+ iff s <= t iff not t < s
    return _atom(t, "<", s) if lu else _not(_atom(t, "<", s))


def _at(g: Formula, u: str, t: Term | None, above: bool) -> Formula:
    """The quantifier-free g with u at a test point (see _place), folded;
    subtrees without u are returned as they are."""
    if isinstance(g, Atom):
        return _place(g, u, t, above)
    if isinstance(g, Not):
        body = _at(g.body, u, t, above)
        return g if body is g.body else _not(body)
    if isinstance(g, (Truth, Falsity)):
        return g
    lhs, rhs = _at(g.lhs, u, t, above), _at(g.rhs, u, t, above)
    if lhs is g.lhs and rhs is g.rhs:
        return g
    return _FOLD[type(g)](lhs, rhs)


def _eliminate(sig: Signature, u: str, body: Formula, exists: bool) -> Formula:
    """exists u. body (or forall u. body) for a quantifier-free body.

    The truth of body moves only where u crosses a term it is compared
    with, so it is decided at test points.  Dense order without endpoints:
    below every term, at each term, and just above each term.  Enumerated
    domain: every constant.  The result is the disjunction (conjunction)
    of body at the test points, with duplicate and unit parts dropped.

    Under DLO, body is first probed above every term: if that folds to the
    absorbing constant (true for exists, false for forall), so does the
    quantifier, and no test point is tried.  The probe is never a part, so
    it cannot make the output larger.
    """
    terms: dict[Term, None] = {}
    for g in subformulas(body):
        if isinstance(g, Atom):
            if _is_var(g.lhs, u):
                terms.setdefault(g.rhs)
            elif _is_var(g.rhs, u):
                terms.setdefault(g.lhs)
    if not terms:
        return body
    absorbing, unit = (Truth, Falsity) if exists else (Falsity, Truth)
    if sig.is_dlo:
        above_all = _at(body, u, None, True)
        if isinstance(above_all, absorbing):
            return above_all
        points = [(None, False)]
        points += [(t, above) for t in terms for above in (False, True)]
    else:
        assert sig.n is not None
        points = [(Const(c), False) for c in range(sig.n)]
    parts: dict[Formula, None] = {}
    for t, above in points:
        g = _at(body, u, t, above)
        if isinstance(g, absorbing):
            return g
        if not isinstance(g, unit):
            parts.setdefault(g)
    return disj_all(parts) if exists else conj_all(parts)


def _qe(f: Formula, sig: Signature) -> Formula:
    if isinstance(f, Atom):
        return _atom(f.lhs, f.rel, f.rhs)
    if isinstance(f, (Truth, Falsity)):
        return f
    if isinstance(f, Not):
        return _not(_qe(f.body, sig))
    if isinstance(f, (And, Or, Implies, Iff)):
        return _FOLD[type(f)](_qe(f.lhs, sig), _qe(f.rhs, sig))
    if isinstance(f, (Exists, Forall)):
        return _eliminate(sig, f.var, _qe(f.body, sig), isinstance(f, Exists))
    raise TypeError(f"not a formula: {f!r}")


# fixed bound on remembered qe results, so a long-lived process (a long
# fuzz run, a library user's loop) keeps flat memory; a deciding request
# fills a few hundred entries at most
_QE_CACHE_SIZE = 4096


@lru_cache(maxsize=_QE_CACHE_SIZE)
def qe(f: Formula, sig: Signature = DLO) -> Formula:
    """Quantifier-free equivalent of f in the theory of sig.

    Raises ValueError when f uses a symbol outside sig.  Works
    innermost-out: each quantifier's body is first made quantifier-free,
    then the quantifier is replaced by the body's truth at finitely many
    test points (Ferrante & Rackoff; Loos & Weispfenning), with no normal
    form in between.
    """
    check_signature(f, sig)
    out = _qe(f, sig)
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
# isolating formulas and small-model closure
# ---------------------------------------------------------------------------

def isolating_vars(n: int) -> list[str]:
    """Variable names v1..vn used by isolating_formulas."""
    return [f"v{i}" for i in range(1, n + 1)]


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
