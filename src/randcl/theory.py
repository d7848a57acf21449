"""Decision procedures for the two concrete theories.

Both theories, dense linear orders without endpoints and finite
enumerated domains, are decided by one quantifier eliminator: a
quantifier becomes the truth of its body at a few test points, however
large an enumerated domain is, and every evaluator is qe followed by
eval_qf; each answer is kept on its formula node only.  The isolating
formulas that drive the closure deciders are in closure, and the
independent reference routes (direct evaluation, validity, the full list
of isolating formulas) in oracles.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

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
    Term,
    Truth,
    Var,
    _check_atom,
    free_vars,
    is_quantifier_free,
    subformulas,
)
from .records import DLO, Signature, Value, _set


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
    domain: body compares u with its terms T by = only, so T's terms and
    the v + 1 smallest constants not in T suffice, v of T's terms being
    variables (one of those constants differs from all their values); or
    every constant, when these do not fit below n.  The result is the
    disjunction (conjunction) of body at the test points, with duplicate
    and unit parts dropped.

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
        named = {t.index for t in terms if isinstance(t, Const)}
        v = len(terms) - len(named)
        if len(terms) + v + 1 < sig.n:
            fresh = [c for c in range(len(terms) + 1) if c not in named][: v + 1]
            points = [(Const(c), False) for c in sorted(named.union(fresh))]
            points += [(t, False) for t in terms if not isinstance(t, Const)]
        else:
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
    """qe's recursion.  Each atom is checked against sig as it is reached,
    left to right, so one pass both checks and eliminates.  A composite
    node keeps its result in its ``_qf`` with the first sig it is asked
    under, and returns it from there when asked again under that sig,
    before any recursion; the lookup is inline, so the recursion still
    takes one frame per level."""
    if isinstance(f, Atom):
        _check_atom(f, sig)
        return _atom(f.lhs, f.rel, f.rhs)
    if isinstance(f, (Truth, Falsity)):
        return f
    kept = getattr(f, "_qf", None)
    if kept is not None and (kept[0] is sig or kept[0] == sig):
        return kept[1]
    if isinstance(f, Not):
        out = _not(_qe(f.body, sig))
    elif isinstance(f, (Exists, Forall)):
        out = _eliminate(sig, f.var, _qe(f.body, sig), isinstance(f, Exists))
    elif type(f) in _FOLD:
        out = _FOLD[type(f)](_qe(f.lhs, sig), _qe(f.rhs, sig))
    else:
        raise TypeError(f"not a formula: {f!r}")
    if kept is None:
        _set(f, "_qf", (sig, out))
    return out


def qe(f: Formula, sig: Signature = DLO) -> Formula:
    """Quantifier-free equivalent of f in the theory of sig.

    Raises ValueError when f uses a symbol outside sig.  Works
    innermost-out: each quantifier's body is first made quantifier-free,
    then the quantifier is replaced by the body's truth at finitely many
    test points (Ferrante & Rackoff; Loos & Weispfenning), with no normal
    form in between.  Each answer is kept on f's own node (see _qe), so a
    tree later built over f does not eliminate f again, and the answer
    dies with the node.
    """
    out = _qe(f, sig)
    assert is_quantifier_free(out)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_qf(f: Formula, assign: Mapping[str, Value]) -> bool:
    """Evaluate a quantifier-free formula under a variable assignment."""
    if isinstance(f, Atom):
        lhs, rhs = f.lhs, f.rhs
        try:
            a = lhs.index if isinstance(lhs, Const) else assign[lhs.name]
            b = rhs.index if isinstance(rhs, Const) else assign[rhs.name]
        except KeyError as exc:
            raise ValueError(f"unassigned free variable {exc.args[0]!r}") from None
        return a < b if f.rel == "<" else a == b
    if isinstance(f, And):
        return eval_qf(f.lhs, assign) and eval_qf(f.rhs, assign)
    if isinstance(f, Or):
        return eval_qf(f.lhs, assign) or eval_qf(f.rhs, assign)
    if isinstance(f, Not):
        return not eval_qf(f.body, assign)
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Implies):
        return (not eval_qf(f.lhs, assign)) or eval_qf(f.rhs, assign)
    if isinstance(f, Iff):
        return eval_qf(f.lhs, assign) == eval_qf(f.rhs, assign)
    raise ValueError("quantifier in quantifier-free evaluation")


def _check_assignment(f: Formula, assign: Mapping[str, Value]) -> None:
    for v in free_vars(f):
        if v not in assign:
            raise ValueError(f"unassigned free variable {v!r}")
