"""First-order formulas over the two supported signatures: their syntax, a
parser and a round-tripping printer, quantifier elimination and the
evaluation of quantifier-free formulas.

Concrete syntax (ASCII)::

    atom       :=  TERM '<' TERM  |  TERM '=' TERM
    TERM       :=  variable  |  constant 'c0', 'c1', ...
    formula    :=  'true' | 'false' | atom | '~' formula
                |  formula '&' formula   | formula '|' formula
                |  formula '->' formula  | formula '<->' formula
                |  'exists' v '.' formula | 'forall' v '.' formula
                |  '(' formula ')'

Precedence, tightest first: ~, &, |, ->, <->.  The conjunction and
disjunction operators associate to the left, the arrows to the right, and a
quantifier body extends as far to the right as possible.  Variable names are
identifiers and may carry trailing prime marks (``u'``, ``u''``), which is
also the scheme used when bound variables must be renamed.  Under a dense
linear order signature both relations are available and there are no
constants; under ``FiniteEnum(n)`` only ``=`` is available together with the
constants ``c0 .. c{n-1}``.

Both theories, dense linear orders without endpoints and finite
enumerated domains, are decided by one quantifier eliminator (qe): a
quantifier becomes the truth of its body at a few test points, however
large an enumerated domain is, and every evaluator is qe followed by
eval_qf; each answer is kept on its formula node only.  The isolating
formulas that drive the closure deciders are in closure, and the
independent reference routes (direct evaluation, validity, the full list
of isolating formulas) in checks.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

from .measure import _MAX_DIGITS
from .records import DLO, Record, Signature, Value, _set


class ParseError(ValueError):
    """Raised on bad formula text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# terms and formula nodes
# ---------------------------------------------------------------------------

class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __hash__(self) -> int:  # atoms hash their terms when built: keep it cheap
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


class Const(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)

    def __hash__(self) -> int:  # as Var.__hash__
        return hash(self.index)

    def __str__(self) -> str:
        return f"c{self.index}"


Term = Var | Const


class Formula(Record):
    """Base class for all formula nodes.

    Each node keeps its hash in ``_hash``, computed when it is built from
    its class and its children's kept hashes, so hashing a tree (a dict of
    formulas, such as _eliminate's parts, does on every lookup)
    costs O(1).  A negation, connective or quantifier node also keeps two
    answers derived from it, None until first asked for: ``_free``, its
    free variables (free_vars), and ``_qf``, its quantifier-free form with
    the signature it was first worked out under (_qe).  A tree built over
    subtrees already asked about then costs only its new nodes.
    """

    __slots__ = ("_hash", "_free", "_qf")

    def __init__(self):  # true and false
        _set(self, "_hash", hash(self.__class__))
        _set(self, "_free", ())
        _set(self, "_qf", None)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return to_text(self)


class Atom(Formula):
    __slots__ = ("lhs", "rel", "rhs")  # rel is "<" or "="

    def __init__(self, lhs: Term, rel: str, rhs: Term):
        if rel not in ("<", "="):
            raise ValueError(f"unknown relation {rel!r}")
        _set(self, "lhs", lhs)
        _set(self, "rel", rel)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((Atom, lhs, rel, rhs)))


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _set(self, "_hash", hash((Not, body)))
        _set(self, "_free", None)
        _set(self, "_qf", None)


class _Binary(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((self.__class__, lhs, rhs)))
        _set(self, "_free", None)
        _set(self, "_qf", None)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "_hash", hash((self.__class__, var, body)))
        _set(self, "_free", None)
        _set(self, "_qf", None)


class Exists(_Quantifier):
    __slots__ = ()


class Forall(_Quantifier):
    __slots__ = ()


class Truth(Formula):
    __slots__ = ()


class Falsity(Formula):
    __slots__ = ()


TRUE = Truth()
FALSE = Falsity()


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def free_vars(f: Formula) -> tuple[str, ...]:
    """Free variable names of f, in first-occurrence order.

    Worked out from the children's answers and kept in the node's
    ``_free``, with one call frame per level of f.
    """
    if isinstance(f, Atom):
        lhs, rhs = f.lhs, f.rhs
        if not isinstance(lhs, Var):
            return (rhs.name,) if isinstance(rhs, Var) else ()
        if isinstance(rhs, Var) and rhs.name != lhs.name:
            return (lhs.name, rhs.name)
        return (lhs.name,)
    out = f._free
    if out is None:
        if isinstance(f, Not):
            out = free_vars(f.body)
        elif isinstance(f, _Quantifier):
            out = tuple(v for v in free_vars(f.body) if v != f.var)
        else:
            out = free_vars(f.lhs)
            out += tuple(v for v in free_vars(f.rhs) if v not in out)
        _set(f, "_free", out)
    return out


def subformulas(f: Formula) -> Iterator[Formula]:
    """All nodes of f, preorder.

    An explicit stack: nested generators would cost every node one resume
    per level above it.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (Not, _Quantifier)):
            stack.append(g.body)
        elif isinstance(g, _Binary):
            stack.append(g.rhs)
            stack.append(g.lhs)


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, _Quantifier) for g in subformulas(f))


def _check_atom(a: Atom, sig: Signature) -> None:
    """Reject an atom using a symbol outside sig (raises ValueError)."""
    if sig.is_dlo:
        if isinstance(a.lhs, Const) or isinstance(a.rhs, Const):
            raise ValueError("constant symbols not in DLO signature")
        return
    if a.rel == "<":
        raise ValueError("'<' not in FiniteEnum signature")
    for t in (a.lhs, a.rhs):
        if isinstance(t, Const) and not 0 <= t.index < sig.n:
            raise ValueError(f"constant c{t.index} not in signature (n = {sig.n})")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

# class -> (operator text, own precedence, precedence required of the left
# and right children); see the module docstring for the grammar.
_BIN_INFO = {
    And: (" & ", 4, 4, 5),
    Or: (" | ", 3, 3, 4),
    Implies: (" -> ", 2, 3, 2),
    Iff: (" <-> ", 1, 2, 1),
}


def to_text(f: Formula) -> str:
    """Render f so that parse(to_text(f)) is structurally equal to f."""
    return _fmt(f, 0, True)


def _fmt(f: Formula, need: int, rightmost: bool) -> str:
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsity):
        return "false"
    if isinstance(f, Atom):
        return f"{f.lhs} {f.rel} {f.rhs}"
    if isinstance(f, _Quantifier):
        kw = "exists" if isinstance(f, Exists) else "forall"
        body = _fmt(f.body, 0, True)
        text = f"{kw} {f.var}. {body}"
        # an unparenthesized quantifier swallows everything to its right,
        # so it may stand bare only in rightmost position
        return text if rightmost else f"({text})"
    if isinstance(f, Not):
        return "~" + _fmt(f.body, 5, rightmost)
    op, prec, lneed, rneed = _BIN_INFO[type(f)]
    paren = prec < need
    right_rm = True if paren else rightmost
    text = _fmt(f.lhs, lneed, False) + op + _fmt(f.rhs, rneed, right_rm)
    return f"({text})" if paren else text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<lparen>\()
      | (?P<rparen>\))
      | (?P<iff><->)
      | (?P<implies>->)
      | (?P<lt><)
      | (?P<eq>=)
      | (?P<neg>~)
      | (?P<conj>&)
      | (?P<disj>\|)
      | (?P<dot>\.)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    """,
    re.VERBOSE,
)

_BIN_BY_TEXT = {op.strip(): cls for cls, (op, *_) in _BIN_INFO.items()}
_KEYWORDS = {"exists", "forall", "true", "false"}
_CONST_RE = re.compile(r"c([0-9]+)\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        assert kind is not None
        word = m.group()
        if kind == "ident" and word in _KEYWORDS:
            kind = word
        tokens.append((kind, word, i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def formula(self, need: int = 0) -> Formula:
        """Precedence climbing over _BIN_INFO: the longest formula whose
        top-level operators have precedence at least need.  Each right
        operand needs the operator's right-child precedence, so & and |
        associate to the left and the arrows to the right."""
        f = self.unary()
        while True:
            cls = _BIN_BY_TEXT.get(self.peek()[1])
            if cls is None or _BIN_INFO[cls][1] < need:
                return f
            self.next()
            f = cls(f, self.formula(_BIN_INFO[cls][3]))

    def unary(self) -> Formula:
        kind, word, pos = self.peek()
        if kind == "neg":
            self.next()
            return Not(self.unary())
        if kind == "lparen":
            self.next()
            f = self.formula()
            self.expect("rparen", "')'")
            return f
        if kind == "true":
            self.next()
            return TRUE
        if kind == "false":
            self.next()
            return FALSE
        if kind in ("exists", "forall"):
            self.next()
            vkind, vword, vpos = self.next()
            if vkind != "ident":
                raise ParseError("expected a variable after quantifier", vpos)
            if _CONST_RE.match(vword):
                raise ParseError(f"cannot quantify over constant {vword!r}", vpos)
            self.expect("dot", "'.' after quantified variable")
            body = self.formula()
            return Exists(vword, body) if kind == "exists" else Forall(vword, body)
        if kind == "ident":
            return self.atom()
        raise ParseError("expected a formula", pos)

    def atom(self) -> Formula:
        lhs = self.term()
        kind, _, pos = self.next()
        if kind == "lt":
            if not self.sig.is_dlo:
                raise ParseError("'<' not in FiniteEnum signature", pos)
            rel = "<"
        elif kind == "eq":
            rel = "="
        else:
            raise ParseError("expected '<' or '=' in atom", pos)
        rhs = self.term()
        return Atom(lhs, rel, rhs)

    def term(self) -> Term:
        kind, word, pos = self.next()
        if kind != "ident":
            raise ParseError("expected a term", pos)
        m = _CONST_RE.match(word)
        if m:
            if self.sig.is_dlo:
                raise ParseError("constant symbols not in DLO signature", pos)
            if len(m.group(1)) > _MAX_DIGITS:
                raise ParseError(f"constant has more than {_MAX_DIGITS} digits", pos)
            index = int(m.group(1))
            assert self.sig.n is not None
            if index >= self.sig.n:
                raise ParseError(
                    f"constant {word} not in signature (n = {self.sig.n})", pos
                )
            return Const(index)
        return Var(word)


def parse(text: str, sig: Signature = DLO) -> Formula:
    """Parse formula text against sig; raises ParseError with a position."""
    parser = _Parser(_tokenize(text), sig)
    f = parser.formula()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return f


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
