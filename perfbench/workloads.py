"""Seeded request pools for the three benchmark workloads.

Each workload is a fixed pool built from a pool seed: instance files, and a
cycle of strata, each stratum holding a few interchangeable request
variants of similar cost.  The run's ``--seed`` picks one variant per
stratum on every pass through the cycle, so every seed sends the same mix
of request kinds and sizes while the concrete requests differ.

The generator imports nothing from ``randcl``: the pools, and therefore the
frozen answer digests, stay the same however the engine changes.  Formulas
are small tuple trees printed in the CLI's syntax; values are exact
``Fraction`` (ordered theory) or ``int`` (enumerated domain).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

POOL_SEEDS = {"main": 1304, "heldout": 7797}
# variants per stratum: one round of each pool takes 25-45 s
DEEP_VARIANTS = 3
FUZZ_VARIANTS = 3


@dataclass(frozen=True)
class Request:
    rid: str  # stable key of the frozen answer digest
    kind: str
    args: tuple[str, ...]  # randcl CLI arguments; files are relative to the work dir
    row: str  # scaling-row label: kind plus its size rung
    probe: bool = False  # expected to hit the time cap at the seed commit
    verdict: bool | None = None  # predicted isdef verdict, checked if a probe ends
    reference: tuple | None = None  # (instance file, formula tree) for the oracle check


@dataclass
class Pool:
    instances: dict[str, dict]  # file name -> JSON payload
    strata: list[list[Request]]  # the cycle, in order
    probes: list[Request] = field(default_factory=list)  # one of them opens each run

    def requests(self) -> list[Request]:
        return [req for stratum in self.strata for req in stratum] + self.probes


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def weights(rng: random.Random, n_atoms: int, masses=(1, 2, 4)) -> list[Fraction]:
    drawn = [rng.choice(masses) for _ in range(n_atoms)]
    total = sum(drawn)
    return [Fraction(m, total) for m in drawn]


def payload(theory: str, ws: list[Fraction], elements: dict[str, list]) -> dict:
    def enc(v):
        return str(v) if isinstance(v, Fraction) else v

    return {
        "theory": theory,
        "atoms": [[f"w{i + 1}", str(w)] for i, w in enumerate(ws)],
        "elements": {k: [enc(v) for v in vals] for k, vals in elements.items()},
    }


def domain(theory: str) -> int | None:
    return None if theory == "dlo" else int(theory[len("enum("):-1])


def draw_value(rng: random.Random, theory: str, span: int = 19):
    n = domain(theory)
    return Fraction(rng.randrange(span), 2) if n is None else rng.randrange(n)


def element_values(inst: dict) -> dict[str, list]:
    """Element values of a payload, decoded back to exact values."""
    dlo = inst["theory"] == "dlo"
    return {
        name: [Fraction(v) if dlo else v for v in vals]
        for name, vals in inst["elements"].items()
    }


# ---------------------------------------------------------------------------
# closure-size and definability predictors
# ---------------------------------------------------------------------------

def _type_key(dlo: bool, vals: tuple) -> tuple:
    if dlo:
        rank = {v: k for k, v in enumerate(sorted(set(vals)))}
        return tuple(rank[v] for v in vals)
    return vals


def type_groups(dlo: bool, params: list[list]) -> list[tuple[int, ...]]:
    """Atom indices grouped by the order type of the parameter values."""
    columns: dict[tuple, list[int]] = {}
    for i, col in enumerate(zip(*params)):
        columns.setdefault(col, []).append(i)
    groups: dict[tuple, list[int]] = {}
    for col, idx in columns.items():
        groups.setdefault(_type_key(dlo, col), []).extend(idx)
    return [tuple(sorted(g)) for g in groups.values()]


def _distinct(params: list[list]) -> list[list]:
    return [list(v) for v in dict.fromkeys(tuple(p) for p in params)]


def closure_size(theory: str, params: list[list], n_atoms: int) -> int:
    """Size of the definable closure, as the product of per-type-group
    pattern counts: the distinct parameter restrictions on each group for
    the ordered theory, the domain size for an enumerated one."""
    params = _distinct(params)
    n = domain(theory)
    if n is None:
        if not params:
            return 0
        size = 1
        for g in type_groups(True, params):
            size *= len({tuple(p[i] for i in g) for p in params})
        return size
    return n ** (len(type_groups(False, params)) if params else 1)


def definable(theory: str, elem: list, params: list[list]) -> bool:
    """Whether elem is definable from params: pointwise definable on every
    atom, and adjoining it splits no parameter type group."""
    params = _distinct(params)
    dlo = theory == "dlo"
    if dlo and any(v not in {p[i] for p in params} for i, v in enumerate(elem)):
        return False
    n_atoms = len(elem)
    base = type_groups(dlo, params) if params else [tuple(range(n_atoms))]
    refined = type_groups(dlo, params + [elem])
    return sorted(base) == sorted(refined)


# ---------------------------------------------------------------------------
# formulas: ("atom", lhs, rel, rhs) | ("not", f) | (op, f, g) | (q, var, f)
# terms are variable names or ("c", k) constants
# ---------------------------------------------------------------------------

_BIN = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}


def to_text(f) -> str:
    tag = f[0]
    if tag == "atom":
        _, lhs, rel, rhs = f
        return f"{_term(lhs)} {rel} {_term(rhs)}"
    if tag == "not":
        return f"~({to_text(f[1])})"
    if tag in _BIN:
        return f"({to_text(f[1])}) {_BIN[tag]} ({to_text(f[2])})"
    return f"{tag} {f[1]}. ({to_text(f[2])})"


def _term(t) -> str:
    return f"c{t[1]}" if isinstance(t, tuple) else t


def nodes(f) -> int:
    tag = f[0]
    if tag == "atom":
        return 1
    if tag == "not":
        return 1 + nodes(f[1])
    if tag in _BIN:
        return 1 + nodes(f[1]) + nodes(f[2])
    return 1 + nodes(f[2])


def quantifiers(f) -> int:
    tag = f[0]
    if tag == "atom":
        return 0
    if tag == "not":
        return quantifiers(f[1])
    if tag in _BIN:
        return quantifiers(f[1]) + quantifiers(f[2])
    return 1 + quantifiers(f[2])


def free_vars(f, bound=frozenset()) -> set[str]:
    tag = f[0]
    if tag == "atom":
        return {t for t in (f[1], f[3]) if isinstance(t, str) and t not in bound}
    if tag == "not":
        return free_vars(f[1], bound)
    if tag in _BIN:
        return free_vars(f[1], bound) | free_vars(f[2], bound)
    return free_vars(f[2], bound | {f[1]})


_BOUND = ("u", "v", "w")


def random_formula(rng: random.Random, theory: str, scope: tuple[str, ...],
                   quants: int, depth: int):
    """A random formula over the free variables in scope with at most
    quants quantifier nodes, shaped like the engine's own fuzz formulas."""
    n = domain(theory)
    budget = [quants]

    def term(sc):
        if n is None or rng.random() < 0.7:
            return sc[rng.randrange(len(sc))]
        return ("c", rng.randrange(n))

    def atom(sc):
        rel = "<" if n is None and rng.random() < 0.6 else "="
        return ("atom", sc[rng.randrange(len(sc))], rel, term(sc))

    def build(sc, d):
        roll = rng.random()
        if d <= 0 or roll < 0.36:
            return atom(sc)
        if roll < 0.46:
            return ("not", build(sc, d - 1))
        if roll < 0.80 or budget[0] <= 0:
            op = ("and", "or", "and", "or", "implies", "iff")[rng.randrange(6)]
            return (op, build(sc, d - 1), build(sc, d - 1))
        var = _BOUND[(quants - budget[0]) % len(_BOUND)]
        budget[0] -= 1
        return (("exists", "forall")[rng.randrange(2)], var, build(sc + (var,), d - 1))

    return build(tuple(scope), depth)


def shaped_formula(rng, theory, scope, quants, depth, min_nodes=0, max_nodes=10**9,
                   need=()):
    """Draw random formulas until one has exactly quants quantifiers, a node
    count in range, and every variable of need free."""
    for _ in range(100000):
        f = random_formula(rng, theory, scope, quants, depth)
        if (quantifiers(f) == quants and min_nodes <= nodes(f) <= max_nodes
                and set(need) <= free_vars(f)):
            return f
    raise RuntimeError("no formula of the requested shape")


def blowup(k: int, u: str = "u"):
    """The body of  exists u. AND_{i<k} (x_{2i} < u | u < x_{2i+1})."""
    f = None
    for i in range(k):
        d = ("or", ("atom", f"x{2 * i}", "<", u), ("atom", u, "<", f"x{2 * i + 1}"))
        f = d if f is None else ("and", f, d)
    return f


# ---------------------------------------------------------------------------
# independent reference evaluator (order-region search, no elimination)
# ---------------------------------------------------------------------------

def holds(f, env: dict, n: int | None = None) -> bool:
    """Truth of f under env: in the dense order (n None) a quantified
    variable is tried below, at, between and above the values already
    assigned; in the enumerated domain 0..n-1 at every point."""
    tag = f[0]
    if tag == "atom":
        _, lhs, rel, rhs = f
        a, b = (t[1] if isinstance(t, tuple) else env[t] for t in (lhs, rhs))
        return a < b if rel == "<" else a == b
    if tag == "not":
        return not holds(f[1], env, n)
    if tag == "and":
        return holds(f[1], env, n) and holds(f[2], env, n)
    if tag == "or":
        return holds(f[1], env, n) or holds(f[2], env, n)
    if tag == "implies":
        return not holds(f[1], env, n) or holds(f[2], env, n)
    if tag == "iff":
        return holds(f[1], env, n) == holds(f[2], env, n)
    if n is not None:
        points = range(n)
    else:
        vals = sorted(set(env.values()))
        points = [Fraction(0)] if not vals else (
            [vals[0] - 1] + [p for a, b in zip(vals, vals[1:]) for p in (a, (a + b) / 2)]
            + [vals[-1], vals[-1] + 1]
        )
    results = (holds(f[2], {**env, f[1]: p}, n) for p in points)
    return any(results) if tag == "exists" else all(results)


def event_share(theory: str, values: dict[str, list], f, atoms: int) -> float:
    """Share of the first atoms on which f holds of the named elements."""
    n = domain(theory)
    names = free_vars(f)
    return sum(holds(f, {v: values[v][i] for v in names}, n) for i in range(atoms)) / atoms


def reference_event(inst: dict, f) -> tuple[list[str], Fraction]:
    """Atom names where f holds of the named elements, and their weight."""
    values = element_values(inst)
    names, prob = [], Fraction(0)
    for i, (name, w) in enumerate(inst["atoms"]):
        env = {v: values[v][i] for v in free_vars(f)}
        if holds(f, env):
            names.append(name)
            prob += Fraction(w)
    return names, prob


# ---------------------------------------------------------------------------
# wide: large partitions, small formulas
# ---------------------------------------------------------------------------

WIDE_ATOMS = (1000, 2000, 4000, 8000)
WIDE_THEORIES = ("dlo", "enum(3)")
# rungs per kind; each kind spans the ladder's ends, eval spans all of it
WIDE_KINDS = {
    "eval0": WIDE_ATOMS,
    "eval1": WIDE_ATOMS,
    "witness": (1000, 8000),
    "dclb": (1000, 4000),
    "pointwise": (2000, 8000),
    "dist": (1000, 8000),
    "glue": (2000, 8000),
    "dcl": (1000, 4000),
    "lcl": (2000, 8000),
    "isdef": (1000, 4000),
}
_BLOCK_ELEMS = "abcd"  # constant on each of three hidden atom blocks
_FREE_ELEMS = "xy"  # independent on every atom
_CLOSURE_CAP = 27


def _wide_instance(rng: random.Random, theory: str, n_atoms: int) -> dict:
    block = [rng.randrange(3) for _ in range(n_atoms)]
    elements = {}
    for name in _BLOCK_ELEMS:
        per_block = [draw_value(rng, theory) for _ in range(3)]
        elements[name] = [per_block[b] for b in block]
    for name in _FREE_ELEMS:
        elements[name] = [draw_value(rng, theory) for _ in range(n_atoms)]
    return payload(theory, weights(rng, n_atoms), elements), elements


def _small_closure_params(rng, theory, values) -> list[str]:
    """Two block parameters whose closure stays within the cap."""
    for _ in range(100):
        params = rng.sample(_BLOCK_ELEMS, 2)
        size = closure_size(theory, [values[p] for p in params], len(values["a"]))
        if 1 <= size <= _CLOSURE_CAP:
            return params
    raise RuntimeError("no block parameters with a small closure")


def _balanced_formula(rng, theory, values, quants, depth, lo, hi):
    """A formula over three random elements holding on 30..70% of the first
    128 atoms: the event, and so the printed answer, is about half the
    partition."""
    for _ in range(5000):
        scope = tuple(rng.sample(_BLOCK_ELEMS + _FREE_ELEMS, 3))
        f = shaped_formula(rng, theory, scope, quants, depth, lo, hi)
        if 0.3 <= event_share(theory, values, f, 128) <= 0.7:
            return f
    raise RuntimeError("no balanced formula")


def _wide_variant(rng, kind, theory, fname, inst, values) -> tuple[str, ...]:
    names = _BLOCK_ELEMS + _FREE_ELEMS
    scope = tuple(rng.sample(names, 3))
    if kind == "eval0":
        return ("eval", fname, to_text(_balanced_formula(rng, theory, values, 0, 2, 2, 5)))
    if kind == "eval1":
        return ("eval", fname, to_text(_balanced_formula(rng, theory, values, 1, 3, 3, 8)))
    if kind == "witness":
        f = shaped_formula(rng, theory, ("t",) + scope[:2], 1, 3, 3, 8, need=("t",))
        return ("witness", fname, to_text(f), "t")
    if kind in ("pointwise", "isdef"):
        params = _small_closure_params(rng, theory, values)
        return (kind, fname, rng.choice(_FREE_ELEMS), *params)
    if kind == "dist":
        return ("dist", fname, *rng.sample(names, 2))
    if kind == "glue":
        atoms = [a[0] for a in inst["atoms"]]
        event = ",".join(sorted(rng.sample(atoms, 16), key=atoms.index))
        return ("glue", fname, *rng.sample(names, 2), event)
    # dclb, dcl, lcl
    return (kind, fname, *_small_closure_params(rng, theory, values))


def build_wide(seed: int) -> Pool:
    rng = random.Random(seed)
    instances, strata = {}, []
    values = {}
    for theory, n_atoms in itertools.product(WIDE_THEORIES, WIDE_ATOMS):
        fname = f"wide-{theory}-{n_atoms}.json"
        instances[fname], values[fname] = _wide_instance(rng, theory, n_atoms)
    slots = [(kind, theory, n_atoms)
             for kind, rungs in WIDE_KINDS.items()
             for theory in WIDE_THEORIES if kind != "lcl" or theory == "dlo"
             for n_atoms in rungs]
    # a stride through the slots, so any stretch of the cycle mixes kinds and sizes
    for kind, theory, n_atoms in (slots[i] for start in range(7)
                                  for i in range(start, len(slots), 7)):
        fname = f"wide-{theory}-{n_atoms}.json"
        # one variant per stratum: the cycle alone fills a run
        args = _wide_variant(rng, kind, theory, fname, instances[fname], values[fname])
        strata.append([Request(f"wide/{kind}/{theory}/{n_atoms}/0", args[0], args,
                               f"{kind} {theory} atoms={n_atoms}")])
    return Pool(instances, strata)


# ---------------------------------------------------------------------------
# deep: few atoms, heavy symbolic work
# ---------------------------------------------------------------------------

DEEP_ATOMS = (6, 8, 10, 12)
DEEP_THEORIES = ("dlo", "enum(3)", "enum(4)")
DEEP_ELEMS = 24
BLOWUP_K = (8, 9, 10, 11, 12)
CLOSURE_RUNGS = (1, 10, 100, 1000)  # rung r: closure sizes in [10**r, 3 * 10**r)


def _deep_instance(rng: random.Random, theory: str, n_atoms: int) -> dict:
    """24 elements in four families of six: four members that share a base
    vector and differ from it on one to three atoms, then the pointwise max
    of the first two and the min of the last two.  Parameter sets drawn
    across or within families reach very different closure sizes, and each
    max or min is definable from its pair."""
    elements = {}
    for fam in range(4):
        base = [draw_value(rng, theory, 9) for _ in range(n_atoms)]
        members = []
        for m in range(4):
            vec = list(base)
            for i in rng.sample(range(n_atoms), 1 + m % 3):
                vec[i] = draw_value(rng, theory, 9)
            members.append(vec)
        members.append([max(a, b) for a, b in zip(members[0], members[1])])
        members.append([min(a, b) for a, b in zip(members[2], members[3])])
        for m, vec in enumerate(members):
            elements[f"x{fam * 6 + m}"] = vec
    return payload(theory, weights(rng, n_atoms), elements)


def _find_case(rng, theory, files: dict[str, dict], n_params, lo, hi, need_elem):
    """(file, parameters, element) with closure size in [lo, hi); when asked,
    the element is a family's max or min and the parameters include its
    pair, so it is definable and every decider runs to the end instead of
    stopping at the first atom that refutes definability.  None when a
    few thousand draws find nothing."""
    names = list(next(iter(files.values())))
    for _ in range(3000):
        fname = rng.choice(sorted(files))
        values = files[fname]
        fam = rng.randrange(4) * 6
        elem, pinned = None, []
        if need_elem:
            slot = rng.choice((4, 5))
            elem = names[fam + slot]
            pinned = [names[fam + slot * 2 - 8], names[fam + slot * 2 - 7]]
        if rng.random() < 0.5:  # mostly within one family
            pool = names[fam:fam + 6] + rng.sample(names, 6)
        else:
            pool = names
        pool = [n for n in dict.fromkeys(pool) if n != elem and n not in pinned]
        params = pinned + rng.sample(pool, n_params - len(pinned))
        if len(_distinct([values[p] for p in params])) < n_params:
            continue  # the engine merges equal parameters
        size = closure_size(theory, [values[p] for p in params], len(values[names[0]]))
        if lo <= size < hi:
            return fname, params, elem
    return None


def build_deep(seed: int) -> Pool:
    rng = random.Random(seed)
    instances = {}
    for theory, n_atoms in itertools.product(DEEP_THEORIES, DEEP_ATOMS):
        instances[f"deep-{theory}-{n_atoms}.json"] = _deep_instance(rng, theory, n_atoms)
    vals = {f: element_values(inst) for f, inst in instances.items()}
    strata: list[list[Request]] = []

    def requests(kind, row, variants, probe=False):
        return [
            Request(f"deep/{row.replace(' ', '/')}/{v}", kind, args, row, probe, verdict, ref)
            for v, (args, verdict, ref) in enumerate(variants)
        ]

    def add(kind, row, variants):
        strata.append(requests(kind, row, variants))

    def dlo_file():
        return f"deep-dlo-{rng.choice(DEEP_ATOMS)}.json"

    # quantifier elimination blow-up family
    for k in BLOWUP_K:
        variants = []
        for _ in range(DEEP_VARIANTS):
            fname = dlo_file()
            f = ("exists", "u", blowup(k))
            variants.append((("eval", fname, to_text(f)), None, (fname, f)))
        add("eval", f"eval blowup k={k}", variants)
    for k in (8, 10, 12):
        variants = []
        for _ in range(DEEP_VARIANTS):
            f = ("exists", "u", ("and", blowup(k), ("atom", "t", "<", "u")))
            variants.append((("witness", dlo_file(), to_text(f), "t"), None, None))
        add("witness", f"witness blowup k={k}", variants)

    # random formulas with 2..3 quantifiers; enum runs the brute-force evaluator
    for theory in DEEP_THEORIES:
        for q in (2, 3):
            variants = []
            for _ in range(DEEP_VARIANTS):
                fname = f"deep-{theory}-{rng.choice(DEEP_ATOMS)}.json"
                scope = tuple(rng.sample(list(vals[fname]), 4))
                f = shaped_formula(rng, theory, scope, q, 6, 20, 40)
                ref = (fname, f) if theory == "dlo" else None
                variants.append((("eval", fname, to_text(f)), None, ref))
            add("eval", f"eval {theory} q={q}", variants)

    # closure and decider requests on a log ladder of closure sizes
    ladder = [
        ("dcl", "dlo", 4, 1), ("isdef", "dlo", 4, 1), ("lcl", "dlo", 5, 1),
        ("dclb", "enum(3)", 5, 2), ("isdef", "enum(3)", 4, 2), ("dcl", "enum(4)", 4, 3),
        ("isdef", "dlo", 5, 2), ("dcl", "dlo", 6, 3), ("dclb", "dlo", 6, 2),
        ("isdef", "enum(4)", 5, 3), ("lcl", "dlo", 4, 3), ("lcl", "dlo", 6, 2),
        # isdef time follows the parameter count more than the closure size
        ("isdef", "dlo", 5, 1),
    ]
    for kind, theory, n_params, rung in ladder:
        lo = CLOSURE_RUNGS[rung]
        files = {f: v for f, v in vals.items() if f.startswith(f"deep-{theory}-")}
        variants = []
        for _ in range(DEEP_VARIANTS):
            found = _find_case(rng, theory, files, n_params, lo, 3 * lo, kind == "isdef")
            if found is None:
                raise RuntimeError(f"no {kind} {theory} case near closure {lo}")
            fname, params, elem = found
            args = (kind, fname) + ((elem,) if elem else ()) + tuple(params)
            variants.append((args, None, None))
        add(kind, f"{kind} {theory} params={n_params} closure=1e{rung}", variants)

    # blow-up probes: closure enumeration far beyond the time cap
    variants = []
    for theory, n_params, least in (("dlo", 6, 10**6), ("enum(4)", 5, 10**7),
                                    ("dlo", 6, 10**6)):
        fname = f"deep-{theory}-12.json"
        found = _find_case(rng, theory, {fname: vals[fname]}, n_params, least, 10**30, True)
        if found is None:
            raise RuntimeError(f"no {theory} probe with closure {least} or more")
        _, params, elem = found
        verdict = definable(theory, vals[fname][elem], [vals[fname][p] for p in params])
        variants.append((("isdef", fname, elem, *params), verdict, None))
    probes = requests("isdef", "isdef probe closure>=1e6", variants, probe=True)

    # spread the heavy rungs through the cycle
    return Pool(instances, strata[::2] + strata[1::2], probes)


# ---------------------------------------------------------------------------
# fuzz: the oracle path
# ---------------------------------------------------------------------------

FUZZ_COUNT = 9
FUZZ_STRATA = 10
CHECK_STRATA = 5


def _check_instance(rng: random.Random) -> dict:
    """Same shape as the engine's fuzz instances: 2..6 atoms with dyadic or
    ternary weights, 3..5 elements, three in four over the ordered theory."""
    n_atoms = rng.randint(2, 6)
    ws = weights(rng, n_atoms, ((1, 2, 4, 8), (1, 3, 9))[rng.randrange(2)])
    theory = "dlo" if rng.random() < 0.75 else f"enum({rng.randint(2, 4)})"
    elements = {
        name: [draw_value(rng, theory) for _ in range(n_atoms)]
        for name in "abcde"[: rng.randint(3, 5)]
    }
    return payload(theory, ws, elements)


def build_fuzz(seed: int) -> Pool:
    rng = random.Random(seed)
    instances, strata = {}, []
    n = FUZZ_VARIANTS
    fuzz_seeds = rng.sample(range(10**6), FUZZ_STRATA * n)
    for s in range(max(FUZZ_STRATA, CHECK_STRATA)):
        if s < FUZZ_STRATA:
            strata.append([
                Request(f"fuzz/fuzz/{s}/{v}", "fuzz",
                        ("fuzz", "--count", str(FUZZ_COUNT), "--seed", str(fs)),
                        f"fuzz count={FUZZ_COUNT}")
                for v, fs in enumerate(fuzz_seeds[s * n:(s + 1) * n])
            ])
        if s < CHECK_STRATA:
            stratum = []
            for v in range(n):
                fname = f"fuzz-check-{s}-{v}.json"
                instances[fname] = _check_instance(rng)
                stratum.append(Request(f"fuzz/check/{s}/{v}", "check", ("check", fname),
                                       "check"))
            strata.append(stratum)
    return Pool(instances, strata)


BUILDERS = {"wide": build_wide, "deep": build_deep, "fuzz": build_fuzz}
# per-request wall-time cap: far above every request's normal latency, and
# on deep far below the probes' closure enumeration
CAP_S = {"wide": 10.0, "deep": 4.0, "fuzz": 6.0}


def build(workload: str, pool: str = "main") -> Pool:
    return BUILDERS[workload](POOL_SEEDS[pool])


def write_instances(pool: Pool, workdir: Path) -> None:
    for fname, inst in pool.instances.items():
        (workdir / fname).write_text(json.dumps(inst))


def _orders(pool: Pool, rng: random.Random) -> list[list[int]]:
    return [rng.sample(range(len(st)), len(st)) for st in pool.strata]


def cycle_pass(pool: Pool, seed: int) -> list[Request]:
    """One pass over the cycle, probes left out: each stratum once, with
    the variant that opens its seeded order.  This is the first pass of
    ``rounds(pool, seed)``, and the same for a seed on every commit."""
    orders = _orders(pool, random.Random(seed))
    return [stratum[order[0]] for stratum, order in zip(pool.strata, orders)]


def rounds(pool: Pool, seed: int) -> Iterator[list[Request]]:
    """The run's closed-loop request sequence, in batches: one seeded probe,
    if the pool has any, then rounds.  A round sends every request of the
    pool once: as many passes over the cycle of strata as a stratum has
    variants, each stratum serving its variants in a seeded order.  So
    every round has the same mix, whatever the seed, and any stretch of
    it mixes kinds and sizes."""
    rng = random.Random(seed)
    orders = _orders(pool, rng)
    if pool.probes:
        yield [pool.probes[rng.randrange(len(pool.probes))]]
    passes = max(len(st) for st in pool.strata)
    while True:
        yield [stratum[order[p]]
               for p in range(passes)
               for stratum, order in zip(pool.strata, orders) if p < len(order)]
