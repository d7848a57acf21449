"""Seeded instance generation and the cross-check suite.

Every theorem-shaped property of the engine is expressed here as an exact
check on one randomization instance: the two evaluation routes agree, the
event map is a Boolean homomorphism, metrics satisfy their axioms, the
closure enumerations computed by independent algorithms coincide, and all
definability deciders return identical verdicts.  Each check is a named
function that returns the first failure it finds, "" when none.  The
generator draws small instances (2..6 atoms, exact dyadic or ternary
weights) so every check stays brute-forceable.  fuzz runs its instances
on one forked worker per usable CPU, each placed on a CPU of its own:
each draws the same seeded instances, runs its own and streams back only
their (name, detail) pairs.  The check and fuzz subcommands' handlers
are here too, so no other request compiles them.
"""

from __future__ import annotations

import gc
import marshal
import os
import random
import sys
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from .algebra import (
    EventAlgebra,
    _resolve_params,
    definable_closure,
    fo_event_algebra,
)
from .closure import _realized_events, definability_report, fo_definable_on
from .formula import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    free_vars,
    is_quantifier_free,
)
from .measure import complement, event_dist, join, meet, partition
from .oracles import (
    _if_less_closure_naive,
    eval_direct,
    fo_definable_closure,
    generated_algebra,
    if_less_closure,
    indicator,
    pointwise_max,
    pointwise_min,
    refine,
    transport_elem,
    transport_event,
)
from .randfile import dumps, load, loads, to_payload
from .randvar import (
    RandomElement,
    Randomization,
    differs,
    elem_dist,
    eval_event,
    glue,
)
from .records import DLO, Signature, finite_enum
from .theory import eval_qf, qe
from .witnesses import witness

# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

# exact masses that normalize to dyadic or ternary weights
_MASS_POOLS = ((1, 2, 4, 8), (1, 3, 9))
# ordered-theory values: 0..9 in half steps
_DLO_VALUES = tuple(Fraction(k, 2) for k in range(19))
_ELEMENT_NAMES = "abcde"
_BOUND_VARS = ("u", "v", "w")


def random_instance(rng: random.Random, kind: str | None = None) -> Randomization:
    """One random instance: 2..6 atoms, exact weights, 3..5 named elements."""
    n_atoms = rng.randint(2, 6)
    pool = _MASS_POOLS[rng.randrange(len(_MASS_POOLS))]
    masses = [pool[rng.randrange(len(pool))] for _ in range(n_atoms)]
    total = sum(masses)
    part = partition(
        (f"w{i + 1}", Fraction(m, total)) for i, m in enumerate(masses)
    )
    if kind is None:
        kind = "dlo" if rng.random() < 0.75 else "enum"
    if kind == "dlo":
        sig: Signature = DLO
        draw: Callable[[], object] = lambda: _DLO_VALUES[rng.randrange(len(_DLO_VALUES))]
    else:
        sig = finite_enum(rng.randint(2, 4))
        draw = lambda: rng.randrange(sig.n)
    names = _ELEMENT_NAMES[: rng.randint(3, 5)]
    elements = {
        name: [draw() for _ in range(n_atoms)] for name in names
    }
    return Randomization.build(sig, part, elements)


def random_formula(
    rng: random.Random,
    sig: Signature,
    pool: Sequence[str],
    quantifiers: int = 0,
    depth: int = 4,
) -> Formula:
    """A random formula whose free variables come from pool; at most the
    given number of quantifier nodes (hence nesting depth)."""
    budget = [quantifiers]

    def term(scope: tuple[str, ...]):
        if sig.is_dlo or rng.random() < 0.7:
            return Var(scope[rng.randrange(len(scope))])
        return Const(rng.randrange(sig.n))

    def atom(scope: tuple[str, ...]) -> Formula:
        lhs = Var(scope[rng.randrange(len(scope))])
        rel = "<" if sig.is_dlo and rng.random() < 0.6 else "="
        return Atom(lhs, rel, term(scope))

    def build(scope: tuple[str, ...], d: int) -> Formula:
        roll = rng.random()
        if d <= 0 or roll < 0.36:
            return atom(scope)
        if roll < 0.46:
            return Not(build(scope, d - 1))
        if roll < 0.80 or budget[0] <= 0:
            ctor = (And, Or, And, Or, Implies, Iff)[rng.randrange(6)]
            return ctor(build(scope, d - 1), build(scope, d - 1))
        level = quantifiers - budget[0]
        budget[0] -= 1
        var = _BOUND_VARS[level % len(_BOUND_VARS)]
        ctor = (Exists, Forall)[rng.randrange(2)]
        return ctor(var, build(scope + (var,), d - 1))

    return build(tuple(pool), depth)


def perturb_element(
    rng: random.Random, r: Randomization, base: RandomElement
) -> RandomElement:
    """Copy of base changed on one atom; the ordered-theory shift lands
    strictly between generator values, so the result never agrees with any
    generated element there."""
    i = rng.randrange(r.partition.size)
    vals = list(base.values)
    if r.sig.is_dlo:
        vals[i] = vals[i] + Fraction(1, 3)
    else:
        assert r.sig.n is not None
        vals[i] = (vals[i] + 1) % r.sig.n
    return RandomElement(r.sig, r.partition, tuple(vals))


def sample_params(rng: random.Random, r: Randomization) -> list[str]:
    names = list(r.elements)
    k = rng.randint(0, min(3, len(names)))
    return rng.sample(names, k)


# ---------------------------------------------------------------------------
# the per-instance check suite
# ---------------------------------------------------------------------------

# Each check takes the instance and the suite's rng and returns "" when it
# held, the first failure it met otherwise, or None when it does not apply
# to the instance.


def _values(elems) -> list:
    """Value tuples in order.  Every closure route returns its elements
    sorted and distinct, so equal lists mean equal sets; comparing lists
    hashes no value."""
    return [e.values for e in elems]


def _check_evaluation_routes(r, rng) -> str | None:
    # quantifier elimination against the direct region-search oracle
    if not r.sig.is_dlo:
        return None
    for _ in range(6):
        f = random_formula(rng, r.sig, ("p", "q", "s"), quantifiers=rng.randint(0, 2))
        g = qe(f)
        if not is_quantifier_free(g):
            return f"quantifier survived elimination in {f}"
        for _ in range(5):
            assign = {
                v: _DLO_VALUES[rng.randrange(len(_DLO_VALUES))]
                for v in ("p", "q", "s")
            }
            if eval_qf(g, assign) != eval_direct(f, assign):
                return f"routes disagree on {f} at {assign}"
    return ""


def _constants(r: Randomization) -> tuple[RandomElement, RandomElement]:
    """The all-0 and the all-1 element of r's space."""
    one = Fraction(1) if r.sig.is_dlo else 1
    size = r.partition.size
    return (
        RandomElement(r.sig, r.partition, (0,) * size),
        RandomElement(r.sig, r.partition, (one,) * size),
    )


def _pool(r: Randomization) -> dict[str, RandomElement]:
    """The named elements, joined by the two constants of _constants when
    there are fewer than two, so every check has two elements to draw."""
    pool = dict(r.elements)
    if len(pool) < 2:
        for name, e in zip(("lo", "hi"), _constants(r)):
            while name in pool:
                name += "'"
            pool[name] = e
    return pool


def _check_event_homomorphism(r, rng) -> str:
    binding = _pool(r)
    names = tuple(binding)
    for _ in range(4):
        f = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
        g = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
        ef, eg = eval_event(r, f, binding), eval_event(r, g, binding)
        if (
            eval_event(r, And(f, g), binding) != meet(ef, eg)
            or eval_event(r, Or(f, g), binding) != join(ef, eg)
            or eval_event(r, Not(f), binding) != complement(ef)
        ):
            return f"homomorphism broken for {f} / {g}"
        # a tautology lands on the sure event
        if not eval_event(r, Or(f, Not(f)), binding).is_top():
            return f"excluded middle not sure for {f}"
    return ""


def _check_metrics(r, rng) -> str:
    pool = _pool(r)
    events = [
        eval_event(r, random_formula(rng, r.sig, tuple(pool), quantifiers=0), pool)
        for _ in range(3)
    ] + [r.partition.top(), r.partition.bottom()]
    # every ordered pair measured once, each order by its own call; each
    # distance is compared as its numerator over the weights' common
    # denominator, which every probability's denominator divides
    denom = r.partition._denom

    def num(d: Fraction) -> int:
        return d.numerator * (denom // d.denominator)

    for kind, items, dist in (
        ("element", list(pool.values()), elem_dist),
        ("event", events, event_dist),
    ):
        d = [[num(dist(x, y)) for y in items] for x in items]
        for ix, x in enumerate(items):
            for iy, y in enumerate(items):
                if d[ix][iy] != d[iy][ix] or (d[ix][iy] == 0) != (x == y):
                    return f"{kind} metric axiom failed"
                if any(d[ix][iz] > d[ix][iy] + d[iy][iz] for iz in range(len(items))):
                    return f"{kind} metric triangle failed"
    return ""


def _check_glue(r, rng) -> str:
    elems = list(_pool(r).values())
    a = elems[rng.randrange(len(elems))]
    b = elems[rng.randrange(len(elems))]
    members = frozenset(
        i for i in range(r.partition.size) if rng.random() < 0.5
    )
    e = r.partition.event(members)
    c = glue(a, b, e)
    ok = e.members.isdisjoint(differs(c, a).members)
    ok = ok and (~e).members <= (~differs(c, b)).members
    # characteristic elements: a nowhere-agreeing pair recovers any event
    lo, hi = _constants(r)
    ind = indicator(e, hi, lo)
    recovered = frozenset(
        i for i, (v, w) in enumerate(zip(ind.values, hi.values)) if v == w
    )
    return "" if ok and recovered == e.members else f"glue failed on {e}"


def _check_witness(r, rng) -> str:
    names = tuple(r.elements)[:2]
    for _ in range(4):
        theta = random_formula(
            rng, r.sig, ("t",) + names, quantifiers=rng.randint(0, 1)
        )
        binding = {n: n for n in free_vars(theta) if n != "t"}
        w = witness(r, theta, "t", binding)
        got = eval_event(r, theta, {**binding, "t": w})
        if got != eval_event(r, Exists("t", theta), binding):
            return f"witness event mismatch for {theta}"
    return ""


def isolating_event_algebra(r: Randomization, params) -> EventAlgebra:
    """Oracle for fo_event_algebra: the algebra generated by the events of
    the isolating formulas the parameters realize, each from eval_event."""
    elems = _resolve_params(r, params)
    return generated_algebra(
        r.partition, [ev for _, ev in _realized_events(r, elems)]
    )


def _check_algebra_routes(r, rng) -> str:
    A = sample_params(rng, r)
    ok = fo_event_algebra(r, A) == isolating_event_algebra(r, A)
    ok = ok and fo_event_algebra(r, []).atoms == (r.partition.top(),)
    return "" if ok else f"algebra routes disagree for A={A}"


def _check_closure_routes(r, rng) -> str:
    A = sample_params(rng, r)
    dc = definable_closure(r, A)
    vals = _values(dc)
    if vals != _values(fo_definable_closure(r, A)):
        return f"formula route differs from closure for A={A}"
    # the membership test against the enumeration: every member is one,
    # and each named element is one exactly when enumerated
    top = r.partition.top()
    if not all(fo_definable_on(r, b, top, A) for b in dc) or any(
        fo_definable_on(r, e, top, A) != (e.values in vals)
        for e in r.elements.values()
    ):
        return f"closure membership differs from enumeration for A={A}"
    if r.sig.is_dlo:
        if _values(if_less_closure(r, A)) != vals:
            return f"if_less closure differs from closure for A={A}"
        if len(dc) <= 10 and _values(_if_less_closure_naive(r, A)) != vals:
            return f"if_less fixpoint routes disagree for A={A}"
    return ""


def _definability_samples(rng, r, A: list[str]) -> list[RandomElement]:
    picks = rng.sample(list(_pool(r).values()), 2)
    if r.sig.is_dlo:
        picks.append(pointwise_max(picks[0], picks[1]))
        picks.append(pointwise_min(picks[0], picks[1]))
    alg = fo_event_algebra(r, A)
    e = alg.atoms[rng.randrange(len(alg.atoms))]
    picks.append(glue(picks[0], picks[-1], e))
    picks.append(perturb_element(rng, r, picks[0]))
    return picks


def _check_definability_agreement(r, rng) -> str:
    A = sample_params(rng, r)
    for b in _definability_samples(rng, r, A):
        report = definability_report(r, b, A)
        if not report.agree:
            return f"deciders disagree for {b} over A={A}: {report.paths}"
    return ""


def _check_closure_laws(r, rng) -> str:
    names = list(r.elements)
    k = rng.randint(0, min(2, len(names)))
    A = rng.sample(names, k)
    bigger = A + [n for n in names if n not in A][: rng.randint(0, 2)]
    small = definable_closure(r, A)
    large = definable_closure(r, bigger)
    # both sorted: small is a subset of large iff a subsequence of it
    rest = iter(_values(large))
    if not all(any(v == w for w in rest) for v in _values(small)):
        return f"monotonicity failed for {A} vs {bigger}"
    if _values(definable_closure(r, small)) != _values(small):
        return f"idempotence failed for A={A}"
    return ""


def _check_refine_transport(r, rng) -> str:
    i = rng.randrange(r.partition.size)
    k = rng.randint(2, 3)
    fine, mapping = refine(r.partition, i, k)
    elems = list(r.elements.values())[:3]
    moved = [transport_elem(e, fine, mapping) for e in elems]
    ok = all(
        elem_dist(a, b) == elem_dist(ma, mb)
        for a, ma in zip(elems, moved)
        for b, mb in zip(elems, moved)
    )
    members = frozenset(
        j for j in range(r.partition.size) if rng.random() < 0.5
    )
    e = r.partition.event(members)
    te = transport_event(e, fine, mapping)
    ok = ok and e.prob == te.prob
    ok = ok and event_dist(e, r.partition.top()) == event_dist(te, fine.top())
    return "" if ok else "transport changed a metric"


def _check_file_roundtrip(r, rng) -> str:
    back = loads(dumps(r))
    ok = (
        back.sig == r.sig
        and back.partition == r.partition
        and back.elements == r.elements
    )
    return "" if ok else "instance does not survive serialization"


_SUITE = (
    ("evaluation-routes", _check_evaluation_routes),
    ("event-homomorphism", _check_event_homomorphism),
    ("metric-axioms", _check_metrics),
    ("glue-characteristic", _check_glue),
    ("witness-event", _check_witness),
    ("algebra-routes", _check_algebra_routes),
    ("closure-routes", _check_closure_routes),
    ("definability-agreement", _check_definability_agreement),
    ("closure-laws", _check_closure_laws),
    ("refine-transport", _check_refine_transport),
    ("file-roundtrip", _check_file_roundtrip),
)


def run_checks(
    r: Randomization, rng: random.Random | None = None
) -> list[tuple[str, str]]:
    """Run every cross-check on one instance: (name, detail) per check that
    applies, in a fixed order, where detail is "" for a check that held."""
    rng = rng or random.Random(0)
    return [
        (name, detail)
        for name, check in _SUITE
        if (detail := check(r, rng)) is not None
    ]


# ---------------------------------------------------------------------------
# corpus and fuzz drivers
# ---------------------------------------------------------------------------

def corpus(seed: int, dlo: int, enum: int) -> list[Randomization]:
    """Deterministic instance corpus: the given number of ordered-theory
    instances followed by enumerated-domain ones."""
    rng = random.Random(seed)
    out = [random_instance(rng, "dlo") for _ in range(dlo)]
    out += [random_instance(rng, "enum") for _ in range(enum)]
    return out


def _jobs(count: int, seed: int) -> Iterator[tuple[Randomization, int]]:
    """The instances of a fuzz run and their check seeds, drawn in order."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng), rng.getrandbits(64)


def run_fuzz(
    count: int, seed: int
) -> Iterator[tuple[Randomization, list[tuple[str, str]]]]:
    """Generate instances from the seed and run the full suite on each,
    yielding each instance with its results in instance order.

    Instance i runs on worker i % W of W = _workers(count): this process
    is worker 0, and the others are children forked before the first draw
    (_serve).  Worker w runs on CPU w of this process's CPUs, modulo their
    number, until the run ends.  Their results are read in instance order,
    so the answer does not depend on W.  An instance whose worker sent no
    result runs again here, where it raises as itself, or else raises
    RuntimeError."""
    workers = _workers(count)
    cpus = []  # this process's own CPUs, while the workers are placed
    if workers > 1 and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    readers = []  # the read end of each child's pipe, in worker order
    pids = []
    try:
        _place(0, cpus, 0)
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _place(0, cpus, w)
                os.close(read_end)
                for pipe in readers:
                    pipe.close()
                _serve(count, seed, w, workers, write_end)
            os.close(write_end)
            pids.append(pid)
            _place(pid, cpus, w)
            readers.append(open(read_end, "rb"))
        for i, (inst, s) in enumerate(_jobs(count, seed)):
            if i % workers == 0:
                yield inst, run_checks(inst, random.Random(s))
                continue
            try:
                results = marshal.load(readers[i % workers - 1])
            except (EOFError, ValueError):  # the worker ended first
                results = None
            if results is None:
                run_checks(inst, random.Random(s))  # raises again, as itself
                raise RuntimeError(
                    f"the worker of fuzz instance {i} ended without a result"
                )
            yield inst, results
    finally:
        # a child still running stops at its next write, which fails
        for pipe in readers:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
        _place(0, cpus)


# Forking costs a fraction of a millisecond, where a spawned worker would
# start an interpreter and compile the package again; multiprocessing is
# not used, since importing it costs more than the workers save on a short
# request, and marshal, which is always loaded, carries the results.
# Drawing an instance costs little beside its checks, so every worker
# draws them all.  Each process holds one instance at a time, and a worker
# that runs ahead blocks once its pipe is full, so memory does not grow
# with the count.  Each worker is placed on a CPU of its own: Linux at
# times keeps a freshly forked child on its parent's CPU, where two
# unplaced workers took turns while the other CPU sat idle.  A child
# places itself, and the parent places it too, so it need not wait a turn.

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    """One worker per usable CPU, at most one per instance; one where the
    process cannot fork, or runs other threads, which a fork would leave
    holding their locks in the child."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    return max(1, min(count, _usable_cpus()))


def _place(pid: int, cpus: list[int], w: int | None = None) -> None:
    """Run process pid (0: this one) on CPU cpus[w % len(cpus)] alone, or
    on all of cpus when w is None; where it cannot be placed, it stays."""
    if cpus:
        try:
            os.sched_setaffinity(pid, cpus if w is None else {cpus[w % len(cpus)]})
        except OSError:
            pass


def _serve(count: int, seed: int, w: int, workers: int, fd: int) -> None:
    """A forked child's whole life: run instances w, w + workers, ... of
    the run, write each one's results to fd as one marshal record as it
    finishes, and exit at the end, at the first instance that raises or
    at the first write the parent no longer reads."""
    try:
        # this process's collections leave the inherited objects alone,
        # so their pages stay shared with the parent
        gc.freeze()
        with open(fd, "wb") as pipe:
            for i, (inst, s) in enumerate(_jobs(count, seed)):
                if i % workers == w:
                    marshal.dump(run_checks(inst, random.Random(s)), pipe)
                    pipe.flush()
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# the check and fuzz subcommands
# ---------------------------------------------------------------------------

# Each returns its exit code, its text lines and its structured payload,
# which cli prints: a request runs cli as __main__, so importing cli here
# would compile it a second time.

def _cmd_check(args) -> tuple[int, list[str], dict]:
    r = load(args.file)
    results = run_checks(r, random.Random(args.seed))
    lines = [
        f"FAIL {name}: {detail}" if detail else f"ok   {name}"
        for name, detail in results
    ]
    passed = sum(not detail for _, detail in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    payload = {
        "checks": [
            {"name": name, "passed": not detail, "detail": detail}
            for name, detail in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return 0 if passed == len(results) else 3, lines, payload


def _cmd_fuzz(args) -> tuple[int, list[str], dict]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    lines = []
    failures = []
    for idx, (inst, results) in enumerate(run_fuzz(args.count, args.seed)):
        bad = [(name, detail) for name, detail in results if detail]
        if bad:
            failures.append((idx, inst, bad))
            lines += [f"instance {idx}: FAIL {name}: {detail}" for name, detail in bad]
    ok = args.count - len(failures)
    lines.append(f"{ok}/{args.count} instances passed all cross-checks")
    payload = {
        "count": args.count,
        "passed": ok,
        "failures": [
            {
                "index": idx,
                "instance": to_payload(inst),
                "failed": [name for name, _ in bad],
            }
            for idx, inst, bad in failures
        ],
    }
    return 0 if not failures else 3, lines, payload
