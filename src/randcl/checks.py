"""Seeded instance generation and the cross-check suite.

Every theorem-shaped property of the engine is expressed here as an exact
check on one randomization instance: the two evaluation routes agree, the
event map is a Boolean homomorphism, metrics satisfy their axioms, the
closure enumerations computed by independent algorithms coincide, and all
definability deciders return identical verdicts.  The generator draws
small instances (2..6 atoms, exact dyadic or ternary weights) so every
check stays brute-forceable.  The check and fuzz subcommands' handlers
are here too, so no other request compiles them.
"""

from __future__ import annotations

import gc
import marshal
import os
import random
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction

from .algebra import (
    EventAlgebra,
    _places,
    _resolve_params,
    definable_closure,
    fo_event_algebra,
)
from .closure import _fo_definable_on, _realized_events, definability_report
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
from .library import (
    generated_algebra,
    indicator,
    pointwise_max,
    pointwise_min,
    refine,
    transport_elem,
    transport_event,
)
from .measure import complement, event_dist, join, meet, partition
from .oracles import (
    _if_less_closure_naive,
    eval_direct,
    fo_definable_closure,
    if_less_closure,
)
from .randfile import dumps, load, loads, to_payload
from .randvar import (
    RandomElement,
    Randomization,
    _type_rows,
    differs,
    elem_dist,
    eval_event,
    glue,
)
from .records import DLO, MutableRecord, Signature, finite_enum
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

class CheckResult(MutableRecord):
    """One check's outcome."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


def _values(elems) -> list:
    """Value tuples in order.  Every closure route returns its elements
    sorted and distinct, so equal lists mean equal sets; comparing lists
    hashes no value."""
    return [e.values for e in elems]


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(name, ok, "" if ok else detail))


def _check_evaluation_routes(results, r, rng) -> None:
    # quantifier elimination against the direct region-search oracle
    if not r.sig.is_dlo:
        return
    ok, detail = True, ""
    for _ in range(6):
        f = random_formula(rng, r.sig, ("p", "q", "s"), quantifiers=rng.randint(0, 2))
        g = qe(f)
        if not is_quantifier_free(g):
            ok, detail = False, f"quantifier survived elimination in {f}"
            break
        for _ in range(5):
            assign = {
                v: _DLO_VALUES[rng.randrange(len(_DLO_VALUES))]
                for v in ("p", "q", "s")
            }
            if eval_qf(g, assign) != eval_direct(f, assign):
                ok, detail = False, f"routes disagree on {f} at {assign}"
                break
        if not ok:
            break
    _check(results, "evaluation-routes", ok, detail)


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


def _check_event_homomorphism(results, r, rng) -> None:
    binding = _pool(r)
    names = tuple(binding)
    ok, detail = True, ""
    for _ in range(4):
        f = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
        g = random_formula(rng, r.sig, names, quantifiers=rng.randint(0, 1))
        ef, eg = eval_event(r, f, binding), eval_event(r, g, binding)
        if (
            eval_event(r, And(f, g), binding) != meet(ef, eg)
            or eval_event(r, Or(f, g), binding) != join(ef, eg)
            or eval_event(r, Not(f), binding) != complement(ef)
        ):
            ok, detail = False, f"homomorphism broken for {f} / {g}"
            break
        # a tautology lands on the sure event
        if not eval_event(r, Or(f, Not(f)), binding).is_top():
            ok, detail = False, f"excluded middle not sure for {f}"
            break
    _check(results, "event-homomorphism", ok, detail)


def _check_metrics(results, r, rng) -> None:
    pool = _pool(r)
    elems = list(pool.values())
    events = [
        eval_event(r, random_formula(rng, r.sig, tuple(pool), quantifiers=0), pool)
        for _ in range(3)
    ] + [r.partition.top(), r.partition.bottom()]
    ok, detail = True, ""
    # every ordered pair measured once, each order by its own call; each
    # distance is compared as its numerator over the weights' common
    # denominator, which every probability's denominator divides
    denom = r.partition._denom

    def num(d: Fraction) -> int:
        return d.numerator * (denom // d.denominator)

    de = [[num(elem_dist(a, b)) for b in elems] for a in elems]
    dv = [[num(event_dist(x, y)) for y in events] for x in events]
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            d = de[ia][ib]
            if d != de[ib][ia] or (d == 0) != (a.values == b.values):
                ok, detail = False, "element metric axiom failed"
            for ic in range(len(elems)):
                if de[ia][ic] > d + de[ib][ic]:
                    ok, detail = False, "element metric triangle failed"
    for ix, x in enumerate(events):
        for iy, y in enumerate(events):
            d = dv[ix][iy]
            if d != dv[iy][ix] or (d == 0) != (x == y):
                ok, detail = False, "event metric axiom failed"
            for iz in range(len(events)):
                if dv[ix][iz] > d + dv[iy][iz]:
                    ok, detail = False, "event metric triangle failed"
    _check(results, "metric-axioms", ok, detail)


def _check_glue(results, r, rng) -> None:
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
    ok = ok and recovered == e.members
    _check(results, "glue-characteristic", ok, f"glue failed on {e}")


def _check_witness(results, r, rng) -> None:
    names = tuple(r.elements)[:2]
    ok, detail = True, ""
    for _ in range(4):
        theta = random_formula(
            rng, r.sig, ("t",) + names, quantifiers=rng.randint(0, 1)
        )
        binding = {n: n for n in free_vars(theta) if n != "t"}
        w = witness(r, theta, "t", binding)
        got = eval_event(r, theta, {**binding, "t": w})
        want = eval_event(r, Exists("t", theta), binding)
        if got != want:
            ok, detail = False, f"witness event mismatch for {theta}"
            break
    _check(results, "witness-event", ok, detail)


def isolating_event_algebra(r: Randomization, params) -> EventAlgebra:
    """Oracle for fo_event_algebra: the algebra generated by the events of
    the isolating formulas the parameters realize, each from eval_event."""
    elems = _resolve_params(r, params)
    return generated_algebra(
        r.partition, [ev for _, ev in _realized_events(r, elems)]
    )


def _check_algebra_routes(results, r, rng) -> None:
    A = sample_params(rng, r)
    ok = fo_event_algebra(r, A) == isolating_event_algebra(r, A)
    empty = fo_event_algebra(r, [])
    ok = ok and empty.atoms == (r.partition.top(),)
    _check(results, "algebra-routes", ok, f"algebra routes disagree for A={A}")


def _check_closure_routes(results, r, rng) -> None:
    A = sample_params(rng, r)
    dc = definable_closure(r, A)
    vals = _values(dc)
    ok = vals == _values(fo_definable_closure(r, A))
    detail = f"formula route differs from closure for A={A}"
    if ok:
        # the membership test against the enumeration: every member is
        # one, and each named element is one exactly when enumerated
        elems, top = _resolve_params(r, A), r.partition.top()
        rows = _type_rows(r, tuple(elems))

        def member(b: RandomElement) -> bool:  # fo_definable_on(r, b, top, A)
            return _fo_definable_on(r, top, rows, _places(r, elems, b))

        ok = all(map(member, dc)) and all(
            member(e) == (e.values in vals) for e in r.elements.values()
        )
        detail = f"closure membership differs from enumeration for A={A}"
    if ok and r.sig.is_dlo:
        lc = if_less_closure(r, A)
        ok = _values(lc) == vals
        detail = f"if_less closure differs from closure for A={A}"
        if ok and len(dc) <= 10:
            naive = _if_less_closure_naive(r, A)
            ok = _values(naive) == _values(lc)
            detail = f"if_less fixpoint routes disagree for A={A}"
    _check(results, "closure-routes", ok, detail)


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


def _check_definability_agreement(results, r, rng) -> None:
    A = sample_params(rng, r)
    ok, detail = True, ""
    for b in _definability_samples(rng, r, A):
        report = definability_report(r, b, A)
        if not report.agree:
            ok, detail = False, f"deciders disagree for {b} over A={A}: {report.paths}"
            break
    _check(results, "definability-agreement", ok, detail)


def _check_closure_laws(results, r, rng) -> None:
    names = list(r.elements)
    k = rng.randint(0, min(2, len(names)))
    A = rng.sample(names, k)
    bigger = A + [n for n in names if n not in A][: rng.randint(0, 2)]
    small = definable_closure(r, A)
    large = definable_closure(r, bigger)
    # both sorted: small is a subset of large iff a subsequence of it
    rest = iter(_values(large))
    ok = all(any(v == w for w in rest) for v in _values(small))
    detail = f"monotonicity failed for {A} vs {bigger}"
    if ok:
        again = definable_closure(r, small)
        ok = _values(again) == _values(small)
        detail = f"idempotence failed for A={A}"
    _check(results, "closure-laws", ok, detail)


def _check_refine_transport(results, r, rng) -> None:
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
    _check(results, "refine-transport", ok, "transport changed a metric")


def _check_file_roundtrip(results, r, rng) -> None:
    back = loads(dumps(r))
    ok = (
        back.sig == r.sig
        and back.partition == r.partition
        and back.elements == r.elements
    )
    _check(results, "file-roundtrip", ok, "instance does not survive serialization")


_SUITE = (
    _check_evaluation_routes,
    _check_event_homomorphism,
    _check_metrics,
    _check_glue,
    _check_witness,
    _check_algebra_routes,
    _check_closure_routes,
    _check_definability_agreement,
    _check_closure_laws,
    _check_refine_transport,
    _check_file_roundtrip,
)


def run_checks(r: Randomization, rng: random.Random | None = None) -> list[CheckResult]:
    """Run every cross-check on one instance; results in a fixed order."""
    rng = rng or random.Random(0)
    results: list[CheckResult] = []
    for check in _SUITE:
        check(results, r, rng)
    return results


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


def run_fuzz(
    count: int, seed: int
) -> list[tuple[Randomization, list[CheckResult]]]:
    """Generate instances from the seed and run the full suite on each.

    Every instance and its check seed are drawn here, in order; the
    instances then run on one worker per usable CPU (see _run_shares),
    and their results and first error come back in instance order, so
    the answer does not depend on the number of workers."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        inst = random_instance(rng)
        jobs.append((inst, rng.getrandbits(64)))
    results = _run_shares(jobs, _workers(count))
    return [(inst, res) for (inst, _), res in zip(jobs, results)]


# ---------------------------------------------------------------------------
# fuzz workers
# ---------------------------------------------------------------------------

# The instances are independent once drawn, so run_fuzz deals them
# stride-wise over forked workers: worker w runs instances w, w + W, ...
# and the parent runs worker 0's share itself.  Forking costs a fraction
# of a millisecond, where a spawned worker would start an interpreter and
# compile the package again; multiprocessing is not used, since importing
# it costs more than the workers save on a short request, and marshal,
# which is always loaded, carries the results.

# an error a worker raises comes back as the first of these it is an
# instance of, with its type's name and its text
_ERROR_BASES = (ValueError, RecursionError, Exception)


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


def _run_share(jobs) -> tuple[list[list[CheckResult]], Exception | None]:
    """The results of each job in order, up to the first that raises, and
    that job's error (None when every job ran)."""
    done = []
    try:
        for inst, s in jobs:
            done.append(run_checks(inst, random.Random(s)))
    except Exception as exc:
        return done, exc
    return done, None


def _serve_share(jobs, fd: int) -> None:
    """A forked child's whole life: run the share, write it to fd, exit.
    Exit status 0 means the whole share was written."""
    code = 1
    try:
        # this process's collections leave the inherited objects alone,
        # so their pages stay shared with the parent
        gc.freeze()
        done, exc = _run_share(jobs)
        error = None
        if exc is not None:
            base = next(i for i, b in enumerate(_ERROR_BASES) if isinstance(exc, b))
            error = (base, type(exc).__name__, str(exc))
        rows = [[(c.name, c.passed, c.detail) for c in res] for res in done]
        with open(fd, "wb") as pipe:
            pipe.write(marshal.dumps((rows, error)))
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes) -> tuple[list[list[CheckResult]], Exception | None]:
    """A child's share as _run_share returns it; its error is rebuilt with
    the same type name, text and kind (see _ERROR_BASES)."""
    rows, error = marshal.loads(data)
    done = [[CheckResult(*row) for row in res] for res in rows]
    if error is None:
        return done, None
    base, name, text = error
    return done, type(name, (_ERROR_BASES[base],), {})(text)


def _run_shares(jobs, workers: int) -> list[list[CheckResult]]:
    """Each job's results, in order, from workers forked for every share
    but the first, which runs here (all of them, for one worker).  The
    first job in order that raised, or whose worker ended without sending
    its share, raises here, as a loop over the jobs would have raised on
    it; every child is reaped."""
    shares = [jobs[w::workers] for w in range(workers)]
    children: list[tuple[int, int]] = []  # (pid, read end) per forked share
    statuses: dict[int, int] = {}  # wait status of each child reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                for fd in (read_end, *(fd for _, fd in children)):
                    os.close(fd)
                _serve_share(share, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        outcomes = [_run_share(shares[0])]
        for pid, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            statuses[pid] = os.waitpid(pid, 0)[1]
            outcomes.append(_received(data) if statuses[pid] == 0 else None)
    finally:
        for pid, fd in children:
            os.close(fd)
            if pid not in statuses:  # interrupted: no result is awaited
                import signal  # only on this path

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    out = []
    for i in range(len(jobs)):
        outcome = outcomes[i % workers]
        if outcome is None:
            raise RuntimeError(f"the worker of fuzz instance {i} ended without a result")
        done, exc = outcome
        if i // workers == len(done):
            raise exc
        out.append(done[i // workers])
    return out


# ---------------------------------------------------------------------------
# the check and fuzz subcommands
# ---------------------------------------------------------------------------

# Each returns its exit code, its text lines and its structured payload,
# which cli prints: a request runs cli as __main__, so importing cli here
# would compile it a second time.

def _cmd_check(args) -> tuple[int, list[str], dict]:
    r = load(args.file)
    results = run_checks(r, random.Random(args.seed))
    lines = []
    for res in results:
        mark = "ok  " if res.passed else "FAIL"
        lines.append(f"{mark} {res.name}" + (f": {res.detail}" if res.detail else ""))
    passed = sum(1 for res in results if res.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    payload = {
        "checks": [
            {"name": res.name, "passed": res.passed, "detail": res.detail}
            for res in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return 0 if passed == len(results) else 3, lines, payload


def _cmd_fuzz(args) -> tuple[int, list[str], dict]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    outcomes = run_fuzz(args.count, args.seed)
    lines = []
    failures = []
    for idx, (inst, results) in enumerate(outcomes):
        bad = [res for res in results if not res.passed]
        if bad:
            failures.append((idx, inst, bad))
            for res in bad:
                lines.append(f"instance {idx}: FAIL {res.name}: {res.detail}")
    ok = len(outcomes) - len(failures)
    lines.append(f"{ok}/{len(outcomes)} instances passed all cross-checks")
    payload = {
        "count": len(outcomes),
        "passed": ok,
        "failures": [
            {
                "index": idx,
                "instance": to_payload(inst),
                "failed": [res.name for res in bad],
            }
            for idx, inst, bad in failures
        ],
    }
    return 0 if not failures else 3, lines, payload
