"""The isolating-formula routes enumerate only the types realized on atoms.

checks.isolating_event_algebra (the oracle for fo_event_algebra),
is_definable_by_pinning and is_definable_by_isolating_events evaluate one
isolating formula per type the tuple takes on some atom.  The references below keep the full
enumeration over isolating_formulas, so the two are compared here.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest

from randcl import (
    DLO,
    Exists,
    Partition,
    Randomization,
    complement,
    differs,
    eval_event,
    finite_enum,
    generated_algebra,
    glue,
    isolating_formulas,
    load,
    pointwise_max,
    pointwise_min,
)
from randcl import closure
from randcl.checks import corpus, isolating_event_algebra, random_instance, type_key
from randcl.cli import main
from randcl.algebra import fo_event_algebra, pointwise_definable_event
from randcl.closure import (
    definability_report,
    is_definable_by_isolating_events,
    is_definable_by_pinning,
    isolating_formula,
    isolating_vars,
)
from randcl.formula import eval_qf

# ---------------------------------------------------------------------------
# full-enumeration references
# ---------------------------------------------------------------------------


def _ref_algebra(r, elems):
    binding = dict(zip(isolating_vars(len(elems)), elems))
    events = [
        eval_event(r, psi, binding) for psi in isolating_formulas(r.sig, len(elems))
    ]
    return generated_algebra(r.partition, events)


def _ref_pinning(r, b, elems):
    binding = dict(zip(isolating_vars(len(elems)), elems))
    for psi in isolating_formulas(r.sig, len(elems)):
        ev = eval_event(r, psi, binding)
        if ev.is_bottom():
            continue
        if not any(ev.members <= complement(differs(b, x)).members for x in elems):
            return False
    return True


def _ref_isolating_events(r, b, elems):
    if not pointwise_definable_event(r, b, elems).is_top():
        return False
    n = len(elems)
    u = f"v{n + 1}"
    base = dict(zip(isolating_vars(n), elems))
    for phi in isolating_formulas(r.sig, n + 1):
        ev = eval_event(r, phi, {**base, u: b})
        if ev.is_bottom():
            continue
        if ev != eval_event(r, Exists(u, phi), base):
            return False
    return True


def _distinct(elems):
    out = []
    for e in elems:
        if all(e.values != o.values for o in out):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# (a) isolating_formula picks the satisfied member
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("sig", [DLO, finite_enum(2), finite_enum(3)], ids=str)
def test_isolating_formula_is_the_satisfied_member(sig, n):
    formulas = isolating_formulas(sig, n)
    domain = [Fraction(k, 2) for k in range(n)] if sig.is_dlo else range(sig.n)
    for vals in itertools.product(domain, repeat=n):
        assign = dict(zip(isolating_vars(n), vals))
        hits = [f for f in formulas if eval_qf(f, assign)]
        assert hits == [isolating_formula(sig, type_key(sig, vals))]


# ---------------------------------------------------------------------------
# (b) the realized-type routes agree with the full enumeration
# ---------------------------------------------------------------------------


def _probes(rng, r):
    """Every named element, a random glue of two, and their max and min."""
    named = list(r.elements.values())
    x, y = rng.sample(named, 2)
    half = [i for i in range(r.partition.size) if rng.random() < 0.5]
    out = named + [glue(x, y, r.partition.event(half))]
    if r.sig.is_dlo:
        out += [pointwise_max(x, y), pointwise_min(x, y)]
    return out


def _instances():
    yield from corpus(11, 12, 6)
    rng = random.Random(5)
    yield from (random_instance(rng) for _ in range(12))


@pytest.mark.parametrize("idx,r", list(enumerate(_instances())))
def test_routes_match_full_enumeration(idx, r):
    rng = random.Random(idx)
    names = list(r.elements)
    for _ in range(3):
        params = rng.sample(names, rng.randint(0, min(4, len(names))))
        elems = _distinct([r.element(p) for p in params])
        assert fo_event_algebra(r, params) == _ref_algebra(r, elems)
        assert isolating_event_algebra(r, params) == _ref_algebra(r, elems)
        for b in _probes(rng, r):
            if r.sig.is_dlo:
                assert is_definable_by_pinning(r, b, params) == _ref_pinning(r, b, elems)
            assert is_definable_by_isolating_events(
                r, b, params
            ) == _ref_isolating_events(r, b, elems)


# ---------------------------------------------------------------------------
# (c) cost: about one formula per atom, not one per weak ordering
# ---------------------------------------------------------------------------


def _many_params(sig, n_params, n_atoms, seed):
    """n_params parameters p0.. and an element b on n_atoms atoms.

    Under DLO the parameters take two values on each atom, so nearly every
    atom has its own type while the closure has at most 2^atoms elements;
    under FiniteEnum the atoms share three parameter rows, which keeps the
    closure at most n^3 elements.
    """
    rng = random.Random(seed)
    part = Partition((f"w{i}", Fraction(1, n_atoms)) for i in range(n_atoms))
    if sig.is_dlo:
        rows = [[rng.randrange(2) for _ in range(n_params)] for _ in range(n_atoms)]
        b = [rng.choice([0, 1, Fraction(1, 2)]) for _ in range(n_atoms)]
    else:
        shared = [[rng.randrange(sig.n) for _ in range(n_params)] for _ in range(3)]
        rows = [rng.choice(shared) for _ in range(n_atoms)]
        b = [rng.randrange(sig.n) for _ in range(n_atoms)]
    elements = {f"p{k}": [row[k] for row in rows] for k in range(n_params)}
    return Randomization.build(sig, part, {**elements, "b": b})


@pytest.mark.parametrize("n_params", [5, 6])
@pytest.mark.parametrize("sig", [DLO, finite_enum(4)], ids=str)
def test_report_evaluates_about_one_formula_per_atom(monkeypatch, sig, n_params):
    calls = []
    real = closure.eval_event

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(closure, "eval_event", counting)
    n_atoms = 8
    for seed in range(4):
        r = _many_params(sig, n_params, n_atoms, seed)
        params = [f"p{k}" for k in range(n_params)]
        probes = ["b", "p0"]
        if sig.is_dlo:
            probes.append(pointwise_max(r.element("p0"), r.element("p1")))
        for elem in probes:
            calls.clear()
            report = definability_report(r, elem, params)
            assert report.agree
            assert 0 < len(calls) <= 6 * n_atoms


# ---------------------------------------------------------------------------
# (d) a wrong isolating formula is caught by the coverage check
# ---------------------------------------------------------------------------


def _reversed_chain(sig, key):
    """The isolating formula of the reversed order: never the realized one
    when the parameters are strictly ordered the same way on every atom."""
    top = max(key, default=0)
    return isolating_formula(sig, tuple(top - k for k in key))


@pytest.fixture
def ordered_pair(tmp_path):
    payload = {
        "theory": "dlo",
        "atoms": [["w1", "1/2"], ["w2", "1/2"]],
        "elements": {"a": ["0", "1"], "b": ["2", "3"], "c": ["0", "3"]},
    }
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(payload))
    return path


def test_wrong_isolating_formula_raises(monkeypatch, ordered_pair):
    r = load(str(ordered_pair))
    monkeypatch.setattr(closure, "isolating_formula", _reversed_chain)
    for route in (
        lambda: isolating_event_algebra(r, ["a", "b"]),
        lambda: is_definable_by_pinning(r, "c", ["a", "b"]),
        lambda: is_definable_by_isolating_events(r, "a", ["a", "b"]),
    ):
        with pytest.raises(RuntimeError, match="do not cover"):
            route()


def test_wrong_isolating_formula_isdef_exits_three(monkeypatch, capsys, ordered_pair):
    monkeypatch.setattr(closure, "isolating_formula", _reversed_chain)
    code = main(["isdef", str(ordered_pair), "c", "a", "b"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal: RuntimeError: ")
