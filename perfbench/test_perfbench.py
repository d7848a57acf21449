"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic(name):
    a, b = workloads.build(name), workloads.build(name)
    assert a.instances == b.instances
    assert a.strata == b.strata
    assert list(itertools.islice(workloads.rounds(a, 5), 3)) == list(
        itertools.islice(workloads.rounds(b, 5), 3))
    held = workloads.build(name, "heldout")
    assert held.instances != a.instances


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_a_round_sends_the_whole_pool(name):
    pool = workloads.build(name)
    batches = workloads.rounds(pool, 11)
    if pool.probes:
        assert [r.probe for r in next(batches)] == [True]
    for _ in range(2):
        served = [r.rid for r in next(batches)]
        assert sorted(served) == sorted(r.rid for r in pool.requests() if not r.probe)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_cycle_pass_is_the_first_pass_of_a_round(name):
    pool = workloads.build(name)
    batches = workloads.rounds(pool, 11)
    if pool.probes:
        next(batches)
    traced = workloads.cycle_pass(pool, 11)
    assert traced == next(batches)[:len(pool.strata)]
    assert [r.row for r in traced] == [st[0].row for st in pool.strata]


@pytest.mark.parametrize("theory", ["dlo", "enum(2)", "enum(3)"])
def test_closure_size_predictor_matches_enumeration(theory):
    from randcl import definable_closure, is_definable
    from randcl.randfile import from_payload

    rng = random.Random(17)
    for _ in range(40):
        n_atoms = rng.randint(1, 6)
        names = "abcde"
        elements = {n: [workloads.draw_value(rng, theory, 5) for _ in range(n_atoms)]
                    for n in names}
        inst = workloads.payload(theory, workloads.weights(rng, n_atoms), elements)
        r = from_payload(inst)
        params = rng.sample(names, rng.randint(0, 3))
        size = workloads.closure_size(theory, [elements[p] for p in params], n_atoms)
        assert size == len(definable_closure(r, params))
        elem = rng.choice(names)
        assert workloads.definable(theory, elements[elem], [elements[p] for p in params]) \
            == is_definable(r, elem, params)


def test_reference_evaluator_matches_engine():
    from randcl import eval_event, parse
    from randcl.randfile import from_payload

    rng = random.Random(3)
    inst = workloads._deep_instance(rng, "dlo", 6)
    r = from_payload(inst)
    for q in (0, 1, 2):
        f = workloads.shaped_formula(rng, "dlo", ("x0", "x1", "x7"), q, 4, 3, 30)
        ev = eval_event(r, parse(workloads.to_text(f)), {v: v for v in workloads.free_vars(f)})
        names, prob = workloads.reference_event(inst, f)
        assert [r.partition.names[i] for i in sorted(ev.members)] == names
        assert ev.prob == prob


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # main [0, 100] has children a [10, 40] and b [50, 90]; a has child c
    # [15, 25]; b calls itself at [60, 70], which is not timed again
    t = tracer.Tracer(clock=FakeClock([0, 10, 15, 25, 40, 50, 60, 70, 90, 100]))
    t.enter("main")
    t.enter("a")
    t.enter("c")
    t.exit()  # c: 10
    t.exit()  # a: 30, self 20
    t.enter("b")
    t.enter("b")
    t.exit()  # nested b: 10
    t.exit()  # b: 40
    t.exit()  # main: 100
    assert t.time == {"c": 10, "a": 30, "b": 40, "main": 100}
    assert t.self_time["main"] == 100 - 30 - 40
    assert t.self_time["a"] == 20
    assert t.self_time["c"] == 10
    assert t.self_time["b"] == (40 - 10) + 10
    assert t.calls["b"] == 2


def test_decider_child_alias():
    t = tracer.Tracer(clock=FakeClock([0, 1, 4, 9]))
    t.enter("closure.definability_report")
    t.enter("closure.definable_closure")
    t.exit()
    t.exit()
    assert t.time["closure.decider.closure_member"] == 3


def test_install_restores_every_binding():
    import randcl.cli

    modules = tracer.engine_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    t = tracer.Tracer()
    bindings = tracer.install(t)
    assert len(bindings) > len(tracer.SPANS)
    assert randcl.cli.eval_event is not before[("randcl.cli", "eval_event")]
    assert sys.modules["randcl.closure"].eval_event is randcl.cli.eval_event
    assert randcl.cli.main(["eval", str(Path(__file__).resolve().parents[1]
                                       / "samples" / "swap_pair.json"), "a < b"]) == 0
    assert t.calls["randvar.eval_event"] == 1
    assert t.counters["atom_evals"] == 2
    tracer.restore(bindings)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
