"""Span tracing for one randcl process, installed from outside the engine.

``install`` replaces every module binding of the traced engine functions
(``closure.eval_event`` as well as ``cli.eval_event``, ``randvar.qe`` as
well as ``checks.qe``) with a timing wrapper, so nested calls land under
the right parent span; ``restore`` puts every original back.  Nothing under
``src/`` changes.

Spans are aggregated as they close, so memory stays flat however many
calls a request makes.  A function's time is the inclusive time of its
outermost calls (a call nested inside a call of the same span name is not
timed again); its self time is that duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# engine function name -> span name (layer.function)
SPANS = {
    "load": "randfile.load",
    "loads": "randfile.load",
    "parse": "formula.parse",
    "qe": "theory.qe",
    "evaluate": "theory.evaluate",
    "isolating_formulas": "theory.isolating_formulas",
    "eval_direct": "theory.eval_direct",
    "eval_event": "randvar.eval_event",
    "witness": "randvar.witness",
    "generated_algebra": "measure.generated_algebra",
    "fo_event_algebra": "closure.fo_event_algebra",
    "_group_indices": "closure.type_groups",
    "definable_closure": "closure.definable_closure",
    "if_less_closure": "closure.if_less_closure",
    "pointwise_definable_event": "closure.pointwise",
    "definability_report": "closure.definability_report",
    "is_definable": "closure.decider.pointwise_algebra",
    "is_definable_by_pinning": "closure.decider.pinning",
    "piecewise_definable": "closure.decider.piecewise_family",
    "is_definable_by_isolating_events": "closure.decider.isolating_events",
    "fo_definable_closure": "closure.fo_definable_closure",
    "fo_definable_on": "closure.fo_definable_on",
    "run_checks": "checks.run_checks",
}
# a span also counted under another name when its parent is the given span
AS_CHILD_OF = {
    ("closure.definability_report", "closure.definable_closure"):
        "closure.decider.closure_member",
}
DECIDER = "closure.decider."


class Tracer:
    """Open-span stack plus running totals per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.open: Counter = Counter()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])
        self.open[name] += 1

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        dur = self.clock() - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - covered
        if not self.open[name]:
            self.time[name] += dur
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            alias = AS_CHILD_OF.get((parent[0], name))
            if alias:
                self.time[alias] += dur

    def inside(self, prefix: str) -> bool:
        return any(span[0].startswith(prefix) for span in self.stack)

    def summary(self) -> dict:
        ms = 1000.0
        return {
            "time_ms": {k: v * ms for k, v in self.time.items()},
            "self_ms": {k: v * ms for k, v in self.self_time.items()},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def formula_nodes(f) -> int:
    """Node count of an engine formula (atoms count one each)."""
    base = sys.modules["randcl.formula"].Formula
    count, todo = 0, [f]
    while todo:
        g = todo.pop()
        count += 1
        for attr in ("body", "lhs", "rhs"):
            sub = getattr(g, attr, None)
            if isinstance(sub, base):
                todo.append(sub)
    return count


def _hook(t: Tracer, fname: str, args: tuple, result) -> None:
    c = t.counters
    if fname == "load":
        c["bytes_read"] += os.path.getsize(args[0])
    elif fname == "loads":
        c["bytes_read"] += len(args[0].encode())
    elif fname == "parse":
        c["formula_nodes"] += formula_nodes(result)
    elif fname == "qe":
        c["qe_in_nodes"] += formula_nodes(args[0])
        c["qe_out_nodes"] += formula_nodes(result)
    elif fname == "isolating_formulas":
        c["isolating_formulas"] += len(result)
    elif fname == "eval_event":
        c["atom_evals"] += args[0].partition.size
        if t.inside(DECIDER):
            c["decider_eval_events"] += 1
            c["decider_bottom_events"] += not result.members
    elif fname == "_group_indices":
        c["type_groups"] += len(result)
    elif fname == "definable_closure":
        c["closure_size"] += len(result)
    elif fname == "fo_definable_on" and t.open["closure.fo_definable_closure"]:
        c["fo_candidates"] += 1
        c["fo_accepted"] += bool(result)


def _wrap(t: Tracer, span: str, fn):
    fname = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if t.open[span]:
            return fn(*args, **kwargs)
        t.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.exit()
        _hook(t, fname, args, result)
        return result

    return wrapper


def engine_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "randcl" or name.startswith("randcl."))]


def install(t: Tracer, modules=None) -> list[tuple]:
    """Wrap every binding of a traced engine function in the given modules
    (default: every loaded randcl module); returns what restore needs."""
    modules = engine_modules() if modules is None else modules
    wrappers: dict[int, object] = {}
    bindings = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            span = SPANS.get(getattr(obj, "__name__", None))
            if (span is None or isinstance(obj, type)
                    or not getattr(obj, "__module__", "").startswith("randcl")):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(t, span, obj)
            bindings.append((mod, attr, obj))
            setattr(mod, attr, wrappers[id(obj)])
    return bindings


def restore(bindings: list[tuple]) -> None:
    for mod, attr, original in bindings:
        setattr(mod, attr, original)
