"""Command-line front end.

Subcommands::

    eval FILE "FORMULA"      event of a formula over named elements
    dclb FILE [PARAM...]     atoms of the parameter-definable event algebra
    dcl FILE [PARAM...]      enumerate the definable closure
    lcl FILE [PARAM...]      closure under the if_less combinator (ordered)
    isdef FILE ELEM [PARAM...]   run all definability deciders
    pointwise FILE ELEM [PARAM...]  pointwise-definability event
    dist FILE X Y            distance between elements, or between events
    glue FILE A B EVENT      element agreeing with A on EVENT, with B off it
    witness FILE "FORMULA" VAR   deterministic witness element
    check FILE               full cross-check suite on one instance
    fuzz [--count N] [--seed S]  random instances through every cross-check

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error
(including a formula nested past the recursion limit), 3 invariant
violation or internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .checks import run_checks, run_fuzz
from .closure import (
    definability_report,
    definable_closure,
    definable_event_algebra,
    if_less_closure,
    pointwise_definable_event,
)
from .formula import free_vars, parse
from .measure import Event, event_dist
from .randfile import load, to_payload
from .randvar import (
    RandomElement,
    Randomization,
    elem_dist,
    eval_event,
    glue,
    witness,
)

# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(args, lines: list[str], payload: dict) -> None:
    if args.format == "structured":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _event_payload(e: Event) -> list[str]:
    names = e.partition.names
    return [names[i] for i in sorted(e.members)]


def _value_payload(r: Randomization, e: RandomElement) -> list:
    if r.sig.is_dlo:
        return [str(v) for v in e.values]
    return list(e.values)


def _named(r: Randomization, e: RandomElement) -> str | None:
    for name, known in r.elements.items():
        if known.values == e.values:
            return name
    return None


def _element_lines(r: Randomization, elems) -> tuple[list[str], dict]:
    lines = [f"{len(elems)} elements:"]
    payload = []
    for e in elems:
        name = _named(r, e)
        lines.append(f"  {name} = {e}" if name else f"  {e}")
        payload.append({"name": name, "values": _value_payload(r, e)})
    return lines, {"count": len(elems), "elements": payload}


def _parse_event(r: Randomization, text: str) -> Event:
    t = text.strip()
    if t == "top":
        return r.partition.top()
    if t in ("bottom", "{}"):
        return r.partition.bottom()
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1]
    names = [s.strip() for s in t.split(",") if s.strip()]
    return r.partition.event(names)


def _identity_binding(r: Randomization, f, skip: tuple[str, ...] = ()) -> dict:
    return {v: v for v in free_vars(f) if v not in skip}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    r = load(args.file)
    f = parse(args.formula, r.sig)
    ev = eval_event(r, f, _identity_binding(r, f))
    _emit(
        args,
        [f"{ev}, probability = {ev.prob}"],
        {"event": _event_payload(ev), "probability": str(ev.prob)},
    )
    return 0


def _cmd_dclb(args) -> int:
    r = load(args.file)
    alg = definable_event_algebra(r, args.params)
    text = f"{len(alg.atoms)} atoms: " + ", ".join(str(e) for e in alg.atoms)
    _emit(args, [text], {"atoms": [_event_payload(e) for e in alg.atoms]})
    return 0


def _cmd_dcl(args) -> int:
    r = load(args.file)
    elems = definable_closure(r, args.params)
    lines, payload = _element_lines(r, elems)
    _emit(args, lines, payload)
    return 0


def _cmd_lcl(args) -> int:
    r = load(args.file)
    elems = if_less_closure(r, args.params)
    lines, payload = _element_lines(r, elems)
    _emit(args, lines, payload)
    return 0


def _cmd_isdef(args) -> int:
    r = load(args.file)
    report = definability_report(r, args.element, args.params)
    lines = [f"{path}: {str(ok).lower()}" for path, ok in report.paths.items()]
    lines.append(f"verdict: {str(report.verdict).lower()}")
    payload = {
        "paths": report.paths,
        "verdict": report.verdict,
        "agree": report.agree,
    }
    _emit(args, lines, payload)
    if not report.agree:
        print("invariant violation: decider paths disagree", file=sys.stderr)
        return 3
    return 0 if report.verdict else 1


def _cmd_pointwise(args) -> int:
    r = load(args.file)
    ev = pointwise_definable_event(r, args.element, args.params)
    _emit(
        args,
        [f"{ev}, probability = {ev.prob}"],
        {"event": _event_payload(ev), "probability": str(ev.prob)},
    )
    return 0 if ev.is_top() else 1


def _cmd_dist(args) -> int:
    r = load(args.file)
    if args.x in r.elements and args.y in r.elements:
        d = elem_dist(r.element(args.x), r.element(args.y))
    else:
        d = event_dist(_parse_event(r, args.x), _parse_event(r, args.y))
    _emit(args, [str(d)], {"distance": str(d)})
    return 0


def _cmd_glue(args) -> int:
    r = load(args.file)
    c = glue(r.element(args.a), r.element(args.b), _parse_event(r, args.event))
    _emit(args, [str(c)], {"values": _value_payload(r, c)})
    return 0


def _cmd_witness(args) -> int:
    r = load(args.file)
    theta = parse(args.formula, r.sig)
    binding = _identity_binding(r, theta, skip=(args.var,))
    w = witness(r, theta, args.var, binding)
    _emit(args, [str(w)], {"values": _value_payload(r, w)})
    return 0


def _cmd_check(args) -> int:
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
    _emit(args, lines, payload)
    return 0 if passed == len(results) else 3


def _cmd_fuzz(args) -> int:
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
    _emit(args, lines, payload)
    return 0 if not failures else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcl",
        description="symbolic engine for finitely presented randomizations",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="plain text (default) or JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("eval", _cmd_eval, "event and probability of a formula")
    p.add_argument("file")
    p.add_argument("formula")

    for name, handler, help_text in (
        ("dclb", _cmd_dclb, "atoms of the parameter-definable event algebra"),
        ("dcl", _cmd_dcl, "enumerate the definable closure"),
        ("lcl", _cmd_lcl, "closure under if_less (ordered theory only)"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("file")
        p.add_argument("params", nargs="*", metavar="PARAM")

    for name, handler, help_text in (
        ("isdef", _cmd_isdef, "run every definability decider on an element"),
        ("pointwise", _cmd_pointwise, "pointwise-definability event"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("file")
        p.add_argument("element", metavar="ELEM")
        p.add_argument("params", nargs="*", metavar="PARAM")

    p = cmd("dist", _cmd_dist, "distance between two elements or two events")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")

    p = cmd("glue", _cmd_glue, "combine two elements along an event")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("event")

    p = cmd("witness", _cmd_witness, "deterministic witness for a formula")
    p.add_argument("file")
    p.add_argument("formula")
    p.add_argument("var")

    p = cmd("check", _cmd_check, "run the cross-check suite on one instance")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = cmd("fuzz", _cmd_fuzz, "random instances through every cross-check")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault: one line, never a traceback
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
