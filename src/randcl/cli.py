"""Command-line front end.

Subcommands::

    eval FILE "FORMULA"      event of a formula over named elements
    dclb FILE [PARAM...]     atoms of the parameter-definable event algebra
    dcl FILE [PARAM...]      enumerate the definable closure
    lcl FILE [PARAM...]      if_less closure, equal to dcl's (ordered only)
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

The recursion limit bounds a formula's size: under Python 3.11's default
limit, the largest eval formula that answers has 985 &-conjuncts, 984
nested ~, 492 nested parentheses or 492 nested quantifiers; one more
exits 2 with "input nested too deeply to process".
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from .formula import free_vars, parse
from .measure import Event, event_dist
from .randfile import _values_payloads, load, to_payload
from .randvar import (
    RandomElement,
    Randomization,
    _element_texts,
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


def _emit_event(args, ev: Event) -> None:
    # the payload lists every member atom: build it only when it is printed
    if args.format == "structured":
        _emit(args, [], {"event": _event_payload(ev), "probability": str(ev.prob)})
    else:
        _emit(args, [f"{ev}, probability = {ev.prob}"], {})


def _emit_element(args, e: RandomElement) -> None:
    if args.format == "structured":
        _emit(args, [], {"values": _values_payloads([e])[0]})
    else:
        _emit(args, [str(e)], {})


def _element_lines(r: Randomization, args, elems) -> tuple[list[str], dict]:
    """Closure output, each element after the first name it has in the
    file: text lines, or under structured output the JSON payload."""
    # known elements bucketed by first and last value, so a lookup hashes
    # two values, not a whole row, and compares only a few rows
    buckets: dict[tuple, list[tuple[tuple, str]]] = {}
    for name, known in r.elements.items():
        key = (known.values[0], known.values[-1])
        buckets.setdefault(key, []).append((known.values, name))
    names = []
    for e in elems:
        bucket = buckets.get((e.values[0], e.values[-1]), ())
        names.append(next((n for v, n in bucket if v == e.values), None))
    if args.format == "structured":
        payload = [
            {"name": n, "values": v} for n, v in zip(names, _values_payloads(elems))
        ]
        return [], {"count": len(elems), "elements": payload}
    lines = [f"{len(elems)} elements:"]
    texts = _element_texts(elems)
    lines += [f"  {n} = {t}" if n else f"  {t}" for n, t in zip(names, texts)]
    return lines, {}


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


def _identity_binding(f, skip: tuple[str, ...] = ()) -> dict:
    return {v: v for v in free_vars(f) if v not in skip}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# Every request is a fresh process that compiles each module it imports, so
# a handler imports closure, checks and random itself: eval, witness, dist
# and glue never load them.

def _cmd_eval(args) -> int:
    r = load(args.file)
    f = parse(args.formula, r.sig)
    _emit_event(args, eval_event(r, f, _identity_binding(f)))
    return 0


def _cmd_dclb(args) -> int:
    from .closure import fo_event_algebra

    r = load(args.file)
    alg = fo_event_algebra(r, args.params)
    if args.format == "structured":
        _emit(args, [], {"atoms": [_event_payload(e) for e in alg.atoms]})
    else:
        text = f"{len(alg.atoms)} atoms: " + ", ".join(str(e) for e in alg.atoms)
        _emit(args, [text], {})
    return 0


def _cmd_closure(args) -> int:
    from .closure import _resolve_params, definable_closure

    r = load(args.file)
    if args.command == "lcl" and not r.sig.is_dlo:
        _resolve_params(r, args.params)  # a bad parameter is named first
        raise ValueError("if_less closure needs an ordered theory")
    lines, payload = _element_lines(r, args, definable_closure(r, args.params))
    _emit(args, lines, payload)
    return 0


def _cmd_isdef(args) -> int:
    from .closure import definability_report

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
    from .closure import pointwise_definable_event

    r = load(args.file)
    ev = pointwise_definable_event(r, args.element, args.params)
    _emit_event(args, ev)
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
    _emit_element(args, c)
    return 0


def _cmd_witness(args) -> int:
    r = load(args.file)
    theta = parse(args.formula, r.sig)
    w = witness(r, theta, args.var, _identity_binding(theta, skip=(args.var,)))
    _emit_element(args, w)
    return 0


def _cmd_check(args) -> int:
    import random

    from .checks import run_checks

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
    from .checks import run_fuzz

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

_PARAMS = ("params", {"nargs": "*", "metavar": "PARAM"})
_ELEM = ("element", {"metavar": "ELEM"})
_SEED = ("--seed", {"type": int, "default": 0})


def _commands() -> dict:
    """name -> (handler, help text, arguments in order: a name, or a name
    with add_argument's keywords).  Built on each call, so a handler is
    looked up when the parser is built."""
    file_params = ("file", _PARAMS)
    return {
        "eval": (_cmd_eval, "event and probability of a formula", ("file", "formula")),
        "dclb": (
            _cmd_dclb, "atoms of the parameter-definable event algebra", file_params
        ),
        "dcl": (_cmd_closure, "enumerate the definable closure", file_params),
        "lcl": (
            _cmd_closure, "closure under if_less (ordered theory only)", file_params
        ),
        "isdef": (
            _cmd_isdef,
            "run every definability decider on an element",
            ("file", _ELEM, _PARAMS),
        ),
        "pointwise": (
            _cmd_pointwise, "pointwise-definability event", ("file", _ELEM, _PARAMS)
        ),
        "dist": (
            _cmd_dist,
            "distance between two elements or two events",
            ("file", "x", "y"),
        ),
        "glue": (
            _cmd_glue,
            "combine two elements along an event",
            ("file", "a", "b", "event"),
        ),
        "witness": (
            _cmd_witness,
            "deterministic witness for a formula",
            ("file", "formula", "var"),
        ),
        "check": (
            _cmd_check, "run the cross-check suite on one instance", ("file", _SEED)
        ),
        "fuzz": (
            _cmd_fuzz,
            "random instances through every cross-check",
            (("--count", {"type": int, "default": 100}), _SEED),
        ),
    }


def build_parser():
    """The argparse parser, which reads every argv that _plain_args does
    not: help, usage and error messages are argparse's."""
    import argparse

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
    for name, (handler, help_text, arguments) in _commands().items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain argv, read from _commands() without
    argparse, whose import and parser cost a few ms per request; None for
    any other argv, which the parser then reads, so every help, usage and
    error message is argparse's.

    Plain is an optional leading ``--format text|structured``, a command
    name and exactly the command's positionals (PARAM any number of
    times), none of which starts with '-'; among them ``--seed N`` or
    ``--count N`` where the command takes it, with N not starting with '-'
    and read by int(), as argparse reads it.
    """
    fmt = "text"
    if argv[:1] == ["--format"] and argv[1:2] in (["text"], ["structured"]):
        fmt, argv = argv[1], argv[2:]
    commands = _commands()
    if not argv or argv[0] not in commands:
        return None
    handler, _, arguments = commands[argv[0]]
    args = {"format": fmt, "command": argv[0], "handler": handler}
    flags, names, repeated, words = {}, [], None, []
    for arg in arguments:
        name, options = (arg, {}) if isinstance(arg, str) else arg
        if name.startswith("--"):
            flags[name] = options["type"]
            args[name[2:]] = options["default"]
        elif options.get("nargs") == "*":
            repeated = name
        else:
            names.append(name)
    rest = iter(argv[1:])
    for word in rest:
        if word in flags:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                args[word[2:]] = flags[word](value)
            except ValueError:
                return None
        elif word.startswith("-"):
            return None
        else:
            words.append(word)
    if len(words) < len(names) or (repeated is None and len(words) > len(names)):
        return None
    args.update(zip(names, words))
    if repeated is not None:
        args[repeated] = words[len(names) :]
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
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


def run() -> None:
    """The randcl program (``python -m randcl.cli``, the ``randcl``
    script): main on sys.argv, then exit with its code.  Every object still
    alive is frozen first (gc.freeze), so the collections the interpreter
    runs as it shuts down skip them and the operating system takes back
    their memory, which is a sizeable share of a short request's time.
    Output is flushed and exit handlers run as before."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
