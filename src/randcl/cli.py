"""Command-line front end: the randcl program.  _commands() lists each
subcommand with its help text and arguments, as ``randcl --help`` shows
them.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error
(including a formula nested past the recursion limit), 3 invariant
violation or internal error, 120 standard output closed before the
answer was written.

The recursion limit bounds a formula's size: under Python 3.11's default
limit, the largest eval formula that answers has 985 &-conjuncts, 984
nested ~, 492 nested parentheses or 492 nested quantifiers; one more
exits 2 with "input nested too deeply to process".
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from .measure import Event, event_dist
from .randfile import _values_payloads, load
from .randvar import RandomElement, Randomization, elem_dist, eval_event, glue

# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(args, lines: list[str], payload: dict) -> None:
    if args.format == "structured":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# Python's own exit code for a failed flush at exit, which no answer uses
_CLOSED = 120


def _stdout_closed() -> int:
    print("error: standard output closed before the answer was written", file=sys.stderr)
    return _CLOSED


def _event_payload(e: Event) -> list[str]:
    names = e.partition.names
    return [names[i] for i in sorted(e.members)]


def _event_output(args, ev: Event) -> tuple[list[str], dict]:
    # the payload lists every member atom: build it only when it is printed
    if args.format == "structured":
        return [], {"event": _event_payload(ev), "probability": str(ev.prob)}
    return [f"{ev}, probability = {ev.prob}"], {}


def _element_output(args, e: RandomElement) -> tuple[list[str], dict]:
    if args.format == "structured":
        return [], {"values": _values_payloads([e])[0]}
    return [str(e)], {}


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
    lines += [f"  {n} = {e}" if n else f"  {e}" for n, e in zip(names, elems)]
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
    from .formula import free_vars

    return {v: v for v in free_vars(f) if v not in skip}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# Each handler returns its exit code, text lines and structured payload,
# and main has _emit, the only writer to stdout, print one of them.  Every
# request is a fresh process that compiles each module it imports, so a
# handler imports the modules only it runs (formula, witnesses, algebra,
# closure, checks): dist and glue load none of them, and eval_event
# imports formula itself.

def _cmd_eval(args) -> tuple[int, list[str], dict]:
    from .formula import parse

    r = load(args.file)
    f = parse(args.formula, r.sig)
    return 0, *_event_output(args, eval_event(r, f, _identity_binding(f)))


def _cmd_dclb(args) -> tuple[int, list[str], dict]:
    from .algebra import fo_event_algebra

    r = load(args.file)
    alg = fo_event_algebra(r, args.params)
    if args.format == "structured":
        return 0, [], {"atoms": [_event_payload(e) for e in alg.atoms]}
    text = f"{len(alg.atoms)} atoms: " + ", ".join(str(e) for e in alg.atoms)
    return 0, [text], {}


def _cmd_closure(args) -> tuple[int, list[str], dict]:
    from .algebra import _resolve_params, definable_closure

    r = load(args.file)
    if args.command == "lcl" and not r.sig.is_dlo:
        _resolve_params(r, args.params)  # a bad parameter is named first
        raise ValueError("if_less closure needs an ordered theory")
    return 0, *_element_lines(r, args, definable_closure(r, args.params))


def _cmd_isdef(args) -> tuple[int, list[str], dict]:
    from .closure import definability_report

    r = load(args.file)
    report = definability_report(r, args.element, args.params)
    lines = [f"{path}: {str(ok).lower()}" for path, ok in report.paths.items()]
    lines.append(f"verdict: {str(report.verdict).lower()}")
    payload = {"paths": report.paths, "verdict": report.verdict, "agree": report.agree}
    if not report.agree:
        print("invariant violation: decider paths disagree", file=sys.stderr)
        return 3, lines, payload
    return 0 if report.verdict else 1, lines, payload


def _cmd_pointwise(args) -> tuple[int, list[str], dict]:
    from .algebra import pointwise_definable_event

    r = load(args.file)
    ev = pointwise_definable_event(r, args.element, args.params)
    return 0 if ev.is_top() else 1, *_event_output(args, ev)


def _cmd_dist(args) -> tuple[int, list[str], dict]:
    r = load(args.file)
    if args.x in r.elements and args.y in r.elements:
        d = elem_dist(r.element(args.x), r.element(args.y))
    else:
        d = event_dist(_parse_event(r, args.x), _parse_event(r, args.y))
    return 0, [str(d)], {"distance": str(d)}


def _cmd_glue(args) -> tuple[int, list[str], dict]:
    r = load(args.file)
    c = glue(r.element(args.a), r.element(args.b), _parse_event(r, args.event))
    return 0, *_element_output(args, c)


def _cmd_witness(args) -> tuple[int, list[str], dict]:
    from .formula import parse
    from .witnesses import witness

    r = load(args.file)
    theta = parse(args.formula, r.sig)
    w = witness(r, theta, args.var, _identity_binding(theta, skip=(args.var,)))
    return 0, *_element_output(args, w)


def _cmd_checks(args) -> tuple[int, list[str], dict]:
    """check and fuzz: their handlers are in checks, with the suite they run."""
    from . import checks

    return getattr(checks, f"_cmd_{args.command}")(args)


# ---------------------------------------------------------------------------
# arguments
# ---------------------------------------------------------------------------

_PARAMS = ("params", {"nargs": "*", "metavar": "PARAM"})
_ELEM = ("element", {"metavar": "ELEM"})
_SEED = ("--seed", {"type": int, "default": 0})


def _commands() -> dict:
    """name -> (handler, help text, arguments in order: a name, or a name
    with add_argument's keywords), which _plain_args and
    usage.build_parser read.  Built on each call, so a handler is looked
    up when the arguments are read."""
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
            _cmd_checks, "run the cross-check suite on one instance", ("file", _SEED)
        ),
        "fuzz": (
            _cmd_checks,
            "random instances through every cross-check",
            (("--count", {"type": int, "default": 100}), _SEED),
        ),
    }


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain argv, read from _commands() without
    argparse, whose import and parser cost a few ms per request; None for
    any other argv, which usage.build_parser's parser then reads, so every
    help, usage and error message is argparse's.

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
        from .usage import build_parser

        args = build_parser(_commands()).parse_args(argv)
    try:
        code, lines, payload = args.handler(args)
        _emit(args, lines, payload)
        return code
    except BrokenPipeError:  # only _emit writes to a pipe
        return _stdout_closed()
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
    script): main on sys.argv, then exit with its code.

    A request frees next to nothing by cycle collection, so the first
    generation's threshold is raised past what any request of the
    benchmark's size allocates: a long fuzz run is still collected every
    100k net allocations.  Once main returns, stdout and stderr are
    flushed and the process leaves through os._exit, skipping the
    interpreter's teardown, whose collections walk every object still
    alive; randcl registers no exit handler.  argparse's exit, after help
    or a usage error, takes the same flush.  A stdout that closed before
    the flush exits 120 with one line, as in main.  Any other flush that
    raises leaves through sys.exit, so the interpreter reports it as it
    always has."""
    gc.set_threshold(100_000)
    try:
        code = main()
    except SystemExit as stop:  # argparse exits with an int status
        code = stop.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        if code != _CLOSED:  # else main has reported it
            code = _stdout_closed()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
