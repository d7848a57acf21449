from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import randcl
from randcl.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SWAP = str(ROOT / "samples" / "swap_pair.json")


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(randcl.__all__)) == len(randcl.__all__)
    for name in randcl.__all__:
        obj = getattr(randcl, name)
        assert not inspect.ismodule(obj), name


def test_no_unbounded_memo():
    # a long-lived process (a fuzz run, a library user's loop) must keep
    # flat memory, so every memo has a size bound
    unbounded = re.compile(
        r"lru_cache\(\s*(maxsize\s*=\s*)?None\b|@(functools\.)?cache\b"
    )
    package = Path(randcl.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert not unbounded.search(path.read_text()), path.name


def _run(args: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(randcl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every request is a fresh process, so start-up is part of its cost;
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    code = (
        "import sys, randcl.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_typing_or_pathlib():
    # without site, which may load both itself: a request that imports
    # every module a subcommand can run loads neither
    code = (
        "import sys, randcl.cli, randcl.closure, randcl.checks; "
        "print(sorted(m for m in ('typing', 'pathlib') if m in sys.modules))"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_help_exits_zero():
    proc = _run(["-m", "randcl.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: randcl")


def _tracer_spans() -> dict[str, str]:
    """perfbench/tracer.py's SPANS table, read from its source (nothing
    is imported or executed)."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_every_traced_function_name_is_still_defined():
    # the tracer wraps module bindings by function name, so a renamed or
    # deleted function would silently read 0 in its per-layer metric
    defined = set()
    for info in pkgutil.iter_modules(randcl.__path__):
        mod = importlib.import_module(f"randcl.{info.name}")
        for obj in vars(mod).values():
            if callable(obj) and not isinstance(obj, type) and getattr(
                obj, "__module__", ""
            ).startswith("randcl"):
                defined.add(obj.__name__)
    spans = _tracer_spans()
    assert len(spans) > 20
    assert sorted(set(spans) - defined) == []


REQUESTS = {
    "eval": ["eval", SWAP, "a < b"],
    "dclb": ["dclb", SWAP, "a", "b"],
    "dcl": ["dcl", SWAP, "a", "b"],
    "lcl": ["lcl", SWAP, "a", "b"],
    "isdef": ["isdef", SWAP, "hi", "a", "b"],
    "pointwise": ["pointwise", SWAP, "hi", "a", "b"],
    "dist": ["dist", SWAP, "a", "b"],
    "glue": ["glue", SWAP, "a", "b", "w1"],
    "witness": ["witness", SWAP, "a < u & u < b", "u"],
    "check": ["check", SWAP],
    "fuzz": ["fuzz", "--count", "2", "--seed", "1"],
}


def test_requests_cover_every_subcommand():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(sub.choices) == sorted(REQUESTS)


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_no_request_enumerates_the_isolating_formulas(command, capsys, monkeypatch):
    # isolating_formulas is a test oracle: every request evaluates only
    # the isolating formulas of realized types, one at a time
    def refuse(*args):
        raise AssertionError("isolating_formulas called")

    for mod in (randcl, randcl.oracles):
        monkeypatch.setattr(mod, "isolating_formulas", refuse)
    code = main(REQUESTS[command])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_fresh_process_answers_as_in_process(command, capsys):
    # in process every module is loaded already, so a name that a handler
    # forgot to import would fail only for a user's fresh process
    proc = _run(["-m", "randcl.cli", *REQUESTS[command]])
    code = main(REQUESTS[command])
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


# requests that end with another exit code than 0
FAILING = {
    "false verdict": ["isdef", SWAP, "b", "a", "hi"],
    "missing file": ["eval", str(ROOT / "absent.json"), "a < b"],
    "parse error": ["--format", "structured", "eval", SWAP, "a <"],
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_fresh_process_exits_as_in_process(case, capsys):
    # run() exits with main's code, after its output
    proc = _run(["-m", "randcl.cli", *FAILING[case]])
    code = main(FAILING[case])
    captured = capsys.readouterr()
    assert code != 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def _fresh(code: str, *argv: str) -> str:
    """Standard output of a fresh interpreter running code with argv."""
    proc = _run(["-c", code, *argv])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the modules a request loads, printed after its answer
_LOADED = (
    "import sys\n"
    "from randcl.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(*sorted(sys.modules))\n"
)
# every request compiles each module it imports: a subcommand loads only
# the modules it runs
NOT_LOADED = {
    "eval": {"closure", "checks", "oracles"},
    "witness": {"closure", "checks", "oracles"},
    "dist": {"closure", "checks", "oracles"},
    "glue": {"closure", "checks", "oracles"},
    "dclb": {"checks", "oracles"},
    "dcl": {"checks", "oracles"},
    "lcl": {"checks", "oracles"},
    "isdef": {"checks", "oracles"},
    "pointwise": {"checks", "oracles"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_a_request_loads_only_the_modules_it_runs(command):
    out = _fresh(_LOADED, *REQUESTS[command])
    loaded = set(out.splitlines()[-1].split())
    assert "randcl.randvar" in loaded
    assert loaded.isdisjoint(f"randcl.{m}" for m in NOT_LOADED[command])


# argparse's import, with gettext, and its parser, which imports locale,
# cost a few ms per request: a plain argv is read without them
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("command", ["eval", "isdef", "fuzz"])
def test_a_plain_request_loads_no_parser(command):
    out = _fresh(_LOADED, *REQUESTS[command])
    assert PARSER_MODULES.isdisjoint(out.splitlines()[-1].split())


def test_help_still_loads_argparse():
    code = (
        "import sys\n"
        "from randcl.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('argparse' in sys.modules)\n"
    )
    out = _fresh(code)
    assert out.startswith("usage: randcl")
    assert out.splitlines()[-1] == "True"


def test_bare_import_loads_no_submodule():
    code = "import sys, randcl\nprint([m for m in sys.modules if m.startswith('randcl.')])"
    assert _fresh(code) == "[]\n"


def test_every_export_resolves_by_name_and_by_star():
    code = (
        "import randcl\n"
        "for name in randcl.__all__:\n"
        "    exec(f'from randcl import {name}', {})\n"
        "star = {}\n"
        "exec('from randcl import *', star)\n"
        "print(sorted(set(randcl.__all__) - set(star)))\n"
    )
    assert _fresh(code) == "[]\n"


def test_dir_submodules_and_unknown_names():
    code = (
        "import sys, randcl\n"
        "print(sorted(set(randcl.__all__) - set(dir(randcl))))\n"
        "print(randcl.closure is sys.modules['randcl.closure'])\n"
        "print(randcl.definable_closure is randcl.closure.definable_closure)\n"
    )
    assert _fresh(code) == "[]\nTrue\nTrue\n"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        randcl.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from randcl import no_such_name  # noqa: F401


# the largest eval formula of each shape that answers under Python 3.11's
# default recursion limit, as README and cli's docstring give them
FORMULA_LIMITS = {
    "&-conjuncts": (985, lambda k: " & ".join(["a < b"] * k)),
    "nested ~": (984, lambda k: "~" * k + "a < b"),
    "nested parentheses": (492, lambda k: "(" * k + "a < b" + ")" * k),
    "nested quantifiers": (492, lambda k: "exists u. " * k + "a < b"),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the limits are measured on Python 3.11"
)
@pytest.mark.parametrize("shape", sorted(FORMULA_LIMITS))
def test_documented_formula_size_limits(shape):
    size, make = FORMULA_LIMITS[shape]
    answers = _run(["-m", "randcl.cli", "eval", SWAP, make(size)])
    assert (answers.returncode, answers.stderr) == (0, "")
    too_big = _run(["-m", "randcl.cli", "eval", SWAP, make(size + 1)])
    assert (too_big.returncode, too_big.stdout, too_big.stderr) == (
        2, "", "error: input nested too deeply to process\n"
    )
