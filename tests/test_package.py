from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import randcl
from randcl.cli import _commands, _plain_args, main
from randcl.usage import build_parser

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


_PACKAGE = Path(randcl.__file__).resolve().parent


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_every_imported_name_is_read(module):
    # no linter runs on the package: an import left behind when code moves
    # costs every request that loads the module
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    assert sorted(imported - read) == []


# the per-object caches the package keeps, each documented where it is
# set: formula's free variables and quantifier-free form of a node, and a
# Randomization's last type rows
_MEMOS = [("formula", "_free"), ("formula", "_qf"), ("randvar", "_last_type_rows")]


def test_no_hidden_per_object_caches():
    # a record's fields are set in its __init__; a _set anywhere else fills
    # a cache on an object after it is built, so it must be one of _MEMOS
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        outside = set(ast.walk(tree)) - {
            n
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            for n in ast.walk(f)
        }
        found += [
            (path.stem, call.args[1].value)
            for call in outside
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "_set"
            and isinstance(call.args[1], ast.Constant)
        ]
    assert sorted(found) == sorted(_MEMOS)


def _stdout_writers(tree: ast.Module) -> set[str]:
    """The top-level definitions of a module (its body: "<module>") that
    write to stdout: a print with no file or with file=sys.stdout, or any
    use of sys.stdout but its flush."""
    writers = set()
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        texts = [ast.unparse(n) for n in ast.walk(top) if isinstance(n, ast.expr)]
        prints = [
            n for n in ast.walk(top)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "print"
            and not any(k.arg == "file" for k in n.keywords)
        ]
        if prints or texts.count("sys.stdout") > texts.count("sys.stdout.flush"):
            writers.add(where)
    return writers


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")))
def test_only_cli_emit_writes_to_stdout(module):
    # every handler returns its answer and main has _emit print it, so a
    # closed stdout is met in one place and a library call prints nothing
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    assert _stdout_writers(tree) == ({"_emit"} if module == "cli" else set())


def _env(**overrides: str | None) -> dict[str, str]:
    """This process's environment, with the package on PYTHONPATH and each
    override set, or removed where it is None."""
    src = str(Path(randcl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, text=True
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
        a
        for a in build_parser(_commands())._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(sub.choices) == sorted(REQUESTS)


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_no_request_enumerates_the_isolating_formulas(command, capsys, monkeypatch):
    # isolating_formulas is a test oracle: every request evaluates only
    # the isolating formulas of realized types, one at a time
    def refuse(*args):
        raise AssertionError("isolating_formulas called")

    for mod in (randcl, randcl.checks):
        monkeypatch.setattr(mod, "isolating_formulas", refuse)
    code = main(REQUESTS[command])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


# each request as given, and under structured output, whose payloads
# (_values_payloads, _event_payload, to_payload) only that path builds
ANSWERED = {
    **REQUESTS,
    **{
        f"structured-{command}": ["--format", "structured", *argv]
        for command, argv in REQUESTS.items()
    },
}


@pytest.mark.parametrize("case", sorted(ANSWERED))
def test_every_handler_returns_its_answer(case, capsys):
    # a handler returns (exit code, text lines, payload) and writes
    # nothing: main prints the answer, once, through _emit
    args = _plain_args(ANSWERED[case])
    answer = args.handler(args)
    assert type(answer) is tuple
    assert [type(part) for part in answer] == [int, list, dict]
    code, lines, payload = answer
    assert lines if args.format == "text" else payload
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case", sorted(ANSWERED))
def test_fresh_process_answers_as_in_process(case, capsys):
    # in process every module is loaded already, so a name that a handler
    # forgot to import would fail only for a user's fresh process
    proc = _run(["-m", "randcl.cli", *ANSWERED[case]])
    code = main(ANSWERED[case])
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


# a stdout whose reader has gone: where the close is met first, by a print
# in main (unbuffered, or an answer past the buffer) or by run's flush
CLOSED = {
    "final flush": ({"PYTHONUNBUFFERED": None}, ["dist", SWAP, "a", "b"]),
    "unbuffered": ({"PYTHONUNBUFFERED": "1"}, ["dist", SWAP, "a", "b"]),
    "past the buffer": (
        {"PYTHONUNBUFFERED": None},
        ["--format", "structured", "dcl", "ENUM", "a"],
    ),
    "help": ({"PYTHONUNBUFFERED": None}, ["--help"]),
}


@pytest.mark.parametrize("case", sorted(CLOSED))
def test_a_closed_stdout_exits_120_with_one_line(case, tmp_path):
    # 120 is Python's own code for a failed flush at exit, which no answer
    # uses; the close is the reader's doing, not an engine fault
    overrides, argv = CLOSED[case]
    enum = tmp_path / "enum.json"  # a closure of 900 elements
    atoms = [["w1", "1/2"], ["w2", "1/2"]]
    enum.write_text(json.dumps(
        {"theory": "enum(30)", "atoms": atoms, "elements": {"a": [0, 1]}}
    ))
    argv = [str(enum) if word == "ENUM" else word for word in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "randcl.cli", *argv],
            env=_env(**overrides), stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        120, "error: standard output closed before the answer was written\n"
    )


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
# every request compiles each module it imports, so a subcommand loads
# exactly the modules it runs: the package and these submodules
_EVERY = ("cli", "measure", "randfile", "randvar", "records")
_FORMULA = (*_EVERY, "formula")
_ALGEBRA = (*_EVERY, "algebra")
_CHECKS = (*_FORMULA, "algebra", "checks", "closure", "witnesses")
LOADED = {
    "dist": _EVERY,
    "glue": _EVERY,
    "dclb": _ALGEBRA,
    "dcl": _ALGEBRA,
    "lcl": _ALGEBRA,
    "pointwise": _ALGEBRA,
    "eval": _FORMULA,
    "witness": (*_FORMULA, "witnesses"),
    "isdef": (*_FORMULA, "algebra", "closure"),
    "check": _CHECKS,
    "fuzz": _CHECKS,
}


def test_no_two_modules_share_a_route():
    # two modules that the same subcommands load would compile together on
    # every request that compiles either, so they would be one module
    routes: dict[frozenset[str], list[str]] = {}
    for module in {m for modules in LOADED.values() for m in modules} - set(_EVERY):
        by = frozenset(c for c, modules in LOADED.items() if module in modules)
        routes.setdefault(by, []).append(module)
    assert sorted(sorted(ms) for ms in routes.values() if len(ms) > 1) == []


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_a_request_loads_only_the_modules_it_runs(command):
    out = _fresh(_LOADED, *REQUESTS[command])
    loaded = {m for m in out.splitlines()[-1].split() if m.split(".")[0] == "randcl"}
    assert loaded == {"randcl", *(f"randcl.{m}" for m in LOADED[command])}


def _source_lines(module: str) -> int:
    package = Path(randcl.__file__).resolve().parent
    return len((package / f"{module}.py").read_text().splitlines())


def _readme_loaded_lines() -> dict[str, int]:
    """subcommand -> the lines column of README's table of the modules
    each subcommand loads."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Where a request's time goes"):]
    table = section[section.index("| subcommands |"):].split("\n\n")[0]
    lines = {}
    for row in table.splitlines()[2:]:
        commands, _, count, _ = row.strip("|").split("|")
        for command in re.findall(r"`([a-z]+)`", commands):
            lines[command] = int(count)
    return lines


def test_readme_gives_the_lines_each_subcommand_loads():
    # the table's lines column, recomputed from LOADED: the package's
    # __init__ and each submodule a request of the command loads
    want = {
        command: _source_lines("__init__") + sum(map(_source_lines, modules))
        for command, modules in LOADED.items()
    }
    assert _readme_loaded_lines() == want


def test_readme_module_list_names_every_module_once():
    # README's module map: one "- `name.py` —" entry per source file
    text = (ROOT / "README.md").read_text()
    listed = re.findall(r"^- `(\w+)\.py` —", text, re.M)
    package = Path(randcl.__file__).resolve().parent
    assert sorted(listed) == sorted(p.stem for p in package.glob("*.py"))


@pytest.mark.parametrize("command", ["check", "help"])
def test_the_program_does_not_import_cli_again(command):
    # python -m randcl.cli runs cli as __main__, so a module that imported
    # randcl.cli would compile it a second time; run() leaves through
    # os._exit, which here raises SystemExit so the check can follow
    code = (
        "import os, runpy, sys\n"
        "def _exit(code):\n"
        "    raise SystemExit(code)\n"
        "os._exit = _exit\n"
        "try:\n"
        "    runpy.run_module('randcl.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('randcl.cli' in sys.modules)\n"
    )
    argv = ["--help"] if command == "help" else REQUESTS[command]
    assert _fresh(code, *argv).splitlines()[-1] == "False"


# argparse's import, with gettext, and its parser, which imports locale,
# cost a few ms per request: a plain argv is read without them
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("command", ["eval", "isdef", "fuzz"])
def test_a_plain_request_loads_no_parser(command):
    out = _fresh(_LOADED, *REQUESTS[command])
    assert PARSER_MODULES.isdisjoint(out.splitlines()[-1].split())


def test_a_fuzz_request_loads_no_multiprocessing_or_pickle():
    # fuzz forks its workers itself: importing multiprocessing, or pickle,
    # would cost a request more than its workers save
    out = _fresh(_LOADED, "fuzz", "--count", "4", "--seed", "1")
    assert {"multiprocessing", "pickle"}.isdisjoint(out.splitlines()[-1].split())


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
        "print(randcl.definable_closure is randcl.algebra.definable_closure)\n"
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
