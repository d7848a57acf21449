from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import randcl


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


def test_cli_help_exits_zero():
    proc = _run(["-m", "randcl.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: randcl")
