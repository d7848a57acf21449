"""Byte-identical output: benchmark requests replayed against frozen digests.

The benchmark under ``perfbench/`` checks every answer against the SHA-256
of (exit code, stdout) frozen in ``perfbench/digests.json``.  This test
builds the ``main`` pools with ``perfbench/workloads.py`` (imported from
its file, read only), replays every ``deep`` and ``wide`` request, every
``fuzz`` ``check`` request and the first ``fuzz`` stratum in-process
through ``cli.main``, and compares the digests, so a change to the engine
that alters any of those answers fails tier-1.  The ``heldout`` pools of
``deep`` and ``wide`` are replayed the same way.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from randcl import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[name]


def _replayed(pool, workload: str) -> list:
    if workload != "fuzz":
        return [req for req in pool.requests() if not req.probe]
    first_fuzz = next(st for st in pool.strata if st[0].kind == "fuzz")
    checks = [req for st in pool.strata for req in st if req.kind == "check"]
    return first_fuzz + checks


def _replay(workloads, workload: str, pool_name: str, tmp_path, capsys) -> None:
    pool = workloads.build(workload, pool_name)
    frozen = json.loads((PERFBENCH / "digests.json").read_text())[workload][pool_name]
    workloads.write_instances(pool, tmp_path)
    requests = _replayed(pool, workload)
    assert requests
    mismatched = []
    for req in requests:
        capsys.readouterr()
        code = cli.main(list(req.args))
        out = capsys.readouterr().out.encode()
        got = hashlib.sha256(f"{code}\n".encode() + out).hexdigest()
        if got != frozen[req.rid]:
            mismatched.append(req.rid)
    assert not mismatched, f"{len(mismatched)} of {len(requests)} answers changed"


@pytest.mark.parametrize("workload", ["deep", "wide", "fuzz"])
def test_answers_match_frozen_digests(
    workloads, workload, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    _replay(workloads, workload, "main", tmp_path, capsys)


@pytest.mark.parametrize("workload", ["deep", "wide"])
def test_heldout_answers_match_frozen_digests(
    workloads, workload, tmp_path, monkeypatch, capsys
):
    # the pool kept for checking claims on inputs not used while tuning
    monkeypatch.chdir(tmp_path)
    _replay(workloads, workload, "heldout", tmp_path, capsys)
