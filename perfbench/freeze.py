"""Freeze the answer digests the benchmark checks against.

    python3 perfbench/freeze.py

Runs every request of every workload's pools once (probes excepted) on
the engine under ``src/`` and writes the SHA-256 of each request's exit
code and standard output to ``perfbench/digests.json``.  Run it only on
the commit whose answers are the reference.  The file is written once,
after every request has passed its exit-code rules; a run that meets a
failing request writes nothing.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def freeze(workload: str, pool_name: str) -> dict[str, str]:
    pool = workloads.build(workload, pool_name)
    work_parent = run.ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        workloads.write_instances(pool, workdir)
        runner = run.Runner(workdir, cap=120.0)
        digests = {}
        for req in pool.requests():
            if req.probe:
                continue
            o = runner.run(req)
            error = run.answer_error(o, {req.rid: run.digest(o.code, o.out)}) if (
                o.code is not None) else "time cap"
            if error is None and req.reference:
                error = run.reference_error(o, pool.instances)
            print(f"{o.latency * 1000:8.0f} ms  {req.rid}" + (f"  {error}" if error else ""),
                  flush=True)
            if error:
                raise SystemExit(f"{req.rid}: {error}; digests not written")
            digests[req.rid] = run.digest(o.code, o.out)
        return digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    table = {
        workload: {pool_name: freeze(workload, pool_name)
                   for pool_name in sorted(workloads.POOL_SEEDS)}
        for workload in sorted(workloads.BUILDERS)
    }
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
