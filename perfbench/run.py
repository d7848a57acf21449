"""Benchmark of the randcl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload {wide,deep,fuzz} --seed N \\
        --seconds S --trace {0,1} [--pool {main,heldout}]

Run from the root of a source checkout; the engine is imported from
``src/``.  A closed loop with one client sends requests one after another,
each a fresh ``python -m randcl.cli ...`` process, and checks every answer
against a digest frozen from the seed commit.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` sends one fixed pass over the
workload's cycle through ``traced_cli.py``, whatever ``--seconds`` says,
and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SEED_SRC_LINES = 3008  # lines of src/**/*.py at the seed commit
EXIT_OK = {"isdef": {0, 1}, "pointwise": {0, 1}}  # every other kind: {0}


@dataclass
class Outcome:
    req: workloads.Request
    code: int | None  # None: killed at the time cap
    out: bytes
    latency: float
    cpu: float  # user plus system seconds of the request process
    rss_mb: float  # its peak resident set size
    summary: dict | None = None  # span summary of a traced request
    error: str | None = None  # why the answer check failed


class Runner:
    """Spawns request processes inside the work directory."""

    def __init__(self, workdir: Path, cap: float):
        self.workdir = workdir
        self.cap = cap
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, req: workloads.Request, traced: bool = False) -> Outcome:
        summary_path = self.workdir / "summary.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary_path)]
            summary_path.unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-m", "randcl.cli"]
        out_path = self.workdir / "stdout"
        reaped: list = []
        with open(out_path, "wb") as out_file:
            start = time.perf_counter()
            proc = subprocess.Popen(argv + list(req.args), cwd=self.workdir, env=self.env,
                                    stdout=out_file, stderr=subprocess.DEVNULL)
            # wait4 reaps the process and returns its own resource usage
            waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
            waiter.start()
            waiter.join(self.cap)
            capped = waiter.is_alive()
            if capped:
                proc.kill()
                waiter.join()
            latency = time.perf_counter() - start
        _, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if capped else proc.returncode
        summary = None
        if traced and code is not None and summary_path.exists():
            summary = json.loads(summary_path.read_text())
        return Outcome(req, code, out_path.read_bytes(), latency,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, summary)


def digest(code: int, out: bytes) -> str:
    return hashlib.sha256(f"{code}\n".encode() + out).hexdigest()


def answer_error(o: Outcome, digests: dict[str, str]) -> str | None:
    """Why the outcome's answer is wrong, or None when it checks out."""
    req = o.req
    if o.code is None:
        return "time cap"
    text = o.out.decode(errors="replace")
    if req.kind == "isdef" and o.code == 3:
        return "deciders disagree (exit 3)"
    if o.code not in EXIT_OK.get(req.kind, {0}):
        return f"exit code {o.code}"
    if req.kind in ("fuzz", "check"):
        last = text.strip().splitlines()[-1] if text.strip() else ""
        passed, _, rest = last.partition("/")
        if not passed.isdigit() or not rest.startswith(passed + " "):
            return f"not every {req.kind} passed: {last!r}"
    if req.probe:
        want = f"verdict: {str(req.verdict).lower()}"
        return None if want in text.splitlines() else f"probe answered without {want!r}"
    if digests.get(req.rid) != digest(o.code, o.out):
        return "answer differs from the frozen digest"
    return None


def reference_error(o: Outcome, instances: dict[str, dict]) -> str | None:
    """Recompute an eval event atom by atom with the region-search
    evaluator and compare it with the printed event and probability."""
    fname, f = o.req.reference
    names, prob = workloads.reference_event(instances[fname], f)
    want = "{" + ",".join(names) + "}" + f", probability = {prob}"
    got = o.out.decode().strip()
    return None if got == want else "event differs from the reference evaluator"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def setup(workload: str, pool_name: str, workdir: Path, seed: int):
    """Build the pool, write its instance files and start the request
    stream; timed as a whole, repeated at least SETUP_REPEATS times and
    for at least SETUP_MIN_S, and the median reported."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        pool = workloads.build(workload, pool_name)
        workloads.write_instances(pool, workdir)
        batches = workloads.rounds(pool, seed)
        times.append(time.perf_counter() - start)
    return pool, batches, statistics.median(times)


def probe_pass(runner: Runner, pool: workloads.Pool, batches) -> list[Outcome]:
    """Send the seeded probe that opens the stream, if the pool has probes.
    It runs before the timed window: its capped time is a harness constant
    that no engine change could move."""
    return [runner.run(req) for req in next(batches)] if pool.probes else []


def timed_pass(runner: Runner, batches, seconds: float) -> tuple[list[Outcome], float]:
    """Untraced pass: whole rounds, ending at the round boundary nearest to
    --seconds, and after one round at the least.  Every run of a commit
    thus sends the same requests."""
    outcomes, round_times = [], []
    start = time.perf_counter()
    for batch in batches:
        elapsed = time.perf_counter() - start
        if round_times and elapsed + statistics.mean(round_times) / 2 >= seconds:
            break
        began = time.perf_counter()
        outcomes += [runner.run(req) for req in batch]
        round_times.append(time.perf_counter() - began)
    return outcomes, time.perf_counter() - start


def check_all(outcomes: list[Outcome], digests: dict, pool: workloads.Pool) -> None:
    """Check every answer; recompute one eval per row with the reference
    evaluator as well."""
    for o in outcomes:
        o.error = answer_error(o, digests)
    rows = set()
    for o in outcomes:
        if o.req.reference and o.error is None and o.req.row not in rows:
            rows.add(o.req.row)
            o.error = reference_error(o, pool.instances)


def unexpected(o: Outcome) -> bool:
    """A failure counted against the run: anything but a probe hitting the cap."""
    return o.error is not None and not (o.req.probe and o.code is None)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest-percentile latency with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 11, 0)
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(outcomes: list[Outcome], wall: float, setup_s: float) -> dict:
    lat = [o.latency for o in outcomes]
    good = sum(1 for o in outcomes if o.error is None)
    tail_s, _, _ = tail(lat)
    return {
        "requests_per_s": good / wall,
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "cpu_ms_per_request": sum(o.cpu for o in outcomes) / len(outcomes) * 1000.0,
        # a process killed at the cap stops at an arbitrary size
        "peak_rss_mb": max(o.rss_mb for o in outcomes if o.code is not None),
        "setup_s": setup_s,
    }


UNITS = {
    "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "cpu_ms_per_request": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}

# per-layer metric -> (unit, source); sources are averaged per traced request
LAYERS = {
    "cli.import_ms": ("ms", "import_ms"),
    "cli.self_ms": ("ms", "self:cli.main"),
    "cli.output_bytes": ("bytes", "output_bytes"),
    "randfile.load_ms": ("ms", "time:randfile.load"),
    "randfile.bytes_read": ("bytes", "count:bytes_read"),
    "formula.parse_ms": ("ms", "time:formula.parse"),
    "formula.nodes": ("count", "count:formula_nodes"),
    "theory.qe_ms": ("ms", "time:theory.qe"),
    "theory.qe_calls": ("count", "count:qe_calls"),
    "theory.qe_cache_hit_ratio": ("ratio", "ratio:qe_hits/qe_calls"),
    "theory.qe_in_nodes": ("count", "count:qe_in_nodes"),
    "theory.qe_out_nodes": ("count", "count:qe_out_nodes"),
    "theory.evaluate_ms": ("ms", "time:theory.evaluate"),
    "theory.isolating_formulas": ("count", "count:isolating_formulas"),
    "theory.eval_direct_ms": ("ms", "time:theory.eval_direct"),
    "randvar.eval_event_ms": ("ms", "time:randvar.eval_event"),
    "randvar.eval_event_calls": ("count", "calls:randvar.eval_event"),
    "randvar.atom_evals": ("count", "count:atom_evals"),
    "randvar.witness_ms": ("ms", "time:randvar.witness"),
    "measure.generated_algebra_ms": ("ms", "time:measure.generated_algebra"),
    "closure.fo_event_algebra_ms": ("ms", "time:closure.fo_event_algebra"),
    "closure.type_groups": ("count", "count:type_groups"),
    "closure.definable_closure_ms": ("ms", "time:closure.definable_closure"),
    "closure.closure_size": ("count", "count:closure_size"),
    "closure.if_less_closure_ms": ("ms", "time:closure.if_less_closure"),
    "closure.pointwise_ms": ("ms", "time:closure.pointwise"),
    "closure.decider.pointwise_algebra_ms": ("ms", "time:closure.decider.pointwise_algebra"),
    "closure.decider.pinning_ms": ("ms", "time:closure.decider.pinning"),
    "closure.decider.piecewise_family_ms": ("ms", "time:closure.decider.piecewise_family"),
    "closure.decider.isolating_events_ms": ("ms", "time:closure.decider.isolating_events"),
    "closure.decider.closure_member_ms": ("ms", "time:closure.decider.closure_member"),
    "closure.bottom_event_ratio":
        ("ratio", "ratio:decider_bottom_events/decider_eval_events"),
    "closure.fo_definable_closure_ms": ("ms", "time:closure.fo_definable_closure"),
    "closure.fo_candidates": ("count", "count:fo_candidates"),
    "closure.fo_accept_ratio": ("ratio", "ratio:fo_accepted/fo_candidates"),
    "checks.run_checks_ms": ("ms", "time:checks.run_checks"),
    "checks.instances": ("count", "calls:checks.run_checks"),
}


def per_layer(traced: list[Outcome]) -> dict:
    """Sum each source over the traced requests; report per request."""
    totals = defaultdict(float)
    for o in traced:
        s = o.summary
        totals["import_ms"] += s["import_ms"]
        totals["output_bytes"] += len(o.out)
        for kind, key in (("time", "time_ms"), ("self", "self_ms"), ("calls", "calls"),
                          ("count", "counters")):
            for name, value in s[key].items():
                totals[f"{kind}:{name}"] += value
        hits, misses = s["qe_cache"] or (0, s["calls"].get("theory.qe", 0))
        totals["count:qe_hits"] += hits
        totals["count:qe_calls"] += hits + misses
    n = max(len(traced), 1)
    out = {}
    for name, (_, source) in LAYERS.items():
        if source.startswith("ratio:"):
            num, den = source[len("ratio:"):].split("/")
            base = totals[f"count:{den}"]
            out[name] = totals[f"count:{num}"] / base if base else 0.0
        else:
            out[name] = totals[source] / n
    return out


def scaling_rows(outcomes: list[Outcome]) -> list[str]:
    rows = defaultdict(list)
    for o in outcomes:
        rows[o.req.row].append(o)
    lines = []
    for row, group in sorted(rows.items()):
        lat = [o.latency * 1000.0 for o in group]
        capped = sum(1 for o in group if o.code is None)
        lines.append(f"  {row:<42} n={len(group):<3} p50={statistics.median(lat):9.1f} ms"
                     f"  max={max(lat):9.1f} ms" + (f"  capped={capped}" if capped else ""))
    return lines


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def metadata(args) -> list[str]:
    lines = src_lines()
    return [
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"git {git_revision()}",
        f"src lines {lines} (net {lines - SEED_SRC_LINES:+d} against the seed commit)",
        f"workload {args.workload}, seed {args.seed}, pool {args.pool} "
        f"(pool seeds: main {workloads.POOL_SEEDS['main']}, "
        f"held-out {workloads.POOL_SEEDS['heldout']})",
    ]


def report_failures(outcomes: list[Outcome]) -> list[str]:
    return [f"  {'FAIL' if unexpected(o) else 'probe'} {o.req.rid}: {o.error}"
            for o in outcomes if o.error]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=sorted(workloads.POOL_SEEDS), default="main",
                    help="instance pool; 'heldout' is kept for checking claims")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "randcl" / "cli.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())[args.workload][args.pool]

    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        pool, batches, setup_s = setup(args.workload, args.pool, workdir, args.seed)
        runner = Runner(workdir, workloads.CAP_S[args.workload])
        for line in metadata(args):
            print(line)
        if args.trace:
            # probes are left out: a process killed at the cap leaves no spans
            start = time.perf_counter()
            traced = [runner.run(req, traced=True)
                      for req in workloads.cycle_pass(pool, args.seed)]
            traced_wall = time.perf_counter() - start
            plain = [runner.run(o.req) for o in traced]
            outcomes = traced + plain
            check_all(outcomes, digests, pool)
            overhead = (sum(o.latency for o in traced) / sum(o.latency for o in plain)
                        - 1.0)
            ok_traced = [o for o in traced if o.summary is not None and o.error is None]
            metrics = per_layer(ok_traced)
            metrics["trace.overhead"] = overhead
            units = {k: u for k, (u, _) in LAYERS.items()} | {"trace.overhead": "ratio"}
            print(f"traced requests {len(traced)} in {traced_wall:.1f} s; overhead "
                  f"{overhead:+.1%} (traced / untraced wall time of the same requests)")
        else:
            probes = probe_pass(runner, pool, batches)
            timed, wall = timed_pass(runner, batches, args.seconds)
            outcomes = probes + timed
            check_all(outcomes, digests, pool)
            metrics = end_to_end(timed, wall, setup_s)
            units = UNITS
            _, pct, n = tail([o.latency for o in timed])
            fail_rate = sum(1 for o in outcomes if o.error) / len(outcomes)
            print(f"requests {len(timed)} in {wall:.1f} s, after {len(probes)} probe(s) "
                  f"outside the timed window; latency_tail_ms is p{pct:.1f} of {n} samples")
            print(f"fail_rate {fail_rate:.4f} (probes {len(probes)}, "
                  f"capped {sum(1 for o in probes if o.code is None)})")
            print("latency by request kind and size rung:")
            for line in scaling_rows(outcomes):
                print(line)
        for line in report_failures(outcomes):
            print(line)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        result = {
            "correct": not any(o.error and o.code is not None for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if unexpected(o)),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run still has its directory there


if __name__ == "__main__":
    sys.exit(main())
