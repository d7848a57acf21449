"""fuzz on forked workers answers exactly as fuzz in one process.

run_fuzz deals its instances over one forked worker per usable CPU.  Each
test runs the fuzz subcommand in process with the CPU count patched to 1,
which runs the plain loop, and to 3, which forks two children on any
machine, and compares stdout, stderr and the exit code.  A check added to
the suite forces a failure, an error or a killed worker on chosen
instances; with three workers, instance i runs in the parent when i % 3
is 0 and in a child otherwise.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from randcl import checks
from randcl.cli import main

COUNT = 7  # uneven shares: instances 0, 3, 6 | 1, 4 | 2, 5


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fuzz(capsys, monkeypatch, cpus: int, seed: int, fmt: str = "text"):
    """fuzz's exit code, stdout and stderr with cpus usable CPUs."""
    monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
    code = main(["--format", fmt, "fuzz", "--count", str(COUNT), "--seed", str(seed)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _both(capsys, monkeypatch, seed: int, fmt: str = "text"):
    """The answer in one process and on three workers, which must agree."""
    alone = _fuzz(capsys, monkeypatch, 1, seed, fmt)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    workers = _fuzz(capsys, monkeypatch, 3, seed, fmt)
    assert len(forks) == 2
    assert workers == alone
    return alone


def _add_check(monkeypatch, act) -> None:
    """Run act(i) as one more check, "forced", on instance i of each run;
    the instances of every run are recorded in the order drawn."""
    drawn = []
    draw = checks.random_instance

    def recorded(rng, kind=None):
        drawn.append(draw(rng, kind))
        return drawn[-1]

    def extra(r, rng):
        # forked children share the parent's objects, so identity holds
        return act(next(i for i, d in enumerate(drawn) if d is r) % COUNT)

    monkeypatch.setattr(checks, "random_instance", recorded)
    monkeypatch.setattr(checks, "_SUITE", (*checks._SUITE, ("forced", extra)))


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_workers_answer_as_one_process(capsys, monkeypatch, seed, fmt):
    code, out, err = _both(capsys, monkeypatch, seed, fmt)
    assert code == 0 and err == ""
    assert out


def test_a_failure_in_a_child_is_reported_in_order(capsys, monkeypatch):
    _add_check(monkeypatch, lambda i: f"forced on {i}" if i in (1, 5) else "")
    code, out, err = _both(capsys, monkeypatch, 3)
    assert code == 3 and err == ""
    assert out.splitlines() == [
        "instance 1: FAIL forced: forced on 1",
        "instance 5: FAIL forced: forced on 5",
        f"{COUNT - 2}/{COUNT} instances passed all cross-checks",
    ]


class Oops(Exception):
    pass


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (ValueError, 2, "error: bad instance {i}"),
        (RuntimeError, 3, "error: internal: RuntimeError: bad instance {i}"),
        (KeyError, 3, "error: internal: KeyError: 'bad instance {i}'"),
        (Oops, 3, "error: internal: Oops: bad instance {i}"),
    ],
)
@pytest.mark.parametrize("raising", [(1,), (3,), (2, 3), (4, 2), (1, 5)])
def test_the_first_error_in_order_is_reported(capsys, monkeypatch, exc, code, line, raising):
    def act(i):
        if i in raising:
            raise exc(f"bad instance {i}")
        return ""

    _add_check(monkeypatch, act)
    got = _both(capsys, monkeypatch, 4)
    assert got == (code, "", line.format(i=min(raising)) + "\n")


@pytest.mark.parametrize("exc", [Oops, KeyError])
def test_an_error_in_a_child_reaches_the_caller_as_itself(monkeypatch, exc):
    def act(i):
        if i == 5:  # the second child's
            raise exc(f"bad instance {i}")
        return ""

    _add_check(monkeypatch, act)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 3)
    with pytest.raises(exc) as info:
        list(checks.run_fuzz(COUNT, 4))
    assert type(info.value) is exc
    assert info.value.args == ("bad instance 5",)


def _killed_worker(capsys, monkeypatch, killed: int):
    """fuzz's answer when the worker of instance killed dies on it."""
    parent = os.getpid()

    def act(i):
        if i == killed and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return ""

    _add_check(monkeypatch, act)
    return _fuzz(capsys, monkeypatch, 3, 2)


def test_a_killed_worker_is_an_internal_error(capsys, monkeypatch):
    assert _killed_worker(capsys, monkeypatch, 2) == (
        3,
        "",
        "error: internal: RuntimeError: the worker of fuzz instance 2 "
        "ended without a result\n",
    )


def test_a_killed_worker_in_a_later_batch_names_its_instance(capsys, monkeypatch):
    # one instance per worker and batch: instance 5 is the last of the
    # second batch, and the error names it by its place in the whole run
    monkeypatch.setattr(checks, "_BATCH", 1)
    assert _killed_worker(capsys, monkeypatch, 5) == (
        3,
        "",
        "error: internal: RuntimeError: the worker of fuzz instance 5 "
        "ended without a result\n",
    )


def test_an_error_only_a_child_raises_is_an_internal_error(capsys, monkeypatch):
    # the parent runs the job again to raise its error; when it does not
    # raise there, no result exists for it
    parent = os.getpid()

    def act(i):
        if i == 1 and os.getpid() != parent:
            raise ValueError("only in a child")
        return ""

    _add_check(monkeypatch, act)
    got = _fuzz(capsys, monkeypatch, 3, 2)
    assert got == (
        3,
        "",
        "error: internal: RuntimeError: the worker of fuzz instance 1 "
        "ended without a result\n",
    )


def test_batches_answer_as_one_batch(capsys, monkeypatch):
    # one instance per worker and batch: batches of 3, 3 and 1 instances
    _add_check(monkeypatch, lambda i: f"forced on {i}" if i in (1, 5) else "")
    alone = _fuzz(capsys, monkeypatch, 1, 3)
    monkeypatch.setattr(checks, "_BATCH", 1)
    assert _fuzz(capsys, monkeypatch, 3, 3) == alone


def test_fuzz_draws_its_instances_one_batch_at_a_time(monkeypatch):
    # run_fuzz holds one batch of instances at a time, so its memory does
    # not grow with the count; drawing them all up front fails fast here
    drawn = []
    draw = checks.random_instance

    def counted(rng, kind=None):
        drawn.append(None)
        if len(drawn) > 3 * checks._BATCH:
            raise AssertionError("fuzz drew past its first batches")
        return draw(rng, kind)

    monkeypatch.setattr(checks, "random_instance", counted)
    monkeypatch.setattr(checks, "_SUITE", ())
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    inst, results = next(checks.run_fuzz(10**9, 0))
    assert results == [] and len(drawn) <= checks._BATCH


def test_without_fork_the_run_stays_in_process(capsys, monkeypatch):
    alone = _fuzz(capsys, monkeypatch, 1, 9)
    monkeypatch.delattr(os, "fork")
    assert checks._workers(COUNT) == 1
    assert _fuzz(capsys, monkeypatch, 3, 9) == alone


def test_a_process_with_threads_does_not_fork(monkeypatch):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 3)
    assert checks._workers(COUNT) == 3
    assert checks._workers(2) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert checks._workers(COUNT) == 1
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
