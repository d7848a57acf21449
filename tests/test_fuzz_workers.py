"""fuzz on forked workers answers exactly as fuzz in one process.

run_fuzz runs its instances on one worker per usable CPU.  Each test runs
the fuzz subcommand in process with the CPU count patched to 1, which
runs the plain loop, and to 3, which forks two children on any machine,
and compares stdout, stderr and the exit code.  A check added to the
suite forces a failure, an error or a killed worker on chosen instances;
with three workers, instance i runs in the parent when i % 3 is 0 and in
a child otherwise.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
import time

import pytest

from randcl import checks
from randcl.cli import main

COUNT = 7  # uneven shares: instances 0, 3, 6 | 1, 4 | 2, 5

# the instances of the current run, in the order drawn: the children are
# forked before the first draw, so each process records the run's
# instances itself, and instance i is DRAWN[i] in every process
DRAWN: list = []


def _open_fds() -> list[str] | None:
    """The file descriptors this process holds; None without /proc."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture(autouse=True)
def no_child_left():
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _fuzz(
    capsys, monkeypatch, cpus: int, seed: int, fmt: str = "text", count: int = COUNT
):
    """fuzz's exit code, stdout and stderr with cpus usable CPUs."""
    monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
    DRAWN.clear()
    code = main(["--format", fmt, "fuzz", "--count", str(count), "--seed", str(seed)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _both(capsys, monkeypatch, seed: int, fmt: str = "text", count: int = COUNT):
    """The answer in one process and on three workers, which must agree."""
    alone = _fuzz(capsys, monkeypatch, 1, seed, fmt, count)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    workers = _fuzz(capsys, monkeypatch, 3, seed, fmt, count)
    assert len(forks) == 2
    assert workers == alone
    return alone


def _add_check(monkeypatch, act) -> None:
    """Run act(i) as one more check, "forced", on instance i of each run."""
    DRAWN.clear()
    draw = checks.random_instance

    def recorded(rng, kind=None):
        DRAWN.append(draw(rng, kind))
        return DRAWN[-1]

    def extra(r, rng):
        return act(next(i for i, d in enumerate(DRAWN) if d is r))

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


def test_a_worker_killed_after_a_result_names_the_instance_it_died_on(
    capsys, monkeypatch
):
    # instance 2's result arrives from the second child, which dies on
    # instance 5, its next one
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


def test_results_larger_than_a_pipe_answer_as_one_process(capsys, monkeypatch):
    # 8 KB of detail on each instance: each child's nine instances send
    # more through its pipe than the 64 KB a Linux pipe holds, and the
    # parent dawdles on its first instance, so a child that runs ahead
    # blocks on its full pipe until the parent reads its records
    parent = os.getpid()

    def act(i):
        if i == 0 and os.getpid() == parent:
            time.sleep(0.3)
        return f"{i:04d}" * 2048

    def late(signum, frame):
        raise TimeoutError("fuzz did not finish in time")

    _add_check(monkeypatch, act)
    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)  # a deadlock fails the test instead of hanging it
    try:
        code, out, err = _both(capsys, monkeypatch, 6, count=27)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "0/27 instances passed all cross-checks"
    assert lines[:-1] == [
        f"instance {i}: FAIL forced: " + f"{i:04d}" * 2048 for i in range(27)
    ]


def test_fuzz_draws_each_instance_as_it_runs_it(monkeypatch):
    # run_fuzz holds one instance at a time, so its memory does not grow
    # with the count; drawing ahead of the results fails here
    drawn = []
    yielded = []
    draw = checks.random_instance

    def counted(rng, kind=None):
        if len(drawn) > len(yielded):
            raise AssertionError("fuzz drew an instance before yielding the last")
        drawn.append(None)
        return draw(rng, kind)

    monkeypatch.setattr(checks, "random_instance", counted)
    monkeypatch.setattr(checks, "_SUITE", ())
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    for inst, results in checks.run_fuzz(10**9, 0):
        assert results == [] and len(drawn) == len(yielded) + 1
        yielded.append(inst)
        if len(yielded) == 100:
            break
    assert len(drawn) == 100


def test_a_failed_fork_is_an_internal_error(capsys, monkeypatch):
    # the first child is forked, the second fork fails: its pipe is
    # closed, and the first child stops and is reaped before the error
    # reaches the caller
    fork = os.fork
    forks = []

    def failing():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    code, out, err = _fuzz(capsys, monkeypatch, 3, 1)
    assert len(forks) == 2
    assert (code, out) == (3, "")
    assert err == (
        f"error: internal: OSError: [Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n"
    )


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
