"""verify all in two processes: the forked run, its gate and its fallback."""

import errno
import json
import logging
import os
import signal
import threading

import pytest

import heisenberg_cmc.verify as verify


def _serial(seed, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_usable_cpus", lambda: 1)
        return json.dumps(verify.run_suite("all", seed))


def _counted_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_forked_all_is_the_serial_report(seed, monkeypatch):
    serial = _serial(seed, monkeypatch)
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    forked = verify.run_suite("all", seed)
    assert forks == [os.getpid()]
    assert json.dumps(forked) == serial
    assert forked["passed"]


def test_single_suites_and_one_cpu_never_fork(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    for suite in verify.SUITES[:-1]:
        assert verify.run_suite(suite, 1)["passed"], suite
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    assert verify.run_suite("curvature", 1)["passed"]
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    assert verify.run_suite("all", 1)["passed"]


def test_a_second_thread_keeps_all_serial(monkeypatch):
    def refuse():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert verify.run_suite("all", 1)["passed"]
    finally:
        release.set()
        waiter.join()


def test_the_gate_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert verify._usable_cpus() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert verify._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify._usable_cpus() == 1


def _exit_1():
    os._exit(1)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_0_unwritten():
    os._exit(0)


@pytest.mark.parametrize("die, cause", [
    (_exit_1, "ChildProcessError: exit code 1"),
    (_killed, f"ChildProcessError: exit code {-signal.SIGKILL}"),
    (_exit_0_unwritten, "EOFError"),
], ids=["exit-1", "killed", "short-read"])
def test_a_dead_worker_leaves_the_serial_report(die, cause, monkeypatch,
                                                caplog):
    serial = _serial(2, monkeypatch)
    parent = os.getpid()
    body = verify._SUITE_BODIES["classification"]

    def dies_in_the_worker(checks, rng, solved):
        if os.getpid() != parent:
            die()
        body(checks, rng, solved)

    monkeypatch.setitem(verify._SUITE_BODIES, "classification",
                        dies_in_the_worker)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    with caplog.at_level(logging.INFO, logger="heisenberg_cmc"):
        report = verify.run_suite("all", 2)
    assert forks == [parent]
    assert json.dumps(report) == serial
    fallbacks = [rec.getMessage() for rec in caplog.records
                 if rec.module == "verify"]
    assert len(fallbacks) == 1
    assert fallbacks[0].startswith("verify worker delivered nothing")
    assert cause in fallbacks[0]
    # the worker was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_leaves_the_serial_report(monkeypatch, caplog):
    serial = _serial(4, monkeypatch)

    def refuse():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    with caplog.at_level(logging.INFO, logger="heisenberg_cmc"):
        assert json.dumps(verify.run_suite("all", 4)) == serial
    assert [rec.getMessage() for rec in caplog.records
            if rec.module == "verify"] == [
        f"verify worker delivered nothing (BlockingIOError: [Errno "
        f"{errno.EAGAIN}] Resource temporarily unavailable); running "
        "curvature, classification, measures in this process"]


def test_an_ignored_sigchld_leaves_the_serial_report(monkeypatch, caplog):
    # the kernel reaps the worker itself, so waitpid finds no child
    serial = _serial(1, monkeypatch)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with caplog.at_level(logging.INFO, logger="heisenberg_cmc"):
            report = verify.run_suite("all", 1)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert json.dumps(report) == serial
    assert [rec.getMessage() for rec in caplog.records
            if rec.module == "verify"] == [
        "verify worker delivered nothing (ChildProcessError: reaped "
        "elsewhere); running curvature, classification, measures in this "
        "process"]
