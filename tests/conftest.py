"""Fixtures shared by the test modules."""

import os
import signal

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use, as ``taskset`` would, and
    record the pid of every worker forked; returns that list."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        return forked

    return use


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a test still running after 120 s."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
