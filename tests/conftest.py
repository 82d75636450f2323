import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host has, so the bulk writers take their
    pooled path; yields the pids of the workers they fork, and checks at
    teardown that every one of them has been reaped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
