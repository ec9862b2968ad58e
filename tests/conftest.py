"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks during the test."""
    made, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made
