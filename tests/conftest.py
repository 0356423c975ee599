"""Keeps tests/ importable (oracles.py) under pytest's default import mode,
and holds fixtures shared across test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def recording_executor(monkeypatch):
    """Stand-in for ProcessPoolExecutor that runs submitted work in this
    process; returns the list of worker counts it was asked for."""
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return started
