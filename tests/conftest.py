"""Keeps tests/ importable (oracles.py) under pytest's default import mode,
and holds fixtures shared across test modules."""

import argparse
import concurrent.futures

import pytest

from vbplab.cli import build_parser


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


@pytest.fixture
def command_parsers():
    """Each vbplab command's parser, keyed by its words: ("gen",),
    ("run", "greedy"), ..., ("verify",)."""
    def leaves(words, parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return {words: parser}
        return {
            key: leaf
            for name, child in subs[0].choices.items()
            for key, leaf in leaves(words + (name,), child).items()
        }
    return leaves((), build_parser())
