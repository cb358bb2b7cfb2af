"""Stubs shared by the serving and observability tests."""

from __future__ import annotations

import threading
import time

import numpy as np


class GatedScorer:
    """Duck-typed scorer whose ``score_rows`` waits while ``gate`` is
    clear, holding a scoring lane busy on demand.

    It delegates to ``inner``; without one it flags nothing (one False
    column per row), which is all a bare ``_MicroBatcher`` needs.
    """

    def __init__(self, inner=None) -> None:
        self._inner = inner
        self.gate = threading.Event()
        self.gate.set()

    def score_rows(self, rows, **kwargs):
        assert self.gate.wait(30)
        if self._inner is None:
            return np.zeros((len(rows), 1), dtype=bool)
        return self._inner.score_rows(rows, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def wait_until(predicate, timeout_s: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)
