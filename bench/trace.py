"""Spans around the program's public calls, recorded from the benchmark side.

A span is (name, start, end, parent).  Spans are kept in memory and reduced
to per-layer figures when the run ends.  Only a traced run wraps anything:
an untraced run calls the program directly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans while ``active``; wrapped calls made while inactive are not recorded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _root(self, index: int) -> str:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return self.spans[index][0]

    def layer_figures(self, searches: frozenset) -> dict:
        """Per-unit figures: for each span name, its inclusive time ``<name>_s``
        and its count ``<name>_calls``, divided by the number of root spans
        (set-ups or operations) it ran under; and ``<layer>.search_self_s``,
        the self time of the search spans named in ``searches``.  Self time is
        a span's duration minus the time its children cover."""
        units: dict[str, int] = {}
        for name, _, _, parent in self.spans:
            if parent is None:
                units[name] = units.get(name, 0) + 1
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple, float] = {}  # (metric, root name) -> sum over the run

        def add(key, root, value):
            totals[key, root] = totals.get((key, root), 0) + value

        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                continue
            root = self._root(i)
            add(name + "_s", root, end - start)
            add(name + "_calls", root, 1)
            if name in searches:
                add(name.split(".")[0] + ".search_self_s", root, end - start - child_time[i])
        out: dict[str, float] = {}
        for (key, root), total in totals.items():
            out[key] = out.get(key, 0.0) + total / units[root]
        return out
