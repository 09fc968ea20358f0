"""In-memory spans and their self times.

A span is (layer, parent span, start, end).  Spans are appended to
flat arrays while the traced code runs and only summarised afterwards,
so tracing does no I/O and little allocation on the hot path.  A
span's self time is its duration minus the time its child spans
cover; summed over every span under a root, self times telescope to
the root's duration exactly.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict


class Tracer:
    """Records nested spans for one process; forked children record none."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        # A forked pool worker inherits the wrapped layers; its spans
        # would die with it, so it records nothing at all.
        self.begin = lambda lid: -1
        self.finish = lambda idx, lid=None: None
        self.count = lambda name, n=1: None
        self.reset()

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
        return lid

    def begin(self, lid: int) -> int:
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int, lid: int | None = None) -> None:
        """End span *idx*; *lid* re-labels it once its kind is known."""
        self.end[idx] = self.clock()
        self.stack.pop()
        if lid is not None:
            self.layer[idx] = lid

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def reset(self) -> None:
        """Drop every span and counter (between samples)."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters.clear()

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{layer: (spans, self seconds)}`` over the recorded spans."""
        n = len(self.layer)
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.layer[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - cover[i]
        return {name: (calls, self_s)
                for name, (calls, self_s) in totals.items()}

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.layer)) if self.parent[i] < 0)

    def top_level(self, prefix: str) -> int:
        """Spans of layers named *prefix*... not nested in another such."""
        flags = [self.names[lid].startswith(prefix) for lid in self.layer]
        return sum(1 for i, flag in enumerate(flags)
                   if flag and not (self.parent[i] >= 0
                                    and flags[self.parent[i]]))
