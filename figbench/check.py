"""Output checks for figure rows, counted in (cell, seed) units.

At the reference seed every row must equal the recorded figure
exactly.  At any seed every point must average the full task-set
count with zero deadline misses, and every later sample of a cell
(another timing sample, or a warm-cache re-run) must return the rows
its first sample returned.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable


def load_reference(path: Path) -> list[dict]:
    """The ``rows`` of a figure written by ``repro run``."""
    return json.loads(Path(path).read_text())["rows"]


class OutputCheck:
    """Accumulates pass/fail over every sample a run takes."""

    def __init__(self, n_tasksets: int,
                 reference: list[dict] | None = None) -> None:
        self.n_tasksets = n_tasksets
        self.reference = None
        if reference is not None:
            self.reference = {}
            for row in reference:
                self.reference.setdefault(float(row["x"]), []).append(row)
        self.first: dict[float, list[dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, xs: Iterable[float], rows: list[dict]) -> bool:
        """Check one sample that computed the cells *xs*.

        Returns whether every cell passed; a failing cell counts all
        its task sets as failed units.
        """
        by_x: dict[float, list[dict]] = {}
        for row in rows:
            by_x.setdefault(float(row["x"]), []).append(row)
        ok = True
        for x in map(float, xs):
            self.attempted += self.n_tasksets
            problem = self._cell_problem(x, by_x.pop(x, []))
            if problem is not None:
                ok = False
                self.failed += self.n_tasksets
                self.problems.append(f"x={x:g}: {problem}")
        if by_x:
            ok = False
            self.problems.append(f"unexpected cells {sorted(by_x)}")
        return ok

    def _cell_problem(self, x: float, rows: list[dict]) -> str | None:
        rows = sorted(rows, key=lambda row: row["series"])
        if not rows:
            return "no rows"
        for row in rows:
            if row.get("count") != self.n_tasksets:
                return (f"{row['series']}: count {row.get('count')} "
                        f"!= {self.n_tasksets}")
            if row.get("misses") != 0:
                return f"{row['series']}: {row.get('misses')} misses"
        if self.reference is not None:
            expected = sorted(self.reference.get(x, []),
                              key=lambda row: row["series"])
            if rows != expected:
                return "rows differ from the reference figure"
        first = self.first.setdefault(x, rows)
        if rows != first:
            return "rows differ from this cell's first sample"
        return None
