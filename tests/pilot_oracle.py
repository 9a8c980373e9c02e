"""Per-unit reference for the pilot agent timeline.

`OracleTimeline` places every unit with one heap step, first-free node
first, ties to the lower node; `AgentTimeline`, which places runs of
units in numpy steps, must agree with it record for record.
"""

from __future__ import annotations

import heapq

from backfillsim import OverheadModel, Unit
from backfillsim.pilot import DONE, INCOMPLETE


class OracleTimeline:
    def __init__(self, nodes: int, walltime: float, overheads: OverheadModel):
        self.walltime = float(walltime)
        self.overheads = overheads
        self.ready_at = overheads.bootstrap_s
        self._dispatch_cursor = self.ready_at
        self._free = [(self.ready_at, i) for i in range(nodes)]
        heapq.heapify(self._free)
        self.units: list[Unit] = []

    @property
    def units_cut(self) -> int:
        return sum(1 for u in self.units if u.state == INCOMPLETE)

    def next_start(self) -> float:
        o = self.overheads
        return (max(self._free[0][0], self._dispatch_cursor + o.dispatch_per_unit_s)
                + o.launch_per_unit_s)

    def add_units(self, durations: list[float]) -> None:
        free, walltime, append = self._free, self.walltime, self.units.append
        dispatch = self.overheads.dispatch_per_unit_s
        launch = self.overheads.launch_per_unit_s
        cursor = self._dispatch_cursor
        for duration in durations:
            cursor += dispatch
            start = max(free[0][0], cursor) + launch
            if start >= walltime:
                continue  # queued behind the walltime horizon
            node = free[0][1]
            end = start + duration
            heapq.heapreplace(free, (end, node))
            if end <= walltime:
                append(Unit(node, start, end, DONE))
            else:
                append(Unit(node, start, walltime, INCOMPLETE))
        self._dispatch_cursor = cursor

    def finalize(self) -> float:
        return min(max((u.end for u in self.units), default=self.ready_at), self.walltime)
