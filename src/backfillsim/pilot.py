"""Multi-generation pilot agent.

A pilot holds its nodes from the moment it starts; its agent pulls the
units (one full-node task each) onto free nodes, wave after wave, until
the units run out or the pilot hits its walltime.

Overheads modeled: a constant agent bootstrap after the pilot starts, a
serial per-unit dispatch latency at the manager, and a per-unit launch
latency on the node. Times are float seconds from the pilot's start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heapify, heapreplace
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .scheduler import BACKFILL, CAPABILITY

DONE = "done"
INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class OverheadModel:
    bootstrap_s: float = 180.0
    dispatch_per_unit_s: float = 0.015
    launch_per_unit_s: float = 0.1

    def __post_init__(self):
        for f in fields(OverheadModel):
            value = getattr(self, f.name)
            if not value >= 0:  # NaN too: with it, next_start() never reaches the walltime
                raise ValueError(f"{f.name} must be non-negative, got {value}")


_QUEUES = {"capability": CAPABILITY, "backfill": BACKFILL}


@dataclass(frozen=True)
class PilotConfig(OverheadModel):
    """The `pilot` config section: the agent's overheads plus the shape of
    the pilot-scaling experiments (pilot sizes, units, queue)."""

    unit_mean_s: float = 4650.0
    unit_sd_s: float = 19.0
    walltime_s: int = 7200
    nodes_list: tuple[int, ...] = (250, 500, 1000, 2000)
    units_per_node: int = 1
    units_total: Optional[int] = None  # fixed total across sizes (strong scaling)
    queue: str = "capability"  # or "backfill"

    def __post_init__(self):
        super().__post_init__()
        if self.walltime_s <= 0:
            raise ValueError(f"walltime_s must be positive, got {self.walltime_s}")
        if not self.unit_mean_s > 0:
            raise ValueError(f"unit_mean_s must be > 0, got {self.unit_mean_s}")
        if not self.unit_sd_s >= 0:
            raise ValueError(f"unit_sd_s must be >= 0, got {self.unit_sd_s}")
        if not self.nodes_list:
            raise ValueError("nodes_list must list at least one pilot size")
        if any(n < 1 for n in self.nodes_list):
            raise ValueError("nodes_list entries must be >= 1")
        object.__setattr__(self, "nodes_list", tuple(self.nodes_list))
        if self.queue not in _QUEUES:
            raise ValueError(f"queue must be one of {tuple(_QUEUES)}, got {self.queue!r}")

    @property
    def priority_class(self) -> str:
        return _QUEUES[self.queue]


class Unit(NamedTuple):
    """A unit that started: its node, its start and end, and its outcome,
    DONE or INCOMPLETE (cut off at the walltime, so `end` is the walltime)."""

    node: int
    start: float
    end: float
    state: str


class AgentTimeline:
    """Eager unit scheduler for one pilot: FIFO queue, first-free node.

    Times are float seconds relative to the pilot's start. The agent
    becomes ready after bootstrap; each unit reaches the agent through a
    serial dispatch channel and starts on its node after the launch
    latency. Execution past `walltime` is cut off at teardown; `units_cut`
    counts the recorded units it cut. A fresh timeline places its first
    generation in one numpy step where that is exact (see `add_units`).
    """

    def __init__(self, nodes: int, walltime: float, overheads: OverheadModel):
        self.walltime = float(walltime)
        self.overheads = overheads
        self.ready_at = overheads.bootstrap_s
        self._dispatch_cursor = self.ready_at
        # a heap of (free at, node); sorted, as every node is free at ready_at
        self._free: list[tuple[float, int]] = [(self.ready_at, i) for i in range(nodes)]
        self._fresh = True  # no unit handed over yet
        self.units: list[Unit] = []
        self.units_cut = 0

    def next_start(self) -> float:
        """When the next unit handed to `add_units` would start, whatever
        its duration: after its serial dispatch, on the first node to come
        free, plus the launch latency. It never decreases, so once it
        reaches the walltime no later unit can start."""
        o = self.overheads
        return (max(self._free[0][0], self._dispatch_cursor + o.dispatch_per_unit_s)
                + o.launch_per_unit_s)

    def add_units(self, durations: np.ndarray | list[float]) -> None:
        """Hand units of these durations to the agent, in order. Each unit
        that starts is recorded in `units` with its outcome, settled as it
        starts; `units_cut` counts those cut at the walltime. A unit that
        cannot start before the walltime leaves no record, but still takes
        its turn on the dispatch channel.

        The first call on a fresh timeline places its first
        min(len(durations), nodes) units in one numpy step: every node is
        free at `ready_at`, so unit i goes to node i, as the per-unit loop
        would put it, provided each unit placed ends strictly after
        `ready_at` (a unit ending on it would free its node for the next
        unit first). Otherwise, and for every later unit, the loop places
        them one at a time. Both give the same records, bit for bit."""
        durations = np.asarray(durations, dtype=float)
        cursor = self._dispatch_cursor
        placed = 0
        if self._fresh:
            self._fresh = False
            placed, cursor = self._place_first_generation(durations)
        # the loop computes next_start() on locals, one unit at a time
        free, walltime, append, new = self._free, self.walltime, self.units.append, tuple.__new__
        dispatch = self.overheads.dispatch_per_unit_s
        launch = self.overheads.launch_per_unit_s
        cut = 0
        for duration in durations[placed:].tolist():
            cursor += dispatch
            at, node = free[0]
            start = (cursor if cursor > at else at) + launch
            if start >= walltime:
                continue  # queued behind the walltime horizon
            end = start + duration
            heapreplace(free, (end, node))
            if end <= walltime:
                append(new(Unit, (node, start, end, DONE)))
            else:
                append(new(Unit, (node, start, walltime, INCOMPLETE)))
                cut += 1
        self._dispatch_cursor = cursor
        self.units_cut += cut

    def _place_first_generation(self, durations: np.ndarray) -> tuple[int, float]:
        """Place the first units of a fresh timeline on nodes 0, 1, ... in
        one step; returns how many units it handled and the dispatch cursor
        after them, or (0, the cursor) when the step would not be exact."""
        k = min(len(durations), len(self._free))
        if k == 0:
            return 0, self._dispatch_cursor
        # the same sequential float sum as the loop's `cursor += dispatch`
        cursors = np.full(k + 1, self.overheads.dispatch_per_unit_s, dtype=float)
        cursors[0] = self._dispatch_cursor
        np.add.accumulate(cursors, out=cursors)
        starts = np.maximum(cursors[1:], self.ready_at) + self.overheads.launch_per_unit_s
        started = int(np.searchsorted(starts, self.walltime))  # starts never decrease
        ends = starts[:started] + durations[:started]
        if not (ends > self.ready_at).all():
            return 0, self._dispatch_cursor
        self._free[:started] = zip(ends.tolist(), range(started))
        heapify(self._free)
        cut = ends > self.walltime
        self.units_cut += int(np.count_nonzero(cut))
        self.units.extend(map(tuple.__new__, repeat(Unit), zip(
            range(started), starts[:started].tolist(),
            np.minimum(ends, self.walltime).tolist(),
            map((DONE, INCOMPLETE).__getitem__, cut.tolist()))))
        return k, float(cursors[-1])

    def finalize(self) -> float:
        """The pilot's effective duration: until its last unit ends, or the
        walltime if a unit was cut; the bootstrap if no unit started."""
        return min(max(map(attrgetter("end"), self.units), default=self.ready_at),
                   self.walltime)


@dataclass
class PilotReport:
    duration_s: float  # pilot start to last unit end (or walltime kill)
    mean_task_s: float
    overhead_s: float  # duration minus node-averaged busy time
    units_done: int
    units_incomplete: int
    generations_per_node: dict[int, int]

    @property
    def generations(self) -> int:
        return max(self.generations_per_node.values(), default=0)


def run_pilot(nodes: int, walltime: int, durations: list[float],
              overheads: OverheadModel) -> PilotReport:
    """Run units of these durations on a pilot of `nodes` nodes that starts
    at once and holds them for at most `walltime` seconds."""
    timeline = AgentTimeline(nodes, walltime, overheads)
    timeline.add_units(durations)
    duration = timeline.finalize()
    busy = np.zeros(nodes)
    generations = dict.fromkeys(range(nodes), 0)
    task_durations = []
    # no unit starts on a node after its cut unit, so each node adds its cut unit last
    for u in timeline.units:
        busy[u.node] += u.end - u.start
        if u.state == DONE:
            generations[u.node] += 1
            task_durations.append(u.end - u.start)
    mean_task = float(np.mean(task_durations)) if task_durations else 0.0
    return PilotReport(duration_s=float(duration), mean_task_s=mean_task,
                       overhead_s=float(duration) - float(busy.mean()),
                       units_done=len(task_durations),
                       units_incomplete=timeline.units_cut,
                       generations_per_node=generations)
