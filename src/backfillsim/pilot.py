"""Multi-generation pilot agent.

A pilot holds its nodes from the moment it starts; its agent pulls the
units (one full-node task each) onto free nodes, wave after wave, until
the units run out or the pilot hits its walltime.

Overheads modeled: a constant agent bootstrap after the pilot starts, a
serial per-unit dispatch latency at the manager, and a per-unit launch
latency on the node. Times are float seconds from the pilot's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .scheduler import BACKFILL, CAPABILITY, _is_count

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
        if not self.walltime_s > 0:
            raise ValueError(f"walltime_s must be positive, got {self.walltime_s}")
        if not self.unit_mean_s > 0:
            raise ValueError(f"unit_mean_s must be > 0, got {self.unit_mean_s}")
        if not self.unit_sd_s >= 0:
            raise ValueError(f"unit_sd_s must be >= 0, got {self.unit_sd_s}")
        if math.inf in (self.unit_mean_s, self.unit_sd_s):  # both inf draw NaN units
            raise ValueError(f"unit_mean_s and unit_sd_s must be finite, got "
                             f"{self.unit_mean_s} and {self.unit_sd_s}")
        if not _is_count(self.units_per_node, 0):
            raise ValueError(f"units_per_node must be an integer >= 0, got {self.units_per_node!r}")
        if not (self.units_total is None or _is_count(self.units_total, 0)):
            raise ValueError(f"units_total must be an integer >= 0, got {self.units_total!r}")
        if not self.nodes_list:
            raise ValueError("nodes_list must list at least one pilot size")
        if not all(_is_count(n, 1) for n in self.nodes_list):
            raise ValueError(f"nodes_list entries must be integers >= 1, got {self.nodes_list!r}")
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
    latency. Execution past `walltime` is cut off at teardown. Started
    units are kept as node, start and end arrays, one set per numpy step
    of `add_units`, and counted in `units_started` and `units_cut`.
    """

    def __init__(self, nodes: int, walltime: float, overheads: OverheadModel):
        self.walltime = float(walltime)
        self.overheads = overheads
        self.ready_at = overheads.bootstrap_s
        self._dispatch_cursor = self.ready_at
        # the nodes in (free at, node) order, and when each comes free; the
        # first `_placed` of them, placed by the last step, go back into that
        # order when the next step needs it
        self._order = np.arange(nodes)
        self._free = np.full(nodes, self.ready_at, dtype=float)
        self._placed = 0
        self._started = [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
        self.units_started = self.units_cut = 0
        self._last_end = self.ready_at  # durations are non-negative

    @property
    def units(self) -> list[Unit]:
        """Every started unit in start order; a cut one ends at `walltime`."""
        w = self.walltime
        return [Unit(node, start, end, DONE) if end <= w else Unit(node, start, w, INCOMPLETE)
                for node, start, end in zip(*(c.tolist() for c in self._columns()))]

    def _columns(self) -> tuple[np.ndarray, ...]:
        """Node, start and uncut end of every started unit, in start order."""
        return tuple(np.concatenate(c) for c in zip(*self._started))

    def next_start(self) -> float:
        """When the next unit handed to `add_units` would start, whatever
        its duration: after its serial dispatch, on the first node to come
        free, plus the launch latency. It never decreases, so once it
        reaches the walltime no later unit can start."""
        o = self.overheads
        return (max(self._first_free(), self._dispatch_cursor + o.dispatch_per_unit_s)
                + o.launch_per_unit_s)

    def _first_free(self) -> float:
        """When the first node comes free: the nodes the last step placed
        are not merged back yet, but every other one waits in order."""
        return float(self._free[:self._placed + 1].min())

    def add_units(self, durations: np.ndarray | list[float]) -> None:
        """Hand units of these durations to the agent, in order. A unit that
        cannot start before the walltime leaves no record, but still takes
        its turn on the dispatch channel.

        Each unit goes to the first node to come free, ties to the lower
        node. One numpy step sends the next units to the nodes in (free at,
        node) order, unit j to the j-th, and keeps the longest prefix in
        which every end placed earlier in the step is strictly later than
        the free time of the next unit's node: there a unit-by-unit heap
        puts each of them too, bit for bit. The first unit of a step always
        qualifies. The nodes stay in that order between steps: the ones a
        step placed go back into it by a merge before the next step, not by
        sorting every node."""
        durations = np.asarray(durations, dtype=float)
        n, launch, walltime = len(durations), self.overheads.launch_per_unit_s, self.walltime
        # dispatch times: the same sequential float sum as `cursor += dispatch` per unit
        cursors = np.full(n + 1, self.overheads.dispatch_per_unit_s)
        cursors[0] = self._dispatch_cursor
        np.add.accumulate(cursors, out=cursors)
        self._dispatch_cursor = float(cursors[-1])
        i = 0
        # until the next unit's start, as in `next_start`, reaches the walltime
        while i < n and max(cursors[i + 1], self._first_free()) + launch < walltime:
            self._requeue()
            at = self._free[:n - i]
            starts = np.maximum(cursors[i + 1:i + 1 + len(at)], at) + launch
            k = int(np.searchsorted(starts, walltime))  # starts never decrease
            ends = starts[:k] + durations[i:i + k]
            # one comparison settles the usual step, in which every unit qualifies
            if not ends[:-1].min(initial=np.inf) > at[k - 1]:
                # the running minimum of the ends never rises and `at` never
                # falls, so the units that qualify form a prefix
                k = 1 + int(np.count_nonzero(np.minimum.accumulate(ends[:-1]) > at[1:k]))
                ends = ends[:k]
            self._record(self._order[:k].copy(), starts[:k], ends)
            self._free[:k] = ends
            self._placed = k
            i += k

    def _requeue(self) -> None:
        """Merge the nodes the last step placed back into (free at, node)
        order among the others."""
        k, self._placed = self._placed, 0
        if not k:
            return
        by_end = np.lexsort((self._order[:k], self._free[:k]))  # ties by node
        placed, ends = self._order[by_end], self._free[by_end]
        if k == len(self._order):  # no other node to merge with
            self._order, self._free = placed, ends
            return
        nodes, free = self._order[k:], self._free[k:]
        # each goes before the first waiting node that comes free later, or
        # at the same time with a higher number
        at = np.searchsorted(free, ends)
        tied = np.searchsorted(free, ends, side="right")
        for j in np.flatnonzero(tied > at):
            at[j] += np.count_nonzero(nodes[at[j]:tied[j]] < placed[j])
        at += np.arange(k)  # their places in the merged order
        rest = np.ones(len(self._order), dtype=bool)
        rest[at] = False
        self._order, self._free = np.empty_like(self._order), np.empty_like(self._free)
        for merged, head, tail in ((self._order, placed, nodes), (self._free, ends, free)):
            merged[rest] = tail
            merged[at] = head

    def _record(self, nodes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        self._started.append((nodes, starts, ends))
        self.units_started += len(ends)
        self.units_cut += int(np.count_nonzero(ends > self.walltime))
        self._last_end = max(self._last_end, float(ends.max()))

    def finalize(self) -> float:
        """The pilot's effective duration: until its last unit ends, or the
        walltime if a unit was cut; the bootstrap if no unit started."""
        return min(self._last_end, self.walltime)


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
    node, start, end = timeline._columns()
    done = end <= timeline.walltime
    span = np.minimum(end, timeline.walltime) - start
    busy = np.bincount(node, weights=span, minlength=nodes)  # per node, in unit order
    tasks = span[done]
    return PilotReport(duration_s=float(duration),
                       mean_task_s=float(tasks.mean()) if len(tasks) else 0.0,
                       overhead_s=float(duration) - float(busy.mean()),
                       units_done=len(tasks), units_incomplete=timeline.units_cut,
                       generations_per_node=dict(enumerate(
                           np.bincount(node[done], minlength=nodes).tolist())))
