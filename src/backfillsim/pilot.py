"""Multi-generation pilot runtime.

A pilot is a placeholder batch job; once it starts, its agent pulls
queued units (one full-node task each) onto free nodes, wave after wave,
until the unit queue drains or the job hits its walltime. Units are
late-bound: they can be handed to the runtime before or during pilot
execution.

Overheads modeled: a constant agent bootstrap after job start, a serial
per-unit dispatch latency at the manager, and a per-unit launch latency
on the node. Unit-level bookkeeping uses float seconds (per-unit
latencies are sub-second); cluster-level events stay on the engine's
integer clock.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .scheduler import BACKFILL, CAPABILITY, BatchJob
from .simcore import SimEvent, Simulation

PENDING = "pending"
DISPATCHED = "dispatched"
RUNNING = "running"
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
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")


_QUEUES = {"capability": CAPABILITY, "backfill": BACKFILL}


@dataclass(frozen=True)
class PilotConfig(OverheadModel):
    """The `pilot` config section: the agent's overheads plus the shape of
    the pilot-scaling experiments (pilot sizes, units, queue)."""

    unit_mean_s: float = 4650.0
    unit_sd_s: float = 19.0
    events_per_unit: int = 100
    walltime_s: int = 7200
    nodes_list: tuple[int, ...] = (250, 500, 1000, 2000)
    units_per_node: int = 1
    units_total: Optional[int] = None  # fixed total across sizes (strong scaling)
    queue: str = "capability"  # or "backfill"

    def __post_init__(self):
        super().__post_init__()
        if self.walltime_s <= 0:
            raise ValueError(f"walltime_s must be positive, got {self.walltime_s}")
        if any(n < 1 for n in self.nodes_list):
            raise ValueError("nodes_list entries must be >= 1")
        object.__setattr__(self, "nodes_list", tuple(self.nodes_list))
        if self.queue not in _QUEUES:
            raise ValueError(f"queue must be one of {tuple(_QUEUES)}, got {self.queue!r}")

    @property
    def priority_class(self) -> str:
        return _QUEUES[self.queue]


@dataclass(frozen=True)
class PilotDesc:
    nodes: int
    walltime: int
    priority_class: str = CAPABILITY


@dataclass
class Unit:
    id: int
    events: int = 100
    duration_s: Optional[float] = None  # drawn from the runtime's model if None
    state: str = PENDING
    node: Optional[int] = None
    start: Optional[float] = None
    end: Optional[float] = None


class AgentTimeline:
    """Eager unit scheduler for one pilot: FIFO queue, first-free node.

    Times are float seconds relative to the pilot job's start. The agent
    becomes ready after bootstrap; each unit reaches the agent through a
    serial dispatch channel and starts on its node after the launch
    latency. Execution past `walltime` is cut off at teardown.
    """

    def __init__(self, nodes: int, walltime: float, overheads: OverheadModel):
        self.nodes = nodes
        self.walltime = float(walltime)
        self.overheads = overheads
        self.ready_at = overheads.bootstrap_s
        self._dispatch_cursor = self.ready_at
        self._free: list[tuple[float, int]] = [(self.ready_at, i) for i in range(nodes)]
        heapq.heapify(self._free)
        self.units: list[Unit] = []

    def add_units(self, units: list[Unit]) -> None:
        for unit in units:
            self._dispatch_cursor += self.overheads.dispatch_per_unit_s
            arrive = self._dispatch_cursor
            unit.state = DISPATCHED
            free_at, node = self._free[0]
            start = max(free_at, arrive) + self.overheads.launch_per_unit_s
            if start >= self.walltime:
                # queued behind the walltime horizon; stays dispatched
                self.units.append(unit)
                continue
            heapq.heapreplace(self._free, (start + unit.duration_s, node))
            unit.node = node
            unit.start = start
            unit.end = start + unit.duration_s
            unit.state = RUNNING
            self.units.append(unit)

    def last_activity(self) -> float:
        """End of the latest scheduled unit (bootstrap if none ran)."""
        ends = [u.end for u in self.units if u.end is not None]
        return max(ends) if ends else self.ready_at

    def finalize(self, cut_at: Optional[float] = None) -> float:
        """Close the timeline, cutting execution at `cut_at` (default the
        walltime). Returns the pilot's effective duration."""
        cut = self.walltime if cut_at is None else min(cut_at, self.walltime)
        for unit in self.units:
            if unit.state != RUNNING:
                continue
            if unit.end <= cut:
                unit.state = DONE
            elif unit.start < cut:
                unit.end = cut
                unit.state = INCOMPLETE
            else:
                unit.node = None
                unit.start = unit.end = None
                unit.state = DISPATCHED  # never actually ran
        ends = [u.end for u in self.units if u.state in (DONE, INCOMPLETE)]
        return min(max(ends) if ends else self.ready_at, cut)


@dataclass
class PilotReport:
    pilot_id: str
    nodes: int
    walltime: int
    queue_wait_s: int
    duration_s: float  # job start to last unit end (or walltime kill)
    mean_task_s: float
    node_busy_mean_s: float
    overhead_s: float  # duration minus node-averaged busy time
    units_done: int
    units_incomplete: int
    units_pending: int
    generations_per_node: dict[int, int]
    task_durations: list[float] = field(repr=False, default_factory=list)

    @property
    def generations(self) -> int:
        return max(self.generations_per_node.values(), default=0)


class _PilotState:
    def __init__(self, desc: PilotDesc, job: BatchJob):
        self.desc = desc
        self.job = job
        self.timeline: Optional[AgentTimeline] = None
        self.buffered: list[Unit] = []  # dispatched before the job started
        self.closed = False
        self.finished = False
        self.report: Optional[PilotReport] = None
        self.end_event: Optional[SimEvent] = None


class PilotRuntime:
    """Pilot and unit managers bound to a cluster scheduler."""

    def __init__(self, sim: Simulation, cluster, overheads: OverheadModel = OverheadModel(),
                 unit_model=None, name: str = "pilot"):
        self.sim = sim
        self.cluster = cluster
        self.overheads = overheads
        self.unit_model = unit_model
        self.name = name
        self.pilots: dict[str, _PilotState] = {}
        self._counter = 0

    # -- pilot manager ------------------------------------------------------

    def submit_pilot(self, desc: PilotDesc) -> str:
        pilot_id = f"{self.name}-{self._counter}"
        self._counter += 1
        job = BatchJob(nodes=desc.nodes, walltime=desc.walltime,
                       priority_class=desc.priority_class, runtime=None,
                       id=pilot_id,
                       on_start=lambda j: self._on_start(pilot_id),
                       on_end=lambda j: self._on_end(pilot_id))
        state = _PilotState(desc, job)
        self.pilots[pilot_id] = state
        try:
            self.cluster.submit(job)  # rejection propagates to the caller
        except Exception:
            del self.pilots[pilot_id]
            raise
        return pilot_id

    # -- unit manager -------------------------------------------------------

    def dispatch_units(self, pilot_id: str, units: list[Unit]) -> None:
        state = self._get(pilot_id)
        if state.finished:
            for unit in units:
                unit.state = INCOMPLETE
            return
        self._draw_durations(units)
        if state.timeline is None:
            state.buffered.extend(units)
        else:
            state.timeline.add_units(units)
            self._plan_completion(state)

    def close(self, pilot_id: str) -> None:
        """Declare that no further units will come; the pilot job ends when
        the last scheduled unit does (or at walltime, whichever is first)."""
        state = self._get(pilot_id)
        state.closed = True
        if state.timeline is not None and not state.finished:
            self._plan_completion(state)

    def pilot_report(self, pilot_id: str) -> PilotReport:
        state = self._get(pilot_id)
        if state.report is None:
            raise ValueError(f"pilot {pilot_id!r} has not finished")
        return state.report

    # -- internals ----------------------------------------------------------

    def _get(self, pilot_id: str) -> _PilotState:
        try:
            return self.pilots[pilot_id]
        except KeyError:
            raise KeyError(f"unknown pilot {pilot_id!r}") from None

    def _draw_durations(self, units: list[Unit]) -> None:
        missing = [u for u in units if u.duration_s is None]
        if not missing:
            return
        if self.unit_model is None:
            raise ValueError("units lack durations and no unit model is set")
        rng = self.sim.rng(f"{self.name}-units")
        draws = self.unit_model.sample(len(missing), rng)
        for unit, d in zip(missing, draws):
            unit.duration_s = float(d)

    def _on_start(self, pilot_id: str) -> None:
        state = self._get(pilot_id)
        state.timeline = AgentTimeline(state.desc.nodes, state.desc.walltime,
                                       self.overheads)
        if state.buffered:
            state.timeline.add_units(state.buffered)
            state.buffered = []
        self._plan_completion(state)

    def _plan_completion(self, state: _PilotState) -> None:
        # With an open unit stream the job runs to its walltime kill; once
        # closed, it terminates right after the last unit ends.
        if not state.closed:
            return
        if state.end_event is not None:
            self.sim.cancel(state.end_event)
            state.end_event = None
        end_rel = state.timeline.last_activity()
        if end_rel >= state.desc.walltime:
            return  # walltime kill handles it
        end_abs = state.job.start_time + max(1, math.ceil(end_rel))
        state.end_event = self.sim.schedule(
            max(end_abs, self.sim.now), "pilot_done",
            lambda: self._terminate(state), target=state.job.id)

    def _terminate(self, state: _PilotState) -> None:
        state.end_event = None
        if not state.finished:
            self.cluster.terminate(state.job.id)

    def _on_end(self, pilot_id: str) -> None:
        state = self._get(pilot_id)
        state.finished = True
        if state.end_event is not None:
            self.sim.cancel(state.end_event)
            state.end_event = None
        job = state.job
        if state.timeline is None:  # never started (should not happen)
            state.report = PilotReport(pilot_id, state.desc.nodes, state.desc.walltime,
                                       0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, {})
            return
        cut = job.end_time - job.start_time
        duration = state.timeline.finalize(cut_at=cut)
        for unit in state.buffered:
            unit.state = INCOMPLETE
        units = state.timeline.units
        done = [u for u in units if u.state == DONE]
        incomplete = [u for u in units if u.state == INCOMPLETE]
        pending = [u for u in units if u.state == DISPATCHED]
        busy = np.zeros(state.desc.nodes)
        generations: dict[int, int] = {i: 0 for i in range(state.desc.nodes)}
        for u in done:
            busy[u.node] += u.end - u.start
            generations[u.node] += 1
        for u in incomplete:
            busy[u.node] += u.end - u.start
        task_durations = [u.end - u.start for u in done]
        mean_task = float(np.mean(task_durations)) if task_durations else 0.0
        node_busy = float(busy.mean())
        state.report = PilotReport(
            pilot_id=pilot_id, nodes=state.desc.nodes, walltime=state.desc.walltime,
            queue_wait_s=job.start_time - job.submit_time,
            duration_s=float(duration), mean_task_s=mean_task,
            node_busy_mean_s=node_busy, overhead_s=float(duration) - node_busy,
            units_done=len(done), units_incomplete=len(incomplete),
            units_pending=len(pending) + len(state.buffered),
            generations_per_node=generations, task_durations=task_durations)
