"""Batch cluster model with EASY backfill and a backfill-slot query.

Homogeneous worker nodes, a priority queue (capability jobs above
lowest-priority backfill jobs), and EASY backfill: the head of the queue
gets an earliest-start reservation over projected completions; any other
waiting job is dispatched immediately iff it fits the idle nodes without
pushing that reservation back.

`query_backfill()` mirrors a `showbf`-style scheduler interrogation: it
reports the (nodes, walltime) rectangle that a lowest-priority job could
occupy right now without delaying the reserved head job. Submitting a
job shaped exactly like the report is guaranteed to start immediately.

Projected completions use requested walltime, the standard backfill
assumption; a job ends at `start + min(runtime, walltime)`, and one that
ends early triggers a fresh scheduling pass.

`ReplayScheduler` answers the same query from a recorded slot trace
instead; both slot sources run jobs through one lifecycle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Annotated, Callable, Iterable, Optional

from .domains import Checked, Count, entries, is_int
from .metrics import PollRecord
from .simcore import SimEvent, SimTime, Simulation

CAPABILITY = "capability"
BACKFILL = "backfill_lowest"

_PRIORITY_RANK = {CAPABILITY: 0, BACKFILL: 1}


def _queue_key(job: "BatchJob") -> tuple:
    # Fixed at submit, so the queue stays sorted by inserting in place.
    return (_PRIORITY_RANK[job.priority_class], job.submit_time, job._seq)


class SubmitError(Exception):
    """Job rejected at submission (malformed or over policy caps)."""


def _is_band(band) -> bool:
    return isinstance(band, (list, tuple)) and len(band) == 2 and all(is_int(v, 1) for v in band)


Bands = Annotated[tuple[tuple[int, int], ...], entries(
    "a non-empty list of [max_nodes, cap_s] pairs of integers >= 1", _is_band)]


@dataclass(frozen=True)
class ClusterConfig(Checked):
    """Machine profile. The default mirrors a leadership-class system:
    18,688 nodes, 16 cores each, 2 h walltime cap for small lowest-priority
    jobs. Caps are (max_nodes_in_band, cap_seconds) pairs; a job falls in
    the first band whose node bound it does not exceed.
    """

    total_nodes: Count = 18688
    cores_per_node: Count = 16
    backfill_caps: Bands = ((3749, 7200), (1 << 31, 86400))
    capability_caps: Bands = (((1 << 31), 86400),)

    def cap_for(self, nodes: int, priority_class: str) -> int:
        bands = self.backfill_caps if priority_class == BACKFILL else self.capability_caps
        for band_max, cap in bands:
            if nodes <= band_max:
                return cap
        return bands[-1][1]


@dataclass(eq=False)
class BatchJob:
    """A scheduler-visible job.

    `runtime` is its actual duration, set by its submitter and required at
    submission (a record built without one cannot be submitted). It runs
    for `min(runtime, walltime)` seconds; `killed` marks a job that reached
    its walltime.
    """

    nodes: int
    walltime: int
    priority_class: str = CAPABILITY
    runtime: Optional[int] = None
    id: Optional[str] = None
    submit_time: Optional[SimTime] = None
    start_time: Optional[SimTime] = None
    end_time: Optional[SimTime] = None
    killed: bool = False
    on_end: Optional[Callable[["BatchJob"], None]] = field(default=None, repr=False)
    _seq: int = field(default=-1, repr=False)


class _JobLifecycle:
    """The job lifecycle both slot sources share: submission checks, id and
    sequence assignment, start, and one way to end: the `job_end` event at
    `start + min(runtime, walltime)`. Subclasses decide when an admitted
    job starts; their `_started` hook runs as it starts and `_ended` just
    before the owner's `on_end`."""

    def __init__(self, sim: Simulation, config: ClusterConfig):
        self.sim = sim
        self.config = config
        self.running: dict[str, BatchJob] = {}
        self._queued_ids: set[str] = set()
        self.backfill_nodes_held = 0
        self._submit_counter = 0

    def _admit(self, job: BatchJob) -> None:
        """Check a submission against the machine and its walltime caps, then
        give the job its id, sequence number and submit time."""
        if job.nodes < 1:
            raise SubmitError(f"job requests {job.nodes} nodes; need at least 1")
        if job.nodes > self.config.total_nodes:
            raise SubmitError(
                f"job requests {job.nodes} nodes; cluster has {self.config.total_nodes}")
        if job.walltime <= 0:
            raise SubmitError(f"walltime must be positive, got {job.walltime}")
        if job.priority_class not in _PRIORITY_RANK:
            raise SubmitError(f"unknown priority class {job.priority_class!r}")
        cap = self.config.cap_for(job.nodes, job.priority_class)
        if job.walltime > cap:
            raise SubmitError(
                f"walltime {job.walltime}s exceeds the {cap}s cap for "
                f"{job.nodes}-node {job.priority_class} jobs")
        if job.runtime is None or job.runtime < 1:
            raise SubmitError(f"runtime must be >= 1s, got {job.runtime}")
        job_id = job.id if job.id is not None else f"job-{self._submit_counter}"
        if job_id in self.running or job_id in self._queued_ids:
            raise SubmitError(f"job id {job_id!r} is already queued or running")
        job.id = job_id
        job._seq = self._submit_counter
        self._submit_counter += 1
        job.submit_time = self.sim.now

    def _start(self, job: BatchJob) -> None:
        job.start_time = self.sim.now
        if job.priority_class == BACKFILL:
            self.backfill_nodes_held += job.nodes
        self.running[job.id] = job
        self.sim.schedule(self.sim.now + min(job.runtime, job.walltime), "job_end",
                          lambda j=job: self._finish(j), target=job.id)
        self._started(job)

    def _finish(self, job: BatchJob) -> None:
        del self.running[job.id]
        job.end_time = self.sim.now
        job.killed = (job.end_time - job.start_time) >= job.walltime
        if job.priority_class == BACKFILL:
            self.backfill_nodes_held -= job.nodes
        self._ended(job)
        if job.on_end is not None:
            job.on_end(job)

    def _started(self, job: BatchJob) -> None:
        pass

    def _ended(self, job: BatchJob) -> None:
        pass


class EasyBackfillScheduler(_JobLifecycle):
    def __init__(self, sim: Simulation, config: ClusterConfig = ClusterConfig(),
                 strict_checks: bool = False):
        super().__init__(sim, config)
        self.free_nodes = config.total_nodes
        self.queue: list[BatchJob] = []
        self.strict_checks = strict_checks
        self.state_listeners: list[Callable[[], None]] = []
        self._pass_event: Optional[SimEvent] = None
        self._releases: list[tuple[SimTime, int, int]] = []  # sorted (end, seq, nodes)

    # -- public operations ----------------------------------------------------

    def submit(self, job: BatchJob) -> str:
        """Validate and enqueue a job; a scheduling pass runs at the current
        simulated second (after any other events already pending at it)."""
        self._admit(job)
        bisect.insort(self.queue, job, key=_queue_key)
        self._queued_ids.add(job.id)
        self._request_pass()
        return job.id

    def query_backfill(self) -> PollRecord:
        """Report the backfill slot available right now.

        Returns the rectangle maximizing nodes first, then walltime: all
        currently idle nodes, for as long as they can be held without
        delaying the queue head's reservation, capped by the walltime
        policy band for that node count.
        """
        self._settle()
        idle = self.free_nodes
        now = self.sim.now
        if idle == 0:
            return PollRecord(now, 0, 0)
        cap = self.config.cap_for(idle, BACKFILL)
        start, extra = self._reservation()
        if start is None or extra >= idle:
            return PollRecord(now, idle, cap)
        return PollRecord(now, idle, min(start - now, cap))

    def schedule_pass(self) -> list[BatchJob]:
        """Run one EASY pass immediately; returns jobs dispatched by it."""
        if self._pass_event is not None:
            self.sim.cancel(self._pass_event)
            self._pass_event = None
        return self._run_pass()

    def head_reservation(self) -> Optional[SimTime]:
        """When the queue head is guaranteed to start; None if none queued."""
        self._settle()
        return self._reservation()[0]

    # -- internals --------------------------------------------------------------

    def _touch(self) -> None:
        for listener in self.state_listeners:
            listener()

    def _request_pass(self) -> None:
        if self._pass_event is None:
            self._pass_event = self.sim.schedule(self.sim.now, "schedule_pass",
                                                 self._deferred_pass)

    def _deferred_pass(self) -> None:
        self._pass_event = None
        self._run_pass()

    def _settle(self) -> None:
        # Queries must observe the effect of submissions made earlier in the
        # same simulated second, so flush any pending pass first.
        if self._pass_event is not None:
            self.schedule_pass()

    def _run_pass(self) -> list[BatchJob]:
        dispatched: list[BatchJob] = []
        while self.queue and self.queue[0].nodes <= self.free_nodes:
            head = self.queue[0]
            self._dispatch(head)
            dispatched.append(head)
        if len(self.queue) < 2:
            return dispatched
        # The head is blocked. A backfill dispatch never moves its start,
        # and free nodes and `extra` only shrink, so a job skipped here
        # stays skipped: one scan over the rest of the queue suffices.
        shadow, extra = self._reservation()
        now, free = self.sim.now, self.free_nodes
        for job in self.queue[1:]:
            if job.nodes > free:
                continue
            runs_past = now + job.walltime > shadow
            if runs_past and job.nodes > extra:
                continue
            self._dispatch(job)
            free = self.free_nodes
            dispatched.append(job)
            if runs_past:
                extra -= job.nodes
            if self.strict_checks:
                after, after_extra = self._reservation()
                if (after, after_extra) != (shadow, extra):
                    raise AssertionError(
                        f"backfill dispatch of {job.id} moved the reservation of "
                        f"{self.queue[0].id} from t={shadow} with {extra} spare nodes "
                        f"to t={after} with {after_extra}")
        return dispatched

    def _dispatch(self, job: BatchJob) -> None:
        if job.nodes > self.free_nodes:
            raise AssertionError(f"capacity overcommitted: {job.id} needs {job.nodes} "
                                 f"nodes, {self.free_nodes} free")
        self.queue.remove(job)
        self._queued_ids.discard(job.id)
        self.free_nodes -= job.nodes
        self._start(job)

    def _started(self, job: BatchJob) -> None:
        bisect.insort(self._releases, (job.start_time + job.walltime, job._seq, job.nodes))
        self._touch()

    def _ended(self, job: BatchJob) -> None:
        key = (job.start_time + job.walltime, job._seq, job.nodes)
        i = bisect.bisect_left(self._releases, key)
        if i == len(self._releases) or self._releases[i] != key:
            raise AssertionError(f"ended job {job.id} has no projected release {key}")
        del self._releases[i]
        self.free_nodes += job.nodes
        self._touch()
        self._request_pass()

    def _reservation(self) -> tuple[Optional[SimTime], int]:
        """The queue head's reservation start and `extra`, the nodes still free
        then once the head begins (a job no wider may run past it), from one
        walk over the projected releases that `_started`/`_ended` keep sorted,
        so no call sorts; `(None, 0)` if none queued."""
        if not self.queue:
            return None, 0
        head = self.queue[0]
        releases = self._releases
        if self.strict_checks and releases != sorted(
                (j.start_time + j.walltime, j._seq, j.nodes) for j in self.running.values()):
            raise AssertionError(f"projected releases {releases} drifted from the running jobs")
        # Ends are sorted and >= now: advance to each until the head fits, then
        # take the rest that end at that same instant.
        start, free = self.sim.now, self.free_nodes
        for end, _, nodes in releases:
            if free >= head.nodes and end > start:
                break
            start, free = end, free + nodes
        if free < head.nodes:
            raise AssertionError("job can never start; capacity invariant broken")
        return start, free - head.nodes


class ReplayScheduler(_JobLifecycle):
    """Slot source driven by a recorded poll trace instead of a live queue.

    Each `query_backfill()` returns the next trace record itself, and an
    empty slot at the current time once the trace is used up.
    Submitted jobs pass the live scheduler's checks and start immediately
    (the premise of the slot report); they are not capacity-checked
    against each other, since this mode exists to replay recorded
    availability, not to model contention.
    """

    def __init__(self, sim: Simulation, records: Iterable, config: ClusterConfig = ClusterConfig()):
        super().__init__(sim, config)
        self.records = list(records)
        self.cursor = 0

    def query_backfill(self) -> PollRecord:
        if self.cursor == len(self.records):
            return PollRecord(self.sim.now, 0, 0)
        self.cursor += 1
        return self.records[self.cursor - 1]

    def submit(self, job: BatchJob) -> str:
        self._admit(job)
        self._start(job)
        return job.id
