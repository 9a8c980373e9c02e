"""Availability and consumption accounting.

Availability comes from one of two sources. A simulated run with
`availability_credit: rate` (the default) integrates the exact
`AvailabilityLedger`: free plus backfill-held nodes over time. Runs set
to `availability_credit: walltime`, and trace replays, credit each poll
inside the window with nodes x cores x reported walltime; on a live run
this double-counts overlapping observations and can make used/avail
exceed 1.

Consumption and counts come from the finished bundles. Each bundle
contributes nodes x cores x held time, split across report windows by
overlap; its payload and event counts go to the window containing its
end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class PollRecord:
    observed_at: int
    nodes: int
    walltime: int

    def __post_init__(self):
        if self.observed_at < 0 or self.nodes < 0 or self.walltime < 0:
            raise ValueError(f"negative field in poll record {self}")


@dataclass
class WindowReport:
    window_start: int
    window_end: int
    avail_core_hours: float
    used_core_hours: float
    efficiency: Optional[float]  # None when availability is zero
    jobs_done: int
    jobs_failed: int
    events_done: int


def _overlap(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


def total_backfill_availability(polls: Sequence[PollRecord], window: tuple[int, int],
                                cores_per_node: int) -> float:
    """Walltime credit: core-hours of the polls observed inside `window`."""
    w0, w1 = window
    total = 0.0
    for p in polls:
        if w0 <= p.observed_at < w1:
            total += p.nodes * cores_per_node * p.walltime / 3600.0
    return total


def window_report(bundles: Iterable, window: tuple[int, int], cores_per_node: int,
                  avail_core_hours: float) -> WindowReport:
    """Aggregate one accounting window over finished bundles (`broker.Bundle`)."""
    w0, w1 = window
    used = 0.0
    jobs_done = jobs_failed = events_done = 0
    for b in bundles:
        used += b.nodes * cores_per_node * _overlap(b.start_time, b.end_time, w0, w1) / 3600.0
        if w0 <= b.end_time < w1:
            done = b.payloads_done
            jobs_done += done
            jobs_failed += b.payloads_failed
            events_done += done * b.events_per_payload
    eff = used / avail_core_hours if avail_core_hours > 0 else None
    return WindowReport(w0, w1, avail_core_hours, used, eff,
                        jobs_done, jobs_failed, events_done)


class AvailabilityLedger:
    """Exact step-function ledger of backfill-available nodes.

    Tracks free-plus-backfill-held nodes on every scheduler state change,
    so the availability integral is exact rather than poll-sampled; with
    it, used <= avail holds exactly for backfill-only consumption.
    """

    def __init__(self, sim, scheduler):
        self.sim = sim
        self.scheduler = scheduler
        self.segments: list[tuple[int, int]] = []  # (start_time, node level)
        self._record()
        scheduler.state_listeners.append(self._record)

    def _level(self) -> int:
        return self.scheduler.free_nodes + self.scheduler.backfill_nodes_held

    def _record(self) -> None:
        level = self._level()
        if self.segments and self.segments[-1][0] == self.sim.now:
            self.segments[-1] = (self.sim.now, level)
        elif not self.segments or self.segments[-1][1] != level:
            self.segments.append((self.sim.now, level))

    def node_seconds(self, window: tuple[int, int]) -> int:
        w0, w1 = window
        total = 0
        for i, (t, level) in enumerate(self.segments):
            t_next = self.segments[i + 1][0] if i + 1 < len(self.segments) else w1
            total += level * _overlap(t, t_next, w0, w1)
        return total

    def core_hours(self, window: tuple[int, int], cores_per_node: int) -> float:
        return self.node_seconds(window) * cores_per_node / 3600.0


def month_windows(start_date: str, horizon_s: int) -> list[tuple[str, int, int]]:
    """(label, start_s, end_s) per calendar month covering [0, horizon_s).

    Simulated second 0 corresponds to `start_date` (ISO, UTC midnight).
    """
    anchor = datetime.fromisoformat(start_date).replace(tzinfo=timezone.utc)
    windows = []
    cursor = anchor
    while True:
        if cursor.month == 12:
            nxt = cursor.replace(year=cursor.year + 1, month=1, day=1)
        else:
            nxt = cursor.replace(month=cursor.month + 1, day=1)
        w0 = int((cursor - anchor).total_seconds())
        w1 = int((nxt - anchor).total_seconds())
        if w0 >= horizon_s:
            break
        windows.append((cursor.strftime("%Y-%m"), w0, min(w1, horizon_s)))
        cursor = nxt
    return windows


def write_window_reports(path, labeled_reports: Iterable[tuple[str, WindowReport]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "window_start", "window_end", "avail_core_hours",
                         "used_core_hours", "efficiency", "jobs_done", "jobs_failed",
                         "events_done"])
        for label, r in labeled_reports:
            eff = "" if r.efficiency is None else f"{r.efficiency:.6f}"
            writer.writerow([label, r.window_start, r.window_end,
                             f"{r.avail_core_hours:.3f}", f"{r.used_core_hours:.3f}",
                             eff, r.jobs_done, r.jobs_failed, r.events_done])
