"""Deterministic discrete-event engine.

A single `Simulation` owns a virtual clock (integer seconds), an ordered
event queue and a registry of named random-number streams. All other
modules (cluster scheduler, brokers, pilots) are driven by callbacks
scheduled here. Determinism contract: for a fixed root seed and a fixed
sequence of schedule() calls, the event trace is identical across runs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SimTime = int  # simulated seconds since epoch 0


class CausalityError(Exception):
    """An event was scheduled in the past; this is a logic bug, not input error."""


def _stream_entropy(seed: int, stream_id: str) -> np.random.SeedSequence:
    # Stable across processes (unlike hash()); one independent stream per entity.
    digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=8).digest()
    key = int.from_bytes(digest, "big")
    return np.random.SeedSequence(entropy=seed, spawn_key=(key,))


def stream_rng(seed: int, stream_id: str) -> np.random.Generator:
    """Standalone named stream with the same derivation a Simulation uses."""
    return np.random.Generator(np.random.PCG64(_stream_entropy(seed, stream_id)))


@dataclass
class SimEvent:
    fire_at: SimTime
    seq: int
    kind: str
    target: Optional[str] = None
    callback: Optional[Callable[[], None]] = None
    cancelled: bool = False


class Simulation:
    """Virtual clock + event queue + per-entity RNG streams.

    Events fire in (fire_at, seq) order; seq is the insertion counter, so
    simultaneous events replay in the order they were scheduled. The heap holds
    `(fire_at, seq, event)` tuples: seq is unique, so no comparison reaches the event.
    """

    def __init__(self, seed: int = 0, record_trace: bool = False):
        self.seed = seed
        self.now: SimTime = 0
        self._queue: list[tuple[SimTime, int, SimEvent]] = []
        self._seq = 0
        self._streams: dict[str, np.random.Generator] = {}
        self.record_trace = record_trace
        self.trace: list[tuple[SimTime, int, str]] = []

    # -- randomness ---------------------------------------------------------

    def rng(self, stream_id: str) -> np.random.Generator:
        """Return the generator for `stream_id`, creating it on first use.

        Identical (seed, stream_id) pairs reproduce identical draw
        sequences; adding or removing other streams does not perturb them.
        """
        gen = self._streams.get(stream_id)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(_stream_entropy(self.seed, stream_id)))
            self._streams[stream_id] = gen
        return gen

    # -- event queue --------------------------------------------------------

    def schedule(self, fire_at: SimTime, kind: str,
                 callback: Callable[[], None], target: Optional[str] = None) -> SimEvent:
        if fire_at < self.now:
            raise CausalityError(
                f"event {kind!r} scheduled at t={fire_at} but clock is {self.now}")
        ev = SimEvent(int(fire_at), self._seq, kind, target, callback)
        self._seq += 1
        heapq.heappush(self._queue, (ev.fire_at, ev.seq, ev))
        return ev

    def schedule_in(self, delay: SimTime, kind: str,
                    callback: Callable[[], None], target: Optional[str] = None) -> SimEvent:
        return self.schedule(self.now + int(delay), kind, callback, target)

    @staticmethod
    def cancel(event: SimEvent) -> None:
        """Mark an event dead; it stays in the heap but will not fire."""
        event.cancelled = True

    def run_until(self, limit: SimTime) -> SimTime:
        """Fire all events with fire_at <= limit; returns the final clock.

        The clock ends at the time of the last fired event (never past
        `limit`); an empty queue returns immediately.
        """
        while self._queue and self._queue[0][0] <= limit:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            self.now = ev.fire_at
            if self.record_trace:
                self.trace.append((ev.fire_at, ev.seq, ev.kind))
            if ev.callback is not None:
                ev.callback()
        return self.now

    def run(self) -> SimTime:
        """Drain the queue completely."""
        return self.run_until(math.inf)
