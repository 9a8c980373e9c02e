"""Deterministic discrete-event engine.

A single `Simulation` owns a virtual clock (integer seconds), an ordered
event queue and a registry of named random-number streams. All other
modules (cluster scheduler, brokers, pilots) are driven by callbacks
scheduled here, and one ordered arrival feed (`Simulation.feed`) brings in
external arrivals such as background jobs without putting them on the heap.
Determinism contract: for a fixed root seed, a fixed sequence of schedule()
calls and a fixed feed, the event trace is identical across runs. At equal
times a fed arrival fires before every scheduled event, so feeding arrivals
gives the order that scheduling all of them first would give.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

SimTime = int  # simulated seconds since epoch 0
Arrival = tuple[SimTime, str, Callable[[], None]]  # (fire_at, kind, callback)


class CausalityError(Exception):
    """An event was scheduled, or an arrival fed, in the past; this is a logic
    bug, not input error."""


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
    callback: Callable[[], None]
    target: Optional[str] = None
    cancelled: bool = False


class Simulation:
    """Virtual clock + event queue + arrival feed + per-entity RNG streams.

    Events fire in (fire_at, seq) order; seq is the insertion counter, so
    simultaneous events replay in the order they were scheduled. The heap holds
    `(fire_at, seq, event)` tuples: seq is unique, so no comparison reaches the event.
    Fed arrivals never enter the heap. Each step fires the next fed arrival when
    its fire_at is at or before the heap top: ties go to the arrival, as if every
    arrival had been scheduled before any other event.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now: SimTime = 0
        self._queue: list[tuple[SimTime, int, SimEvent]] = []
        self._seq = 0
        self._feed: Iterator[Arrival] = iter(())
        self._fed: Optional[Arrival] = None  # the next arrival, pulled but not fired
        self._streams: dict[str, np.random.Generator] = {}

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
        ev = SimEvent(int(fire_at), self._seq, kind, callback, target)
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

    def feed(self, arrivals: Iterable[Arrival]) -> None:
        """Fire `(fire_at, kind, callback)` arrivals in the order given.

        The iterable is consumed lazily: the next arrival is pulled only when
        the one before it fires, so at most one pulled arrival lies ahead of
        the clock. Integer fire_at values must never decrease nor lie behind
        the clock; pulling one that does raises `CausalityError`. There is one
        feed: feeding again while arrivals are pending is an error.
        """
        if self._fed is not None:
            raise ValueError("the previous feed still has arrivals pending")
        self._feed = iter(arrivals)
        self._pull()

    def _pull(self) -> None:
        fed = next(self._feed, None)
        if fed is not None and fed[0] < self.now:
            raise CausalityError(
                f"arrival {fed[1]!r} fed at t={fed[0]} but clock is {self.now}")
        self._fed = fed

    def run_until(self, limit: SimTime) -> SimTime:
        """Fire all events and fed arrivals with fire_at <= limit; returns
        the final clock.

        The clock ends at the time of the last fired event (never past
        `limit`); an empty queue and feed return immediately.
        """
        queue = self._queue
        while True:
            fed = self._fed
            if fed is not None and fed[0] <= limit and not (queue and queue[0][0] < fed[0]):
                self.now = fed[0]
                self._pull()
                fed[2]()
            elif queue and queue[0][0] <= limit:
                ev = heapq.heappop(queue)[2]
                if ev.cancelled:
                    continue
                self.now = ev.fire_at
                ev.callback()
            else:
                return self.now

    def run(self) -> SimTime:
        """Drain the queue and the feed completely."""
        return self.run_until(math.inf)
