"""Scalar reference for the batched payload makespan.

`job_makespan` schedules one payload's events task by task, with a heap of
slot finish times; `job_makespans_batch` in the library must agree with it
payload for payload when both draw from the same stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from backfillsim import ContentionModel, SimJobSpec


@dataclass(frozen=True)
class ConstantDurationModel:
    """Degenerate event model for arithmetic checks."""

    value_s: float
    calibrated_at: int = 16

    def mean(self) -> float:
        return self.value_s

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(self.uniforms(n, rng))

    def uniforms(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(n)

    def transform(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty(np.shape(u)) if out is None else out
        out[...] = self.value_s
        return out


@dataclass(frozen=True)
class SmallIntegerDurationModel:
    """Event durations drawn from {1, 2, 3} seconds, so slot ends tie often."""

    calibrated_at: int = 16

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(self.uniforms(n, rng))

    def uniforms(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(n)

    def transform(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.floor(1.0 + 3.0 * u, out=out)


def list_schedule_makespan(durations: np.ndarray, slots: int) -> float:
    """Greedy list scheduling: each task goes to the earliest-free slot."""
    if len(durations) <= slots:
        return float(np.max(durations))
    finish = [0.0] * slots
    heapq.heapify(finish)
    for d in durations:
        heapq.heappush(finish, heapq.heappop(finish) + float(d))
    return max(finish)


def job_makespan(spec: SimJobSpec, model, rng: np.random.Generator,
                 contention: Optional[ContentionModel] = None,
                 setup_s: float = 0.0) -> float:
    """Setup time plus the list-scheduling makespan of the payload's events."""
    durations = model.sample(spec.events, rng)
    if contention is not None:
        durations = durations * contention.scale(spec.slots_per_node, model.calibrated_at)
    return setup_s + list_schedule_makespan(durations, spec.slots_per_node)
