"""Job-broker fleet: poll the backfill slot, pack one bundle per broker.

Each broker cycles through fetch -> stage-in -> poll -> submit -> monitor
-> stage-out, with at most one outstanding bundle at any time. A bundle
wraps one full-node payload per worker node and is sized to the reported
slot, clamped to the fleet's node bounds; slots shorter than the minimum
useful walltime (the mean time to process one payload) are declined and
re-polled later.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .domains import Checked, Count, NonNegative, NonNegativeInt, Probability
from .scheduler import BACKFILL, BatchJob, ClusterConfig
from .simcore import Simulation
from .workload import IoProfile, SimJobSpec, WorkloadConfig, job_makespans_batch


def transfer_seconds(base_s: float, per_gb_s: float, gb: float) -> int:
    """Stage-in/out duration: constant plus per-gigabyte cost."""
    return max(1, int(math.ceil(base_s + per_gb_s * gb)))


@dataclass(frozen=True)
class FailureModel:
    """Per-payload failure draw; `failure_mix` is (cause, share) pairs."""

    failure_prob: float
    failure_mix: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class FailureMix(Checked):
    """Shares of failed payloads by cause: the `broker.failure_mix` keys."""

    broker: Probability = 0.19
    dispatcher: Probability = 0.29
    payload: Probability = 0.13
    other: Probability = 0.39


@dataclass(frozen=True)
class BrokerConfig(Checked):
    """The `broker` config section. Construction checks the bundle shape
    and builds the payload spec and failure model from it."""

    n_brokers: Count = 20
    # a NaN or infinite floor declines every slot, so the fleet never submits
    min_slot_walltime_s: NonNegative = 6300
    events_per_job: Count = 100
    max_nodes_per_bundle: Count = 300
    min_nodes_per_bundle: Count = 15
    poll_interval_s: Count = 540
    slots_per_node: Literal[8, 16] = 16
    sizing_policy: Literal["fixed", "fit_walltime"] = "fixed"
    job_limit: Optional[NonNegativeInt] = None  # finite job source when set
    stage_in_base_s: NonNegative = 300.0  # the transfer time is an int
    stage_in_per_gb_s: NonNegative = 40.0
    stage_out_base_s: NonNegative = 300.0
    stage_out_per_gb_s: NonNegative = 40.0
    failure_prob: Probability = 0.136
    failure_mix: FailureMix = field(default_factory=FailureMix)
    job_spec: SimJobSpec = field(init=False, repr=False)
    failure: FailureModel = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.min_nodes_per_bundle > self.max_nodes_per_bundle:
            raise ValueError("min_nodes_per_bundle must not exceed max_nodes_per_bundle")
        # sorted, so the cause order (and with it every draw) is fixed
        mix = tuple(sorted(vars(self.failure_mix).items()))
        total = sum(share for _, share in mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"failure_mix must sum to 1, got {total}")
        object.__setattr__(self, "job_spec",
                           SimJobSpec(self.events_per_job, self.slots_per_node))
        object.__setattr__(self, "failure", FailureModel(self.failure_prob, mix))


def bundle_shape(nodes: int, walltime: int, cfg: BrokerConfig,
                 cluster: ClusterConfig) -> Optional[tuple[int, int]]:
    """The (nodes, walltime) of the bundle sized to a slot of `nodes` x
    `walltime`, or None when the slot is declined: it has fewer than
    `min_nodes_per_bundle` nodes, or its walltime, clamped to the backfill
    band cap of the bundle's node count, falls below `min_slot_walltime_s`."""
    if nodes < cfg.min_nodes_per_bundle:
        return None
    nodes = min(nodes, cfg.max_nodes_per_bundle)
    walltime = min(walltime, cluster.cap_for(nodes, BACKFILL))
    return (nodes, walltime) if walltime >= cfg.min_slot_walltime_s else None


@dataclass(eq=False)
class Bundle(BatchJob):
    """The backfill `BatchJob` a broker submits: one full-node payload per
    node. The scheduler sets its times and `killed`; when it ends, its
    broker sets `payloads_done` and `failures`, the failed payloads counted
    by cause (`bundle_outcomes`). It keeps nothing per payload."""

    events_per_payload: int = field(kw_only=True)
    payloads_done: int = field(default=0, kw_only=True)
    failures: dict[str, int] = field(default_factory=dict, kw_only=True)

    @property
    def payloads_failed(self) -> int:
        return sum(self.failures.values())


def bundle_outcomes(makespans: np.ndarray, elapsed: float, failure_model: FailureModel,
                    rng: np.random.Generator) -> tuple[int, dict[str, int]]:
    """(payloads done, failures by cause) of a bundle that ran `elapsed`
    seconds. A payload past it fails as "walltime"; any other fails with
    `failure_prob`, its cause drawn from the sorted mix. Every payload
    draws, and every failure draws a cause, cut off or not."""
    cut = makespans > elapsed
    failed = rng.random(len(makespans)) < failure_model.failure_prob
    names = [name for name, _ in failure_model.failure_mix]
    causes = np.zeros(len(names), dtype=np.int64)
    if failed.any():
        weights = np.array([w for _, w in failure_model.failure_mix])
        picks = rng.choice(len(names), size=np.count_nonzero(failed), p=weights / weights.sum())
        causes = np.bincount(picks[~cut[failed]], minlength=len(names))
    return (int(np.count_nonzero(~(cut | failed))),
            {"walltime": int(np.count_nonzero(cut)), **dict(zip(names, causes.tolist()))})


class Broker:
    """One broker: at most one outstanding bundle."""

    def __init__(self, fleet: "BrokerFleet", index: int):
        self.fleet = fleet
        self.index = index
        self.rng = fleet.sim.rng(f"broker-{index}")
        self._counter = 0
        self._makespans: Optional[np.ndarray] = None  # of the outstanding bundle

    def start(self, at: int) -> None:
        self.fleet.sim.schedule(at, "broker_fetch", self._fetch, target=self._name)

    @property
    def _name(self) -> str:
        return f"broker-{self.index}"

    def _fetch(self) -> None:
        # Work descriptions are fetched ahead of staging; an empty finite
        # source leaves the broker idle for good.
        jobs_left = self.fleet.jobs_left
        if jobs_left is not None and jobs_left < self.fleet.cfg.min_nodes_per_bundle:
            return
        # Inputs are staged before the slot is known, so the transfer covers
        # a full-size bundle's worth of payloads.
        per_node = float(self.fleet.io.read_gb_per_node.sample(1, self.rng)[0])
        cfg = self.fleet.cfg
        gb = per_node * cfg.max_nodes_per_bundle
        delay = transfer_seconds(cfg.stage_in_base_s, cfg.stage_in_per_gb_s, gb)
        self.fleet.sim.schedule_in(delay, "broker_staged_in", self._poll, target=self._name)

    def _poll(self) -> None:
        cfg = self.fleet.cfg
        slot = self.fleet.cluster.query_backfill()
        jobs_left = self.fleet.jobs_left
        if jobs_left is not None and jobs_left < cfg.min_nodes_per_bundle:
            return  # other brokers took the last jobs during stage-in
        # a finite source caps the bundle before its band is looked up
        nodes = slot.nodes if jobs_left is None else min(slot.nodes, jobs_left)
        shape = bundle_shape(nodes, slot.walltime, cfg, self.fleet.cluster.config)
        if shape is None:
            self.fleet.sim.schedule_in(cfg.poll_interval_s, "broker_repoll",
                                       self._poll, target=self._name)
        else:
            self._submit(*shape)

    def _submit(self, nodes: int, walltime: int) -> None:
        cfg = self.fleet.cfg
        workload = self.fleet.workload
        spec = cfg.job_spec
        if cfg.sizing_policy == "fit_walltime":
            mean_event = workload.payload_model.mean()
            budget = walltime - workload.setup_s
            events = max(1, cfg.slots_per_node * int(budget // mean_event))
            spec = SimJobSpec(events=events, slots_per_node=cfg.slots_per_node)
        makespans = job_makespans_batch(nodes, spec, workload.payload_model,
                                        self.rng, contention=workload.contention,
                                        setup_s=workload.setup_s)
        runtime = max(1, int(math.ceil(float(makespans.max()))))
        bundle = Bundle(nodes=nodes, walltime=walltime, priority_class=BACKFILL,
                        runtime=runtime, id=f"bundle-{self.index}-{self._counter}",
                        on_end=self._on_end, events_per_payload=spec.events)
        self._makespans = makespans
        self._counter += 1
        self.fleet.cluster.submit(bundle)
        if self.fleet.jobs_left is not None:
            self.fleet.jobs_left -= nodes

    def _on_end(self, bundle: Bundle) -> None:
        elapsed = bundle.end_time - bundle.start_time
        bundle.payloads_done, bundle.failures = bundle_outcomes(
            self._makespans, elapsed, self.fleet.cfg.failure, self.rng)
        self._makespans = None
        self.fleet.record_bundle(bundle)
        per_node = float(self.fleet.io.written_gb_per_node.sample(1, self.rng)[0])
        cfg = self.fleet.cfg
        gb = per_node * bundle.nodes
        delay = transfer_seconds(cfg.stage_out_base_s, cfg.stage_out_per_gb_s, gb)
        self.fleet.sim.schedule_in(delay, "broker_staged_out", self._fetch,
                                   target=self._name)


class BrokerFleet:
    """All brokers plus `bundles`, every finished bundle in end order."""

    def __init__(self, sim: Simulation, cluster, cfg: BrokerConfig,
                 workload: WorkloadConfig):
        self.sim = sim
        self.cluster = cluster
        self.cfg = cfg
        self.workload = workload
        self.io = IoProfile.default()
        self.jobs_left: Optional[int] = cfg.job_limit  # None: no limit
        self.brokers = [Broker(self, i) for i in range(cfg.n_brokers)]
        self.bundles: list[Bundle] = []

    def start(self, at: int = 0) -> None:
        # Staggered starts keep brokers from polling in lockstep.
        for i, broker in enumerate(self.brokers):
            broker.start(at + i)

    def record_bundle(self, bundle: Bundle) -> None:
        self.bundles.append(bundle)

    def write_bundle_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bundle", "submit", "start", "end", "nodes", "walltime",
                             "outcome", "payloads_done", "payloads_failed"])
            for b in self.bundles:
                outcome = "walltime_killed" if b.killed else "completed"
                writer.writerow([b.id, b.submit_time, b.start_time, b.end_time,
                                 b.nodes, b.walltime, outcome,
                                 b.payloads_done, b.payloads_failed])


class MetricsPoller:
    """Samples the backfill slot at a fixed cadence into a poll ledger."""

    def __init__(self, sim: Simulation, cluster, interval_s: int):
        self.sim = sim
        self.cluster = cluster
        self.interval_s = interval_s
        self.polls = []  # one `PollRecord` per poll, as `query_backfill` returns it

    def start(self, at: int = 0) -> None:
        self.sim.schedule(at, "metrics_poll", self._poll, target="metrics-poller")

    def _poll(self) -> None:
        self.polls.append(self.cluster.query_backfill())
        self.sim.schedule_in(self.interval_s, "metrics_poll", self._poll,
                             target="metrics-poller")
