"""Scenario library: wire the models together, run, and emit CSVs.

Each named scenario reproduces one experiment family:

* ``slot_calibration`` — background load only; records the backfill-slot
  distribution a fixed-cadence poller sees.
* ``efficiency`` — background load plus a broker fleet over a multi-week
  horizon; monthly availability/consumption ledger.
* ``broker_count`` — the efficiency run at two fleet sizes, same seed.
* ``weak_scaling`` / ``multi_generation`` / ``strong_scaling`` — pilot
  scaling experiments; each pilot starts at once on its own nodes.
* ``broker_vs_pilot`` — bundle-per-slot versus multi-generation pilot
  consumption over one shared slot sequence and seed.
* ``replay_efficiency`` — broker fleet driven by an ingested poll trace.

Runners take the `ScenarioConfig` tree built from a resolved config;
`run_scenario` builds it from the plain dict that the manifest hashes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .broker import BrokerFleet, MetricsPoller, bundle_shape
from .config import PILOT_SCALING, ScenarioConfig, config_hash
from .metrics import (AvailabilityLedger, month_windows,
                      total_backfill_availability, window_report, write_window_reports)
from .pilot import AgentTimeline, OverheadModel, PilotReport, run_pilot
from .scheduler import CAPABILITY, BatchJob, EasyBackfillScheduler, ReplayScheduler
from .simcore import Simulation, stream_rng
from .traces import emit_poll_trace, ingest_poll_trace, ingest_swf, trace_summary
from .workload import (BackgroundLoadProfile, UnitDurationModel, generate_background_jobs,
                       job_makespans_batch)


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    engine_version: str
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    def to_json(self) -> str:
        return json.dumps({
            "config_hash": self.config_hash,
            "seed": self.seed,
            "engine_version": self.engine_version,
            "outputs": dict(sorted(self.outputs.items())),
        }, indent=2, sort_keys=True)


# -- shared wiring --------------------------------------------------------------


def _feed_background(sim: Simulation, cluster: EasyBackfillScheduler,
                     bg: BackgroundLoadProfile, horizon: int) -> None:
    """Feed the capability jobs of the background load to `sim` in submit
    order; each `BatchJob` is built only when its arrival fires."""
    total = cluster.config.total_nodes
    cap = cluster.config.cap_for(total, CAPABILITY)
    if bg.trace_path is not None:
        # `ingest_swf` keeps file order; a stable sort keeps it among equal submits
        stream = sorted(((j.submit, j.nodes, j.runtime, j.walltime)
                         for j in ingest_swf(bg.trace_path) if j.submit < horizon),
                        key=itemgetter(0))
    else:
        stream = generate_background_jobs(bg, horizon, sim.rng("background"),
                                          total_nodes=total, capability_cap_s=cap)

    # the scheduler ends a job at its walltime, so its runtime may run past it
    def submit(nodes: int, runtime: int, walltime: int) -> None:
        nodes = min(nodes, total)
        walltime = min(walltime, cluster.config.cap_for(nodes, CAPABILITY))
        cluster.submit(BatchJob(nodes=nodes, walltime=walltime, runtime=runtime,
                                priority_class=CAPABILITY))

    sim.feed((at, "capability_arrival", partial(submit, nodes, runtime, walltime))
             for at, nodes, runtime, walltime in stream)


def measured_utilization(available_node_seconds: int, total_nodes: int,
                         horizon: int) -> float:
    """Share of node-seconds in [0, horizon) that capability jobs held, from
    the ledger's `node_seconds((0, horizon))`.

    Only capability and backfill jobs run on the EASY cluster, so every node
    that is neither free nor backfill-held (the ledger's level) is busy with
    a capability job. Integer arithmetic keeps the ratio exact."""
    capacity = total_nodes * horizon
    return (capacity - available_node_seconds) / capacity


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finish_manifest(cfg: dict, out_dir: Path, files: list[Path]) -> RunManifest:
    manifest = RunManifest(config_hash=config_hash(cfg), seed=cfg["seed"],
                           engine_version=__version__)
    for f in files:
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        manifest.outputs[f.name] = digest
    (out_dir / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


# -- cluster scenarios -----------------------------------------------------------


def _run_cluster(cfg: ScenarioConfig, with_brokers: bool, n_brokers: int | None = None):
    """Shared core of the efficiency-family scenarios."""
    horizon = int(cfg.horizon_days * 86400)
    sim = Simulation(seed=cfg.seed)
    cluster = EasyBackfillScheduler(sim, cfg.cluster)
    ledger = AvailabilityLedger(sim, cluster)
    _feed_background(sim, cluster, cfg.background, horizon)
    poller = MetricsPoller(sim, cluster, cfg.metrics.poll_interval_s)
    poller.start(0)
    fleet = None
    if with_brokers:
        broker = cfg.broker if n_brokers is None else replace(cfg.broker, n_brokers=n_brokers)
        fleet = BrokerFleet(sim, cluster, broker, cfg.workload)
        fleet.start(0)
    sim.run_until(horizon)
    return cluster, ledger, poller, fleet, horizon


def _window_reports(cfg: ScenarioConfig, bundles, horizon: int,
                    avail: Callable[[tuple[int, int], int], float]):
    """(label, report) per calendar month; `avail(window, cores_per_node)`
    gives the window's available core-hours."""
    cores = cfg.cluster.cores_per_node
    return [(label, window_report(bundles, (w0, w1), cores, avail((w0, w1), cores)))
            for label, w0, w1 in month_windows(cfg.start_date, horizon)]


def _used_core_hours(bundles, cores_per_node: int) -> float:
    return sum(b.nodes * cores_per_node * (b.end_time - b.start_time) / 3600.0
               for b in bundles)


def _efficiency_outputs(cfg: ScenarioConfig, out_dir: Path, cluster, ledger, poller, fleet,
                        horizon) -> list[Path]:
    files = []
    slots_path = out_dir / "slots.csv"
    emit_poll_trace(slots_path, poller.polls)
    files.append(slots_path)

    avail = (ledger.core_hours if cfg.metrics.availability_credit == "rate"
             else partial(total_backfill_availability, poller.polls))
    monthly = out_dir / "monthly_report.csv"
    write_window_reports(monthly, _window_reports(cfg, fleet.bundles if fleet else [],
                                                  horizon, avail))
    files.append(monthly)

    if fleet is not None:
        bundles_path = out_dir / "bundles.csv"
        fleet.write_bundle_log(bundles_path)
        files.append(bundles_path)

    stats = trace_summary(poller.polls)
    cores = cluster.config.cores_per_node
    node_seconds = ledger.node_seconds((0, horizon))
    summary = {
        "horizon_s": horizon,
        "poll_count": stats["count"],
        "mean_slot_nodes": round(stats["mean_nodes"], 3),
        "mean_slot_walltime_s": round(stats["mean_walltime_s"], 3),
        "capability_utilization": round(
            measured_utilization(node_seconds, cluster.config.total_nodes, horizon), 5),
        # the same float AvailabilityLedger.core_hours returns
        "avail_core_hours": round(node_seconds * cores / 3600.0, 3),
    }
    if fleet is not None:
        used = _used_core_hours(fleet.bundles, cores)
        summary.update({
            "used_core_hours": round(used, 3),
            "efficiency": round(used / summary["avail_core_hours"], 5)
            if summary["avail_core_hours"] else None,
            "bundles": len(fleet.bundles),
            "payloads_done": sum(b.payloads_done for b in fleet.bundles),
            "payloads_failed": sum(b.payloads_failed for b in fleet.bundles),
        })
    summary_path = out_dir / "summary.yaml"
    summary_path.write_text(yaml.safe_dump(summary, sort_keys=True))
    files.append(summary_path)
    return files


def run_efficiency(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    parts = _run_cluster(cfg, with_brokers=True)
    return _efficiency_outputs(cfg, out_dir, *parts)


def run_slot_calibration(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    parts = _run_cluster(cfg, with_brokers=False)
    return _efficiency_outputs(cfg, out_dir, *parts)


def run_broker_count(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    counts = sorted({4, cfg.broker.n_brokers})
    rows = []
    for count in counts:
        cluster, ledger, _, fleet, horizon = _run_cluster(cfg, with_brokers=True,
                                                          n_brokers=count)
        cores = cluster.config.cores_per_node
        used = _used_core_hours(fleet.bundles, cores)
        avail = ledger.core_hours((0, horizon), cores)
        rows.append([count, f"{used:.3f}", f"{avail:.3f}",
                     f"{used / avail:.6f}" if avail else "",
                     len(fleet.bundles), sum(b.payloads_done for b in fleet.bundles)])
    path = out_dir / "broker_count.csv"
    _write_csv(path, ["n_brokers", "used_core_hours", "avail_core_hours",
                      "efficiency", "bundles", "payloads_done"], rows)
    return [path]


# -- pilot scaling scenarios -----------------------------------------------------


def _run_one_pilot(cfg: ScenarioConfig, nodes: int, n_units: int) -> PilotReport:
    p = cfg.pilot
    durations = UnitDurationModel(p.unit_mean_s, p.unit_sd_s).sample(
        n_units, stream_rng(cfg.seed, f"pilot-{nodes}-units"))
    return run_pilot(nodes, p.walltime_s, durations.tolist(), p)


def run_pilot_scaling(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    p = cfg.pilot
    rows = []
    for nodes in p.nodes_list:
        if p.units_total is not None:
            n_units = p.units_total
        else:
            n_units = nodes * p.units_per_node
        report = _run_one_pilot(cfg, nodes, n_units)
        rows.append([cfg.scenario, nodes, n_units, report.generations,
                     f"{report.duration_s:.3f}", f"{report.mean_task_s:.3f}",
                     f"{report.overhead_s:.3f}"])
    path = out_dir / "scaling.csv"
    _write_csv(path, ["scenario", "pilot_nodes", "units", "generations",
                      "pilot_duration_s", "mean_task_s", "overhead_s"], rows)
    return [path]


# -- broker versus pilot over one slot sequence ----------------------------------


def synthetic_slots(cfg: ScenarioConfig) -> list[tuple[int, int, int]]:
    """(observed_at, nodes, walltime) slot sequence from the compare block."""
    c = cfg.compare
    rng = stream_rng(cfg.seed, "compare-slots")
    total = cfg.cluster.total_nodes
    mu_n = math.log(c.slot_nodes_mean) - 0.5 * c.slot_nodes_sigma ** 2
    mu_w = math.log(c.slot_walltime_mean_s) - 0.5 * c.slot_walltime_sigma ** 2
    slots = []
    # lognormal(mu, sigma) is exp(mu + sigma * standard_normal()), its bits
    # and stream, at a fraction of the scalar method call's cost
    for i in range(c.slots):
        nodes = int(min(max(math.exp(mu_n + c.slot_nodes_sigma * rng.standard_normal()), 1),
                        total))
        walltime = int(min(max(math.exp(mu_w + c.slot_walltime_sigma
                                        * rng.standard_normal()), 60), 86400))
        slots.append((i * c.slot_interval_s, nodes, walltime))
    return slots


def consume_slot_broker(nodes: int, walltime: int, makespans: np.ndarray,
                        cores: int) -> tuple[float, int, float]:
    """(core-hours, payloads done, held seconds) for one bundle sized to the
    slot: the job ends when its slowest payload does, or at walltime."""
    duration = min(walltime, int(math.ceil(float(makespans.max()))))
    done = int(np.sum(makespans <= duration))
    return nodes * cores * duration / 3600.0, done, duration


def consume_slot_pilot(nodes: int, walltime: int, first: np.ndarray,
                       draw: Callable[[float], np.ndarray], overheads: OverheadModel,
                       cores: int) -> tuple[float, int]:
    """(core-hours, units done) for a pilot holding the slot to its walltime
    and running generations of units drawn from the same payload pool.

    `first` holds the unit durations of the first generation. While the
    pilot can still start a unit, it pulls the next generation with
    `draw(walltime - next_start)`, the time left to the first unit that
    generation can start, and `draw` may return +inf for a unit that cannot
    end within it (`job_makespans_batch`'s `deadline`). Such a unit is
    recorded as incomplete with end `walltime`, as its exact duration would
    be: it starts no earlier than `next_start` and ends past the walltime.
    No later unit starts on its node, and no other record changes. Each
    generation is one `add_units` call, which usually places it in one
    numpy step, and the units done come from the timeline's counts, not
    from its unit records."""
    timeline = AgentTimeline(nodes, walltime, overheads)
    durations = first
    while True:
        timeline.add_units(durations)
        start = timeline.next_start()
        if start >= walltime:
            break
        durations = draw(walltime - start)
    timeline.finalize()
    return nodes * cores * walltime / 3600.0, timeline.units_started - timeline.units_cut


# first-generation uniforms per batch call in `run_broker_vs_pilot`: 1,000
# payloads of 100 events share one call's fixed numpy cost, for about 1 MiB
CHUNK_UNIFORMS = 100_000


def run_broker_vs_pilot(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    w, b = cfg.workload, cfg.broker
    cores, events = cfg.cluster.cores_per_node, b.job_spec.events

    # one generation of payloads per draw, from `rng` or of drawn `uniforms`
    def draw(nodes, rng, deadline=math.inf, uniforms=None):
        return job_makespans_batch(nodes, b.job_spec, w.payload_model, rng,
                                   contention=w.contention, setup_s=w.setup_s,
                                   deadline=deadline, uniforms=uniforms)

    # the accepted slots, with their streams, in chunks of consecutive slots
    # of at most CHUNK_UNIFORMS first-generation uniforms, or of one slot
    rows, chunks, chunk_rows = [], [], math.inf
    for i, (at, slot_nodes, slot_walltime) in enumerate(synthetic_slots(cfg)):
        rows.append([i, at, slot_nodes, slot_walltime])
        shape = bundle_shape(slot_nodes, slot_walltime, b, cfg.cluster)
        if shape is None:
            rows[-1] += [0, 0, 0, "0.000", "0.000", 0, 0, 0]
            continue
        nodes, walltime = shape
        rows[-1] += [1, nodes, walltime]
        if (chunk_rows + nodes) * events > CHUNK_UNIFORMS:
            chunks.append([])
            chunk_rows = 0
        chunks[-1].append((rows[-1], stream_rng(cfg.seed, f"compare-payloads-{i}")))
        chunk_rows += nodes
    # pages of the buffer that no chunk reaches are never touched
    buffer = np.empty(max(CHUNK_UNIFORMS, b.max_nodes_per_bundle * events))
    for chunk in chunks:
        # each slot draws its first generation from its own stream, in slot
        # order, and one batch maps them all; rows are independent, so each
        # gets the bits of a batch of its own before its later generations
        used = 0
        for row, rng in chunk:
            n = row[5] * events
            w.payload_model.uniforms(n, rng, out=buffer[used:used + n])
            used += n
        first = draw(used // events, None, uniforms=buffer[:used])
        for row, rng in chunk:
            nodes, walltime = row[5:7]
            # the first generation is the broker's bundle
            bundle, first = first[:nodes], first[nodes:]
            broker_ch, broker_done, held = consume_slot_broker(nodes, walltime, bundle, cores)
            pilot_ch, pilot_done = consume_slot_pilot(nodes, walltime, bundle,
                                                      partial(draw, nodes, rng), cfg.pilot,
                                                      cores)
            row += [f"{broker_ch:.3f}", f"{pilot_ch:.3f}", broker_done, pilot_done,
                    int(walltime - held)]
    path = out_dir / "broker_vs_pilot.csv"
    _write_csv(path, ["slot", "observed_at", "slot_nodes", "slot_walltime_s",
                      "accepted", "bundle_nodes", "walltime_s",
                      "broker_core_hours", "pilot_core_hours",
                      "broker_payloads_done", "pilot_units_done", "residual_s"],
               rows)
    return [path]


# -- replay ----------------------------------------------------------------------


def run_replay_efficiency(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    # Replayed records are stale snapshots of a world that never saw this
    # fleet, so availability is credited per record as nodes x cores x
    # walltime: each record is a rectangle the fleet can take at most once,
    # which keeps used <= avail by construction.
    records = ingest_poll_trace(cfg.replay.trace_path)
    horizon = int(cfg.horizon_days * 86400)
    sim = Simulation(seed=cfg.seed)
    cluster = ReplayScheduler(sim, records, cfg.cluster)
    fleet = BrokerFleet(sim, cluster, cfg.broker, cfg.workload)
    fleet.start(0)
    sim.run_until(horizon)

    monthly = out_dir / "monthly_report.csv"
    write_window_reports(monthly, _window_reports(
        cfg, fleet.bundles, horizon, partial(total_backfill_availability, records)))
    bundles_path = out_dir / "bundles.csv"
    fleet.write_bundle_log(bundles_path)
    return [monthly, bundles_path]


# -- entry point -------------------------------------------------------------------


_RUNNERS = {
    "efficiency": run_efficiency,
    "slot_calibration": run_slot_calibration,
    "broker_count": run_broker_count,
    **dict.fromkeys(PILOT_SCALING, run_pilot_scaling),
    "broker_vs_pilot": run_broker_vs_pilot,
    "replay_efficiency": run_replay_efficiency,
}


def run_scenario(cfg: dict, base_dir: Path | str = ".") -> RunManifest:
    """Execute a resolved scenario config; returns the manifest of outputs."""
    tree = ScenarioConfig.from_dict(cfg)
    out_dir = Path(base_dir) / tree.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _RUNNERS[tree.scenario](tree, out_dir)
    return _finish_manifest(cfg, out_dir, files)
