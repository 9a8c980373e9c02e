"""
Broker fleet over backfill gaps
===============================

Three simulated days of the full pipeline: calibrated capability load
keeps the machine ~96% busy, a fleet of brokers polls the scheduler for
backfill slots and packs one bundle each, and the accounting ledger
reports how much of the leftover capacity they captured, and why the
failed payloads failed.

Takes about ten seconds.
"""

from collections import Counter

from backfillsim import ScenarioConfig, resolve_config, window_report
from backfillsim.scenarios import _run_cluster, measured_utilization
from backfillsim.traces import trace_summary

cfg = ScenarioConfig.from_dict(
    resolve_config({"scenario": "efficiency", "seed": 1, "horizon_days": 3}))
cluster, ledger, poller, fleet, horizon = _run_cluster(cfg, with_brokers=True)

node_seconds = ledger.node_seconds((0, horizon))  # free plus backfill-held
util = measured_utilization(node_seconds, cluster.config.total_nodes, horizon)
stats = trace_summary(poller.polls)
print(f"capability utilization: {util:.3f}")
print(f"slot distribution seen by the poller: mean {stats['mean_nodes']:.0f} nodes, "
      f"mean walltime {stats['mean_walltime_s']/60:.0f} min")

cores = cluster.config.cores_per_node
avail = node_seconds * cores / 3600.0
used = window_report(fleet.bundles, (0, horizon), cores, avail).used_core_hours
print(f"\nbackfill availability: {avail/1e3:.0f}k core-hours")
print(f"consumed by {cfg.broker.n_brokers} brokers: {used/1e3:.0f}k "
      f"core-hours (efficiency {used/avail:.1%})")

done = sum(b.payloads_done for b in fleet.bundles)
failed = sum(b.payloads_failed for b in fleet.bundles)
print(f"bundles: {len(fleet.bundles)}, payloads done: {done}, failed: {failed} "
      f"({failed/(done+failed):.1%})")
print(f"events processed: {done * cfg.broker.events_per_job}")
causes = Counter()
for b in fleet.bundles:
    causes.update(b.failures)
print("failed payloads by cause: "
      + ", ".join(f"{cause} {n}" for cause, n in causes.most_common()))

sizes = sorted(b.nodes for b in fleet.bundles)
print(f"bundle sizes: min {sizes[0]}, median {sizes[len(sizes)//2]}, "
      f"max {sizes[-1]} nodes (floors: 15..300)")
