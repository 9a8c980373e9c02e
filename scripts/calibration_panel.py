"""Seed panel of the calibration criteria: mean and standard error over seeds.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/calibration_panel.py

The tier-1 acceptance suite checks criteria 6 and 7 on seed 1 only. This
script runs the 30-day `configs/efficiency_month.yaml` at seeds 1-8 (three
runs per seed on one shared background stream: no brokers, 20 brokers, 4
brokers) and prints one row per seed plus mean +- SE of:

* 6a: mean slot nodes and walltime a poller sees on the broker-free cluster;
* 6b: 20-broker efficiency, used over available core-hours (exact ledger);
* 7: core-hours consumed by 20 brokers and by 4;
* the capability utilisation of the broker-free cluster (target 0.965).

It is not part of tier-1 and gates nothing: a month run costs seconds,
so the panel takes a few minutes.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

from backfillsim import ScenarioConfig, load_scenario_file, resolve_config, trace_summary
from backfillsim.scenarios import _run_cluster, _used_core_hours, measured_utilization

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
COLUMNS = ("slot_nodes", "slot_walltime_s", "efficiency", "used20_core_hours",
           "used4_core_hours", "utilization")


def panel_row(seed: int) -> dict:
    cfg = load_scenario_file(ROOT / "configs" / "efficiency_month.yaml")
    cfg["seed"] = seed
    tree = ScenarioConfig.from_dict(resolve_config(cfg))
    total, cores = tree.cluster.total_nodes, tree.cluster.cores_per_node

    _, ledger, poller, _, horizon = _run_cluster(tree, with_brokers=False)
    stats = trace_summary(poller.polls)
    row = {"slot_nodes": stats["mean_nodes"], "slot_walltime_s": stats["mean_walltime_s"],
           "utilization": measured_utilization(ledger.node_seconds((0, horizon)),
                                               total, horizon)}
    for n_brokers in (20, 4):
        _, ledger, _, fleet, horizon = _run_cluster(tree, with_brokers=True,
                                                    n_brokers=n_brokers)
        used = _used_core_hours(fleet.bundles, cores)
        row[f"used{n_brokers}_core_hours"] = used
        if n_brokers == 20:
            row["efficiency"] = used / ledger.core_hours((0, horizon), cores)
    return row


def mean_se(values: list[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


def main() -> None:
    print("seed " + " ".join(f"{c:>17}" for c in COLUMNS), flush=True)
    rows = []
    for seed in SEEDS:
        rows.append(panel_row(seed))
        print(f"{seed:>4} " + " ".join(f"{rows[-1][c]:>17.4f}" for c in COLUMNS), flush=True)
    cells = [mean_se([r[c] for r in rows]) for c in COLUMNS]
    print("mean " + " ".join(f"{m:>17.4f}" for m, _ in cells))
    print("  SE " + " ".join(f"{se:>17.4f}" for _, se in cells))
    in_6b = sum(0.078 <= r["efficiency"] <= 0.309 for r in rows)
    more_with_20 = sum(r["used20_core_hours"] > r["used4_core_hours"] for r in rows)
    print(f"seeds with 6b efficiency in [0.078, 0.309]: {in_6b}/{len(rows)}; "
          f"criterion 7 (20 brokers use more than 4): {more_with_20}/{len(rows)}")


if __name__ == "__main__":
    main()
