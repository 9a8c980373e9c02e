"""Peak memory of the `efficiency_month` run at 2 and 30 simulated days.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/month_memory.py [--days 2 30]

For each horizon, two fresh child processes run
`configs/efficiency_month.yaml` through `run_scenario` into a temporary
directory:

* the first runs untraced and reports its peak RSS
  (`resource.getrusage(RUSAGE_SELF).ru_maxrss`) and its wall time;
* the second runs under `tracemalloc`, started before `backfillsim` is
  imported, and resets the traced peak at each phase boundary: import and
  resolve, set-up (everything before the first event fires), each
  simulated day, and writing the outputs. It reports the overall traced
  peak, the phase that reached it, the set-up phase's own peak, and the
  memory still live when the last event has fired.

The days are fired by calling the original `Simulation.run_until` once per
day boundary, which fires the same events in the same order as one call.
Only process-level tools are used; a 30-day traced child takes about half
a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "efficiency_month.yaml"
DAY = 86400
MIB = 1024 * 1024


def _resolved(days: float) -> dict:
    from backfillsim import load_scenario_file, resolve_config
    raw = load_scenario_file(CONFIG)
    raw["horizon_days"] = days
    return resolve_config(raw)


def child_rss(days: float) -> dict:
    t0 = time.perf_counter()
    from backfillsim import run_scenario
    cfg = _resolved(days)
    with tempfile.TemporaryDirectory() as base:
        run_scenario(cfg, base_dir=base)
    return {"wall_s": time.perf_counter() - t0,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def child_trace(days: float) -> dict:
    tracemalloc.start()
    phases: list[tuple[str, int]] = []
    live_after_run = []

    def close(phase: str) -> None:
        phases.append((phase, tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()

    from backfillsim import Simulation, run_scenario
    cfg = _resolved(days)
    close("import and resolve")
    original = Simulation.run_until

    def run_by_day(sim, limit):
        close("set-up, before the first event")
        for end in range(DAY, int(limit) + DAY, DAY):
            original(sim, min(end, limit))
            close(f"simulated day {end // DAY}")
        live_after_run.append(tracemalloc.get_traced_memory()[0])
        return sim.now

    Simulation.run_until = run_by_day
    try:
        with tempfile.TemporaryDirectory() as base:
            run_scenario(cfg, base_dir=base)
    finally:
        Simulation.run_until = original
    close("outputs")
    phase, peak = max(phases, key=lambda p: p[1])
    return {"traced_peak_mib": peak / MIB, "reached_in": phase,
            "live_after_run_mib": live_after_run[0] / MIB,
            "setup_peak_mib": dict(phases)["set-up, before the first event"] / MIB}


def run_child(mode: str, days: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__, "--child", mode, "--days", str(days)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=float, nargs="+", default=[2, 30])
    parser.add_argument("--child", choices=("rss", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        measure = child_rss if args.child == "rss" else child_trace
        print(json.dumps(measure(args.days[0])))
        return
    print(f"{'days':>5} {'wall s':>7} {'peak RSS MiB':>13} {'traced peak MiB':>16} "
          f"{'set-up peak MiB':>16} {'live after run MiB':>19}  traced peak reached in")
    for days in args.days:
        rss, traced = run_child("rss", days), run_child("trace", days)
        print(f"{days:>5g} {rss['wall_s']:>7.2f} {rss['peak_rss_mib']:>13.1f} "
              f"{traced['traced_peak_mib']:>16.1f} {traced['setup_peak_mib']:>16.1f} "
              f"{traced['live_after_run_mib']:>19.1f}  {traced['reached_in']}", flush=True)


if __name__ == "__main__":
    main()
