"""
Traces: poll records and batch-job logs
=======================================

Two text formats move data in and out of the simulator: slot-observation
CSVs (`timestamp_s,nodes,walltime_s`) and Standard Workload Format job
logs. This script writes a synthetic slot trace matched to the measured
production distribution (mean 691 nodes, 126 min), replays a broker
fleet against it, and round-trips an SWF file.
"""

from pathlib import Path

from backfillsim import (PollRecord, ScenarioConfig, TraceJob, emit_poll_trace, emit_swf,
                         ingest_poll_trace, ingest_swf, resolve_config, run_scenario,
                         synthetic_slots, trace_summary)

out = Path("out")
out.mkdir(exist_ok=True)

# A synthetic slot trace fit to the production availability distribution.
cfg = ScenarioConfig.from_dict(
    resolve_config({"scenario": "broker_vs_pilot", "compare": {"slots": 2000}}))
records = [PollRecord(t, n, w) for t, n, w in synthetic_slots(cfg)]
trace_path = out / "synthetic_slots.csv"
emit_poll_trace(trace_path, records)
stats = trace_summary(ingest_poll_trace(trace_path))
print(f"{trace_path}: {stats['count']} polls, mean nodes {stats['mean_nodes']:.0f}, "
      f"mean walltime {stats['mean_walltime_s']/60:.0f} min")

# Replay a small fleet against the recorded slots.
rcfg = resolve_config({"scenario": "replay_efficiency", "horizon_days": 7,
                       "output_dir": "out/replay_demo",
                       "replay": {"trace_path": str(trace_path)}})
manifest = run_scenario(rcfg)
print(f"replay outputs: {sorted(manifest.outputs)}")

# SWF round trip: emit, ingest, compare.
jobs = [TraceJob(submit=0, nodes=4, runtime=100, walltime=200),
        TraceJob(submit=600, nodes=1024, runtime=7200, walltime=10800)]
swf_path = out / "jobs.swf"
emit_swf(swf_path, jobs)
again = ingest_swf(swf_path)
print(f"\nSWF round trip identical: {again == jobs}")
print(f"first job: {again[0]}")
