"""
Detector-simulation payload model
=================================

Per-event durations (truncated log-normal, 2-40 min, 14-min mean at
16-way concurrency), the floating-point contention penalty between 8-way
and 16-way operation, and the resulting 100-event node makespan.
"""

import numpy as np

from backfillsim import SetupModel, SimJobSpec, WorkloadConfig, job_makespans_batch, stream_rng

workload = WorkloadConfig()  # the calibrated `workload` config defaults
model = workload.payload_model
rng = stream_rng(0, "demo")

x = model.sample(100_000, rng)
print(f"event durations: mean {x.mean()/60:.2f} min, "
      f"range [{x.min()/60:.1f}, {x.max()/60:.1f}] min")

contention = workload.contention
print(f"16-way slowdown over 8-way: {contention.slowdown(16):.3f} "
      f"(= 14.25/10.8)")
m8 = model.sample(50_000, stream_rng(1, "c8")) * contention.scale(8, 16)
print(f"per-event mean at 8-way: {m8.mean()/60:.2f} min, "
      f"at 16-way: {x.mean()/60:.2f} min")

# 100 events on a 16-worker node: list scheduling gives the makespan.
spec = SimJobSpec(events=100, slots_per_node=16)
makespans = job_makespans_batch(5000, spec, model, stream_rng(2, "ms"))
print(f"\n100-event node makespan: mean {makespans.mean()/60:.1f} min "
      f"(p5 {np.percentile(makespans, 5)/60:.0f}, "
      f"p95 {np.percentile(makespans, 95)/60:.0f})")

# Framework setup costs depend on where libraries and event data live.
setup = SetupModel()
for fs, src in (("shared", "shared"), ("readonly", "shared"), ("readonly", "ramdisk")):
    print(f"setup({fs} libs, {src} events) = {setup.setup_seconds(fs, src)}s")
