"""
Pilot runtime scaling
=====================

The pilot holds its nodes for the whole walltime and feeds them
generations of tasks, so leftover walltime is never wasted on packaging
and resubmission. Three experiment families:

* weak scaling: one 100-event task per node, 250 to 2000 nodes;
* multi-generation: five 16-event tasks per node, 256 to 2048 nodes;
* strong scaling: a fixed 2048-task set across pilot sizes.
"""

from backfillsim import ScenarioConfig, resolve_config
from backfillsim.scenarios import _run_one_pilot

for scenario in ("weak_scaling", "multi_generation", "strong_scaling"):
    cfg = ScenarioConfig.from_dict(resolve_config({"scenario": scenario, "seed": 1}))
    p = cfg.pilot
    print(f"\n== {scenario} (walltime {p.walltime_s}s)")
    print(f"{'nodes':>6} {'tasks':>6} {'gens':>5} {'pilot_s':>9} "
          f"{'mean_task_s':>12} {'overhead_s':>11}")
    for nodes in p.nodes_list:
        n_units = p.units_total if p.units_total is not None \
            else nodes * p.units_per_node
        rep = _run_one_pilot(cfg, nodes, n_units)
        print(f"{nodes:>6} {n_units:>6} {rep.generations:>5} "
              f"{rep.duration_s:>9.0f} {rep.mean_task_s:>12.0f} "
              f"{rep.overhead_s:>11.1f}")

print("""
Reading the tables:
* weak scaling: overhead grows linearly with the task count while mean
  task duration stays flat;
* multi-generation: five waves fit comfortably inside the 3 h walltime;
* strong scaling: the full task set completes at every size and the
  pilot duration scales down with node count while overhead stays flat.
""")
