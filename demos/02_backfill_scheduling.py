"""
EASY backfill and the slot query
================================

A toy 8-node cluster shows the two guarantees the scheduler makes:

* the queue head gets a reservation that backfill can never push back;
* a job shaped exactly like the reported backfill slot starts instantly.
"""

from backfillsim import (BACKFILL, BatchJob, ClusterConfig,
                         EasyBackfillScheduler, Simulation)

cfg = ClusterConfig(total_nodes=8, cores_per_node=16,
                    backfill_caps=((1 << 31, 86400),),
                    capability_caps=((1 << 31, 86400),))
sim = Simulation(seed=0)
sched = EasyBackfillScheduler(sim, cfg, strict_checks=True)

# A running job holds 5 nodes for 600 s; the next capability job needs 7
# nodes, so it must wait for that release.
running = BatchJob(nodes=5, walltime=600, runtime=600, id="running")
sched.submit(running)
sim.run_until(0)
head = BatchJob(nodes=7, walltime=900, runtime=900, id="blocked-head")
sched.submit(head)
sim.run_until(0)

reserved_at = sched.head_reservation()
print(f"head reservation: {head.nodes} nodes at t={reserved_at}")

slot = sched.query_backfill()
print(f"backfill slot: {slot.nodes} nodes for {slot.walltime}s")

# Submitting exactly the reported rectangle starts immediately and the
# head's start is untouched.
probe = BatchJob(nodes=slot.nodes, walltime=slot.walltime, runtime=slot.walltime,
                 priority_class=BACKFILL, id="slot-shaped")
sched.submit(probe)
sim.run_until(0)
print(f"slot-shaped job started at t={probe.start_time}")

sim.run()
print(f"head started at t={head.start_time} (reservation was t={reserved_at})")

# A job one second longer than the slot would have delayed the head, so the
# scheduler holds it instead.
sim2 = Simulation(seed=0)
sched2 = EasyBackfillScheduler(sim2, cfg, strict_checks=True)
sched2.submit(BatchJob(nodes=5, walltime=600, runtime=600))
sim2.run_until(0)
sched2.submit(BatchJob(nodes=7, walltime=900, runtime=900, id="head2"))
greedy = BatchJob(nodes=3, walltime=601, runtime=601, priority_class=BACKFILL,
                  id="too-long")
sched2.submit(greedy)
sim2.run_until(0)
print(f"\noversized candidate start (None = held): {greedy.start_time}")
