"""
Deterministic event engine basics
=================================

The engine drives everything else in the package: an integer-second
virtual clock, a totally ordered event queue, and named random streams
that make whole simulations replayable.
"""

from backfillsim import Simulation

# Events fire in (time, insertion order); handlers may schedule more events
# at or after the current clock.
sim = Simulation(seed=7)
log = []

sim.schedule(10, "hello", lambda: log.append(f"t={sim.now}: hello"))
sim.schedule(10, "world", lambda: log.append(f"t={sim.now}: world"))
sim.schedule(25, "late", lambda: log.append(f"t={sim.now}: late"))
sim.run_until(20)
print("\n".join(log))
print("clock stopped at", sim.now, "(the 25s event is still pending)")
sim.run()
print("after run():", sim.now)

# Named random streams are independent: drawing from one never shifts
# another, so adding an entity does not perturb the rest of a run.
sim = Simulation(seed=7)
first = sim.rng("broker-0").normal(size=3)
sim2 = Simulation(seed=7)
sim2.rng("background").normal(size=1000)  # a busy neighbor
second = sim2.rng("broker-0").normal(size=3)
print("\nstream draws identical despite neighbor activity:", (first == second).all())

# Full replay determinism: identical seeds give identical event traces,
# here recorded by the handler itself.
def trace(seed):
    s = Simulation(seed=seed)
    rng = s.rng("walker")
    fired = []

    def step():
        fired.append((s.now, "step"))
        if s.now < 1000:
            s.schedule_in(int(rng.integers(1, 60)), "step", step)

    s.schedule(0, "step", step)
    s.run_until(2000)
    return fired

print("replay trace identical:", trace(3) == trace(3))
