import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import backfillsim
from backfillsim import (BACKFILL, CAPABILITY, BatchJob, ClusterConfig,
                         EasyBackfillScheduler, ReplayScheduler, Simulation,
                         SubmitError)
from backfillsim.metrics import PollRecord
from backfillsim.scheduler import _queue_key

from easy_oracle import OracleJob, simulate

UNCAPPED = ClusterConfig(total_nodes=4, cores_per_node=16,
                         backfill_caps=((1 << 31, 1 << 30),),
                         capability_caps=((1 << 31, 1 << 30),))


def both_sources(cfg):
    """A live EASY queue and a trace replay: the two users of one job lifecycle."""
    return [EasyBackfillScheduler(Simulation(), cfg), ReplayScheduler(Simulation(), [], cfg)]


def make(total_nodes=4):
    sim = Simulation(seed=0)
    cfg = ClusterConfig(total_nodes=total_nodes, cores_per_node=16,
                        backfill_caps=((1 << 31, 1 << 30),),
                        capability_caps=((1 << 31, 1 << 30),))
    return sim, EasyBackfillScheduler(sim, cfg, strict_checks=True)


def test_job_on_idle_cluster_starts_at_submit_time():
    sim, sched = make(total_nodes=300)
    job = BatchJob(nodes=300, walltime=600, runtime=600, priority_class=BACKFILL)
    sched.submit(job)
    sim.run_until(0)
    assert job.start_time == 0


def test_oversized_job_rejected():
    sim, sched = make(total_nodes=4)
    with pytest.raises(SubmitError):
        sched.submit(BatchJob(nodes=5, walltime=100, runtime=100))


def test_walltime_over_band_cap_rejected():
    cfg = ClusterConfig(total_nodes=100, cores_per_node=16,
                        backfill_caps=((100, 7200),),
                        capability_caps=((100, 86400),))
    for sched in both_sources(cfg):
        with pytest.raises(SubmitError):
            sched.submit(BatchJob(nodes=10, walltime=7201, runtime=100,
                                  priority_class=BACKFILL))
        # same shape is fine at capability priority
        sched.submit(BatchJob(nodes=10, walltime=7201, runtime=100,
                              priority_class=CAPABILITY))


def test_unknown_priority_class_rejected():
    for sched in both_sources(UNCAPPED):
        with pytest.raises(SubmitError, match="priority class"):
            sched.submit(BatchJob(nodes=1, walltime=100, runtime=100,
                                  priority_class="urgent"))
        assert (sched.running, sched.backfill_nodes_held) == ({}, 0)


@pytest.mark.parametrize("runtime", [None, 0, -1])
def test_missing_or_nonpositive_runtime_rejected_before_any_state_changes(runtime):
    for sched in both_sources(UNCAPPED):
        with pytest.raises(SubmitError, match="runtime must be >= 1s"):
            sched.submit(BatchJob(nodes=2, walltime=100, runtime=runtime,
                                  priority_class=BACKFILL, id="bad"))
        assert (sched.running, getattr(sched, "queue", []), sched.backfill_nodes_held) \
            == ({}, [], 0)
        sched.sim.run()
        assert (sched.running, sched.backfill_nodes_held) == ({}, 0)


def test_backfill_fits_gap_without_delaying_blocked_head():
    # Running job holds 2 of 4 nodes until t=100; head needs all 4.
    sim, sched = make()
    running = BatchJob(nodes=2, walltime=100, runtime=100, id="running")
    sched.submit(running)
    sim.run_until(0)
    head = BatchJob(nodes=4, walltime=50, runtime=50, id="head")
    filler = BatchJob(nodes=2, walltime=100, runtime=100,
                      priority_class=BACKFILL, id="filler")
    sched.submit(head)
    sched.submit(filler)
    sim.run_until(0)
    assert filler.start_time == 0
    sim.run()
    assert head.start_time == 100


def test_backfill_that_would_delay_reservation_is_held():
    sim, sched = make()
    sched.submit(BatchJob(nodes=2, walltime=100, runtime=100))
    sim.run_until(0)
    head = BatchJob(nodes=4, walltime=50, runtime=50, id="head")
    late = BatchJob(nodes=2, walltime=101, runtime=101,
                    priority_class=BACKFILL, id="late")
    sched.submit(head)
    sched.submit(late)
    sim.run_until(0)
    assert late.start_time is None
    sim.run()
    assert head.start_time == 100
    assert late.start_time == 150


def test_empty_queue_pass_dispatches_nothing():
    sim, sched = make()
    assert sched.schedule_pass() == []


def test_query_backfill_idle_cluster_reports_full_machine_and_cap():
    sim = Simulation()
    cfg = ClusterConfig(total_nodes=50, cores_per_node=16,
                        backfill_caps=((49, 3600), (1 << 31, 7200)),
                        capability_caps=((1 << 31, 86400),))
    sched = EasyBackfillScheduler(sim, cfg)
    slot = sched.query_backfill()
    assert (slot.nodes, slot.walltime) == (50, 7200)


def test_query_backfill_reports_gap_before_reservation():
    sim, sched = make()
    sched.submit(BatchJob(nodes=2, walltime=100, runtime=100))
    sim.run_until(0)
    sched.submit(BatchJob(nodes=4, walltime=50, runtime=50))
    slot = sched.query_backfill()
    assert (slot.nodes, slot.walltime) == (2, 100)


def test_query_backfill_zero_when_cluster_full():
    sim, sched = make()
    sched.submit(BatchJob(nodes=4, walltime=100, runtime=100))
    sim.run_until(0)
    slot = sched.query_backfill()
    assert (slot.nodes, slot.walltime) == (0, 0)


def test_early_finish_frees_nodes_immediately():
    sim, sched = make()
    early = BatchJob(nodes=4, walltime=1000, runtime=10, id="early")
    nxt = BatchJob(nodes=4, walltime=10, runtime=10, id="next")
    sched.submit(early)
    sched.submit(nxt)
    sim.run()
    assert early.end_time == 10 and not early.killed
    assert nxt.start_time == 10


def test_walltime_limit_kills_job():
    sim, sched = make()
    job = BatchJob(nodes=1, walltime=50, runtime=80)
    sched.submit(job)
    sim.run()
    assert job.end_time == 50
    assert job.killed


def test_capacity_respected_under_load():
    sim, sched = make(total_nodes=6)
    rng = sim.rng("load")
    worst = []
    ended = []
    for i in range(60):
        sim.schedule(int(rng.integers(0, 200)), "arrive",
                     lambda n=int(rng.integers(1, 7)), w=int(rng.integers(1, 40)):
                     sched.submit(BatchJob(nodes=n, walltime=w, runtime=w,
                                           on_end=ended.append)))
    sched.state_listeners.append(lambda: worst.append(sched.free_nodes))
    sim.run()
    assert min(worst) >= 0
    assert len(ended) == 60
    assert all(j.start_time is not None for j in ended)


# -- oracle equivalence -------------------------------------------------------


def random_instance(rng):
    total = int(rng.integers(2, 9))
    jobs = []
    for i in range(int(rng.integers(1, 13))):
        nodes = int(rng.integers(1, total + 1))
        walltime = int(rng.integers(1, 61))
        jobs.append((f"j{i}", nodes, walltime, int(rng.integers(1, walltime + 1)),
                     int(rng.integers(0, 2)), int(rng.integers(0, 80))))
    return total, jobs


def run_production(total, jobs, horizon):
    sim = Simulation(seed=0)
    cfg = ClusterConfig(total_nodes=total, cores_per_node=16,
                        backfill_caps=((1 << 31, 1 << 30),),
                        capability_caps=((1 << 31, 1 << 30),))
    sched = EasyBackfillScheduler(sim, cfg, strict_checks=True)
    out = []
    for (jid, nodes, wall, run, prio, submit) in jobs:
        job = BatchJob(nodes=nodes, walltime=wall, runtime=run,
                       priority_class=BACKFILL if prio else CAPABILITY, id=jid)
        out.append(job)
        sim.schedule(submit, "arrival", lambda j=job: sched.submit(j))
    sim.run_until(horizon)
    return {j.id: (j.start_time, j.end_time) for j in out}


def assert_matches_oracle(trials, seed):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        total, jobs = random_instance(rng)
        horizon = 80 + 13 * 61
        oracle_jobs = [OracleJob(*spec) for spec in jobs]
        simulate(total, oracle_jobs, horizon)
        production = run_production(total, jobs, horizon)
        for oj in oracle_jobs:
            assert production[oj.id] == (oj.start, oj.end), (total, jobs, oj)


def test_matches_brute_force_easy_oracle():
    assert_matches_oracle(trials=300, seed=20160101)


# -- showbf honesty ------------------------------------------------------------


def honesty_trial(rng) -> bool:
    """Returns True when a slot was submittable (nodes >= 1)."""
    total = int(rng.integers(2, 9))
    sim = Simulation(seed=0)
    cfg = ClusterConfig(total_nodes=total, cores_per_node=16,
                        backfill_caps=((1 << 31, 1 << 30),),
                        capability_caps=((1 << 31, 1 << 30),))
    sched = EasyBackfillScheduler(sim, cfg, strict_checks=True)
    for i in range(int(rng.integers(1, 13))):
        nodes = int(rng.integers(1, total + 1))
        walltime = int(rng.integers(1, 61))
        job = BatchJob(nodes=nodes, walltime=walltime,
                       runtime=int(rng.integers(1, walltime + 1)),
                       priority_class=BACKFILL if rng.integers(0, 2) else CAPABILITY)
        sim.schedule(int(rng.integers(0, 60)), "arrival",
                     lambda j=job: sched.submit(j))
    at = int(rng.integers(0, 100))
    sim.run_until(at)
    slot = sched.query_backfill()
    if slot.nodes == 0:
        return False
    probe = BatchJob(nodes=slot.nodes, walltime=slot.walltime,
                     runtime=slot.walltime, priority_class=BACKFILL, id="probe")
    sched.submit(probe)
    sim.run_until(sim.now)
    assert probe.start_time == slot.observed_at, (slot, probe)
    return True


def test_reported_slot_always_starts_immediately():
    rng = np.random.default_rng(777)
    submittable = sum(honesty_trial(rng) for _ in range(300))
    assert submittable > 100  # the property must actually be exercised


# -- stateful property test -----------------------------------------------------


class EasyMachine(RuleBasedStateMachine):
    """Random submissions, clock advances and slot probes on a small
    strict-checked cluster. Jobs that run to their walltime, and probes that
    take a reported slot whole, are killed at `start + walltime`; jobs whose
    runtime is shorter end early."""

    def __init__(self):
        super().__init__()
        self.sim = Simulation(seed=0)
        self.sched = EasyBackfillScheduler(
            self.sim, ClusterConfig(total_nodes=6, cores_per_node=16,
                                    backfill_caps=((1 << 31, 1 << 30),),
                                    capability_caps=((1 << 31, 1 << 30),)),
            strict_checks=True)

    @rule(nodes=st.integers(1, 6), walltime=st.integers(1, 60),
          runtime=st.integers(1, 80), backfill=st.booleans())
    def submit_with_runtime(self, nodes, walltime, runtime, backfill):
        self.sched.submit(BatchJob(nodes=nodes, walltime=walltime, runtime=runtime,
                                   priority_class=BACKFILL if backfill else CAPABILITY))

    @rule(nodes=st.integers(1, 6), walltime=st.integers(1, 60), backfill=st.booleans())
    def submit_to_walltime(self, nodes, walltime, backfill):
        self.sched.submit(BatchJob(nodes=nodes, walltime=walltime, runtime=walltime,
                                   priority_class=BACKFILL if backfill else CAPABILITY))

    @rule(dt=st.integers(0, 30))
    def advance_clock(self, dt):
        self.sim.run_until(self.sim.now + dt)

    @rule()
    def probe_reported_slot(self):
        slot = self.sched.query_backfill()
        if slot.nodes == 0:
            return
        probe = BatchJob(nodes=slot.nodes, walltime=slot.walltime, runtime=slot.walltime,
                         priority_class=BACKFILL)
        self.sched.submit(probe)
        self.sim.run_until(self.sim.now)
        assert probe.start_time == slot.observed_at, (slot, self.sched.queue)

    @invariant()
    def nodes_are_conserved(self):
        held = sum(j.nodes for j in self.sched.running.values())
        assert self.sched.free_nodes + held == self.sched.config.total_nodes

    @invariant()
    def backfill_nodes_held_matches_running_backfill_jobs(self):
        held = sum(j.nodes for j in self.sched.running.values()
                   if j.priority_class == BACKFILL)
        assert self.sched.backfill_nodes_held == held >= 0

    @invariant()
    def queue_stays_in_priority_order(self):
        keys = [_queue_key(j) for j in self.sched.queue]
        assert keys == sorted(keys)

    @invariant()
    def projected_releases_match_running_jobs(self):
        rebuilt = sorted((j.start_time + j.walltime, j._seq, j.nodes)
                         for j in self.sched.running.values())
        assert self.sched._releases == rebuilt


TestEasyMachine = EasyMachine.TestCase
TestEasyMachine.settings = settings(max_examples=200, stateful_step_count=40)


# -- replay mode ---------------------------------------------------------------


def test_replay_returns_trace_records_verbatim():
    sim = Simulation()
    records = [PollRecord(0, 691, 7560), PollRecord(60, 12, 900), PollRecord(120, 0, 0)]
    replay = ReplayScheduler(sim, records)
    assert (replay.query_backfill().nodes, replay.query_backfill().nodes) == (691, 12)
    assert replay.query_backfill().walltime == 0
    assert replay.exhausted
    assert replay.query_backfill().nodes == 0  # exhausted trace reports nothing


def test_replay_submissions_start_immediately():
    sim = Simulation()
    replay = ReplayScheduler(sim, [])
    job = BatchJob(nodes=10, walltime=100, runtime=50, priority_class=BACKFILL)
    replay.submit(job)
    sim.run()
    assert (job.start_time, job.end_time, job.killed) == (0, 50, False)


def test_duplicate_job_id_rejected_before_any_state_changes():
    # Two queued jobs both named "a" used to share one running entry: the
    # first one's end deleted the second's, leaking its 4 nodes, and the
    # second's end event then died with KeyError.
    sim, sched = make(total_nodes=10)
    sched.submit(BatchJob(nodes=2, walltime=100, runtime=100, id="a"))
    with pytest.raises(SubmitError, match="'a'"):
        sched.submit(BatchJob(nodes=4, walltime=100, runtime=50, id="a"))
    assert [j.nodes for j in sched.queue] == [2]
    sim.run_until(0)
    with pytest.raises(SubmitError, match="'a'"):  # and while it runs
        sched.submit(BatchJob(nodes=4, walltime=100, runtime=50, id="a"))
    assert (sched.free_nodes, list(sched.running), sched.queue) == (8, ["a"], [])
    sim.run()
    assert (sched.free_nodes, sched.running) == (10, {})
    sched.submit(BatchJob(nodes=4, walltime=100, runtime=50, id="a"))  # id free again


def test_replay_rejects_duplicate_running_id():
    sim = Simulation()
    replay = ReplayScheduler(sim, [])
    replay.submit(BatchJob(nodes=2, walltime=100, runtime=100, id="a",
                           priority_class=BACKFILL))
    with pytest.raises(SubmitError, match="'a'"):
        replay.submit(BatchJob(nodes=4, walltime=100, runtime=50, id="a",
                               priority_class=BACKFILL))
    assert (list(replay.running), replay.backfill_nodes_held) == (["a"], 2)
    sim.run()
    assert (replay.running, replay.backfill_nodes_held) == ({}, 0)


def test_overcommit_check_survives_python_optimize_flag():
    code = (
        "from backfillsim import BatchJob, ClusterConfig, EasyBackfillScheduler, Simulation\n"
        "sched = EasyBackfillScheduler(Simulation(), ClusterConfig(total_nodes=4))\n"
        "job = BatchJob(nodes=5, walltime=100, runtime=100, id='big')\n"
        "sched.queue.append(job)\n"
        "try:\n"
        "    sched._dispatch(job)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('dispatched; free nodes', sched.free_nodes)\n")
    src = Path(backfillsim.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.startswith("raised: capacity overcommitted"), result.stdout
