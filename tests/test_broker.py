import numpy as np
import pytest

from backfillsim import (BrokerConfig, BrokerFleet, Bundle, ClusterConfig,
                         EasyBackfillScheduler, FailureMix, ReplayScheduler,
                         Simulation, WorkloadConfig, bundle_outcomes, stream_rng,
                         total_backfill_availability, window_report)
from backfillsim.metrics import PollRecord
from outcome_oracle import outcome_counts, payload_outcomes

WORKLOAD = WorkloadConfig()  # setup_s 265, contention at the calibrated means
MODEL = WORKLOAD.payload_model
UNCAPPED = ClusterConfig(total_nodes=18688, cores_per_node=16,
                         backfill_caps=((1 << 31, 86400),),
                         capability_caps=((1 << 31, 86400),))


def replay_fleet(records, cfg=None, cluster_cfg=UNCAPPED, seed=1):
    sim = Simulation(seed=seed)
    cluster = ReplayScheduler(sim, [PollRecord(*r) for r in records], cluster_cfg)
    fleet = BrokerFleet(sim, cluster, cfg or BrokerConfig(n_brokers=1), WORKLOAD)
    fleet.start(0)
    return sim, cluster, fleet


def test_wide_slot_clamped_to_max_bundle_nodes():
    sim, cluster, fleet = replay_fleet([(0, 691, 7560)])
    sim.run_until(40_000)
    assert len(fleet.bundles) == 1
    bundle = fleet.bundles[0]
    assert bundle.nodes == 300          # clamped from 691
    assert bundle.walltime == 7560      # sized to the slot
    assert bundle.payloads_done + bundle.payloads_failed == 300


def test_default_cap_bounds_bundle_walltime():
    sim, cluster, fleet = replay_fleet([(0, 691, 7560)], cluster_cfg=ClusterConfig())
    sim.run_until(40_000)
    assert fleet.bundles[0].walltime == 7200  # 2 h band cap for small jobs


def test_slot_below_walltime_floor_is_declined_and_repolled():
    sim, cluster, fleet = replay_fleet([(0, 500, 6000), (0, 500, 6299), (0, 500, 6300)])
    sim.run_until(80_000)
    assert len(fleet.bundles) == 1
    assert fleet.bundles[0].walltime == 6300
    assert cluster.cursor == len(cluster.records)  # two declines consumed two extra polls


def test_walltime_floor_survives_band_capping():
    # slot passes the gate at its own size, but the clamped bundle falls
    # into a band whose cap is below the floor: the broker must decline
    tight = ClusterConfig(total_nodes=18688, cores_per_node=16,
                          backfill_caps=((300, 3600), (1 << 31, 86400)),
                          capability_caps=((1 << 31, 86400),))
    sim, cluster, fleet = replay_fleet([(0, 5000, 86400)], cluster_cfg=tight)
    sim.run_until(40_000)
    assert fleet.bundles == []


def test_slot_below_node_floor_is_declined():
    sim, cluster, fleet = replay_fleet([(0, 10, 18000), (0, 14, 18000), (0, 15, 18000)])
    sim.run_until(80_000)
    assert len(fleet.bundles) == 1
    assert fleet.bundles[0].nodes == 15


def test_single_outstanding_bundle_per_broker():
    records = [(i, 691, 7560) for i in range(400)]
    cfg = BrokerConfig(n_brokers=3)
    sim, cluster, fleet = replay_fleet(records, cfg=cfg)
    peak = 0
    for t in range(0, 3 * 86400, 600):
        sim.run_until(t)
        peak = max(peak, len(cluster.running))
    assert len(fleet.bundles) > 3
    assert peak <= 3


def test_fixed_sizing_keeps_hundred_events():
    sim, cluster, fleet = replay_fleet([(0, 100, 7200)])
    sim.run_until(40_000)
    assert fleet.bundles[0].events_per_payload == 100


def test_fit_walltime_sizing_policy():
    cfg = BrokerConfig(n_brokers=1, sizing_policy="fit_walltime")
    sim, cluster, fleet = replay_fleet([(0, 100, 7200)], cfg=cfg)
    sim.run_until(40_000)
    expected = 16 * int((7200 - 265.0) // MODEL.mean())
    assert fleet.bundles[0].events_per_payload == expected


def test_finite_source_runs_one_bundle_then_leaves_the_broker_idle():
    records = [(i, 300, 7560) for i in range(200)]
    cfg = BrokerConfig(n_brokers=1, job_limit=20)
    sim, cluster, fleet = replay_fleet(records, cfg=cfg)
    sim.run_until(60_000)
    assert [b.nodes for b in fleet.bundles] == [20]
    assert fleet.jobs_left == 0
    sim.run_until(sim.now + 60_000)  # slots keep coming, work does not
    assert len(fleet.bundles) == 1


def test_band_cap_decline_keeps_the_finite_source_whole():
    # the first slot clamps to 240 nodes, whose 3600 s band cap is below the
    # walltime floor: declining it must not spend any of the 280 jobs
    caps = ClusterConfig(total_nodes=18688, cores_per_node=16,
                         backfill_caps=((250, 3600), (1 << 31, 86400)),
                         capability_caps=((1 << 31, 86400),))
    cfg = BrokerConfig(n_brokers=1, job_limit=280)
    sim, cluster, fleet = replay_fleet([(0, 240, 86400), (0, 5000, 86400)], cfg=cfg,
                                       cluster_cfg=caps)
    sim.run_until(200_000)
    assert [b.nodes for b in fleet.bundles] == [280]
    assert fleet.jobs_left == 0


# -- outcomes -------------------------------------------------------------------

NO_FAILURES = dict.fromkeys(["walltime", "broker", "dispatcher", "other", "payload"], 0)


def test_zero_failure_probability_all_done():
    model = BrokerConfig(failure_prob=0.0).failure
    makespans = np.full(50, 1000.0)
    assert bundle_outcomes(makespans, 2000.0, model, stream_rng(0, "f")) == (50, NO_FAILURES)


def test_certain_failure_all_failed():
    model = BrokerConfig(failure_prob=1.0).failure
    done, failures = bundle_outcomes(np.full(50, 1000.0), 2000.0, model, stream_rng(0, "f"))
    assert done == 0
    assert sum(failures.values()) == 50
    assert failures["walltime"] == 0


def test_failure_rate_converges():
    model = BrokerConfig().failure
    done, failures = bundle_outcomes(np.full(100_000, 10.0), 20.0, model,
                                     stream_rng(1, "rate"))
    frac = sum(failures.values()) / 100_000
    assert done == 100_000 - sum(failures.values())
    assert abs(frac - 0.136) <= 0.01


def test_cause_mix_converges():
    model = BrokerConfig(failure_prob=1.0).failure
    _, failures = bundle_outcomes(np.full(100_000, 10.0), 20.0, model,
                                  stream_rng(2, "mix"))
    for cause, weight in model.failure_mix:
        frac = failures[cause] / 100_000
        assert abs(frac - weight) < 0.01


def test_walltime_cutoff_marks_unfinished_payloads():
    model = BrokerConfig(failure_prob=0.0).failure
    makespans = np.array([500.0, 1500.0, 800.0])
    assert bundle_outcomes(makespans, 1000.0, model, stream_rng(0, "w")) == \
        (2, {**NO_FAILURES, "walltime": 1})


@pytest.mark.parametrize("n", [0, 1, 3, 300, 100_000])
@pytest.mark.parametrize("failure_prob", [0.0, 0.136, 1.0])
@pytest.mark.parametrize("cutoffs", [False, True])
def test_counts_match_the_per_payload_outcomes(n, failure_prob, cutoffs):
    # the same draws as one outcome per payload, counted; a cut-off payload
    # draws a cause too but counts only as "walltime"
    model = BrokerConfig(failure_prob=failure_prob).failure
    makespans = stream_rng(5, f"ms-{n}").uniform(500.0, 1500.0, n)
    elapsed = 1000.0 if cutoffs else 2000.0
    seed = f"outcomes-{n}-{failure_prob}-{cutoffs}"
    ours, theirs = stream_rng(3, seed), stream_rng(3, seed)
    counts = bundle_outcomes(makespans, elapsed, model, ours)
    assert counts == outcome_counts(payload_outcomes(makespans, elapsed, model, theirs), model)
    assert ours.random() == theirs.random()  # the stream is in the same place
    if cutoffs and n >= 300:
        assert counts[1]["walltime"] > 0


def test_every_payload_has_exactly_one_outcome():
    sim, cluster, fleet = replay_fleet([(0, 691, 7560)])
    sim.run_until(40_000)
    bundle = fleet.bundles[0]
    assert bundle.payloads_done + bundle.payloads_failed == bundle.nodes
    assert list(bundle.failures) == list(NO_FAILURES)
    # a finished bundle keeps nothing per payload
    assert not [k for k, v in vars(bundle).items() if isinstance(v, (list, np.ndarray))]


def test_failure_mix_must_sum_to_one():
    # each share is in [0, 1]; their sum is the broker section's rule
    with pytest.raises(ValueError, match="failure_mix must sum to 1"):
        BrokerConfig(failure_mix=FailureMix(broker=0.5, dispatcher=0.6, payload=0, other=0))


# -- efficiency ------------------------------------------------------------------


def fleet_efficiency(polls, bundles, window):
    # the fleet's efficiency is the window report's used over available
    avail = total_backfill_availability(polls, window, cores_per_node=16)
    return window_report(bundles, window, 16, avail).efficiency


def test_fleet_efficiency_nothing_consumed_is_zero():
    polls = [PollRecord(0, 691, 7560)]
    assert fleet_efficiency(polls, [], (0, 60)) == 0.0


def test_fleet_efficiency_equal_ledgers_is_one():
    polls = [PollRecord(0, 100, 60)]
    used = [Bundle(id="b", nodes=100, walltime=60, events_per_payload=100, submit_time=0,
                   start_time=0, end_time=60)]
    assert fleet_efficiency(polls, used, (0, 60)) == pytest.approx(1.0)


def test_fleet_efficiency_zero_availability_is_absent():
    assert fleet_efficiency([], [], (0, 60)) is None


def test_bundle_start_triggers_on_live_cluster():
    # a broker against the real scheduler: reported slot starts immediately
    sim = Simulation(seed=3)
    cluster = EasyBackfillScheduler(sim, ClusterConfig())
    fleet = BrokerFleet(sim, cluster, BrokerConfig(n_brokers=2), WORKLOAD)
    fleet.start(0)
    sim.run_until(30_000)
    assert fleet.bundles or cluster.running
    for b in fleet.bundles:
        assert b.start_time == b.submit_time
        assert b.payloads_done + b.payloads_failed == b.nodes
        assert 15 <= b.nodes <= 300
        assert b.walltime >= 6300
