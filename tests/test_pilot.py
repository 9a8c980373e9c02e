import pytest

from backfillsim import (AgentTimeline, BatchJob, ClusterConfig,
                         EasyBackfillScheduler, OverheadModel, PilotDesc,
                         PilotRuntime, Simulation, SubmitError, Unit,
                         UnitDurationModel)

ZERO = OverheadModel(bootstrap_s=0.0, dispatch_per_unit_s=0.0, launch_per_unit_s=0.0)


def dedicated(nodes, seed=0):
    sim = Simulation(seed=seed)
    cluster = EasyBackfillScheduler(sim, ClusterConfig(total_nodes=nodes))
    return sim, cluster


def runtime_for(nodes, overheads=ZERO, unit_model=None, seed=0):
    sim, cluster = dedicated(nodes, seed)
    return sim, PilotRuntime(sim, cluster, overheads, unit_model=unit_model)


def constant_units(n, value, events=100):
    return [Unit(id=i, events=events, duration_s=float(value)) for i in range(n)]


def test_large_pilot_accepted():
    sim, rt = runtime_for(2000)
    pid = rt.submit_pilot(PilotDesc(nodes=2000, walltime=7200))
    rt.dispatch_units(pid, constant_units(2000, 4200.0))
    rt.close(pid)
    sim.run()
    assert rt.pilot_report(pid).units_done == 2000


def test_zero_node_pilot_rejected():
    sim, rt = runtime_for(10)
    with pytest.raises(SubmitError):
        rt.submit_pilot(PilotDesc(nodes=0, walltime=3600))
    assert rt.pilots == {}


def test_single_unit_zero_overheads_report():
    sim, rt = runtime_for(1)
    pid = rt.submit_pilot(PilotDesc(nodes=1, walltime=7200))
    rt.dispatch_units(pid, constant_units(1, 4200.0))
    rt.close(pid)
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.duration_s == pytest.approx(4200.0)
    assert rep.overhead_s == pytest.approx(0.0)
    assert rep.mean_task_s == pytest.approx(4200.0)
    assert rep.queue_wait_s == 0


def test_report_before_finish_raises():
    sim, rt = runtime_for(1)
    pid = rt.submit_pilot(PilotDesc(nodes=1, walltime=7200))
    with pytest.raises(ValueError):
        rt.pilot_report(pid)
    with pytest.raises(KeyError):
        rt.pilot_report("missing")


def test_matched_units_run_in_one_generation():
    sim, rt = runtime_for(250)
    pid = rt.submit_pilot(PilotDesc(nodes=250, walltime=7200))
    rt.dispatch_units(pid, constant_units(250, 4200.0))
    rt.close(pid)
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.units_done == 250
    assert rep.generations == 1
    assert all(g == 1 for g in rep.generations_per_node.values())


def test_five_units_per_node_run_five_generations():
    sim, rt = runtime_for(64)
    pid = rt.submit_pilot(PilotDesc(nodes=64, walltime=10800))
    rt.dispatch_units(pid, constant_units(5 * 64, 1200.0, events=16))
    rt.close(pid)
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.units_done == 320
    assert all(g == 5 for g in rep.generations_per_node.values())


def test_uniform_durations_give_exact_generation_split():
    sim, rt = runtime_for(256)
    pid = rt.submit_pilot(PilotDesc(nodes=256, walltime=86000))
    rt.dispatch_units(pid, constant_units(2048, 1000.0, events=16))
    rt.close(pid)
    sim.run()
    rep = rt.pilot_report(pid)
    assert sorted(rep.generations_per_node.values()) == [8] * 256


def test_overhead_exactly_linear_without_duration_noise():
    # model-level invariant: constant tasks make overhead(N) affine in N
    import numpy as np
    overheads = OverheadModel(bootstrap_s=180.0, dispatch_per_unit_s=0.015,
                              launch_per_unit_s=0.1)
    sizes = [250, 500, 1000, 2000]
    ys = []
    for nodes in sizes:
        sim, rt = runtime_for(nodes, overheads=overheads)
        pid = rt.submit_pilot(PilotDesc(nodes=nodes, walltime=7200))
        rt.dispatch_units(pid, constant_units(nodes, 4650.0))
        rt.close(pid)
        sim.run()
        ys.append(rt.pilot_report(pid).overhead_s)
    x = np.array(sizes, float)
    y = np.array(ys)
    slope, icpt = np.polyfit(x, y, 1)
    pred = slope * x + icpt
    r2 = 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert r2 > 0.99


def test_dispatch_after_pilot_end_marks_units_incomplete():
    sim, rt = runtime_for(4)
    pid = rt.submit_pilot(PilotDesc(nodes=4, walltime=3600))
    rt.dispatch_units(pid, constant_units(4, 100.0))
    rt.close(pid)
    sim.run()
    stragglers = constant_units(3, 100.0)
    rt.dispatch_units(pid, stragglers)
    assert all(u.state == "incomplete" for u in stragglers)


def test_next_unit_launches_after_launch_latency():
    overheads = OverheadModel(bootstrap_s=0.0, dispatch_per_unit_s=0.0,
                              launch_per_unit_s=2.5)
    timeline = AgentTimeline(1, 100_000.0, overheads)
    units = constant_units(2, 1000.0)
    timeline.add_units(units)
    assert units[0].start == pytest.approx(2.5)
    assert units[1].start == pytest.approx(units[0].end + 2.5)


def test_serial_dispatch_ramp_delays_arrivals():
    overheads = OverheadModel(bootstrap_s=10.0, dispatch_per_unit_s=1.0,
                              launch_per_unit_s=0.0)
    timeline = AgentTimeline(3, 100_000.0, overheads)
    units = constant_units(3, 50.0)
    timeline.add_units(units)
    assert [u.start for u in units] == [pytest.approx(11.0), pytest.approx(12.0),
                                        pytest.approx(13.0)]


def test_walltime_expiry_cuts_running_units():
    sim, rt = runtime_for(2)
    pid = rt.submit_pilot(PilotDesc(nodes=2, walltime=1000))
    rt.dispatch_units(pid, constant_units(4, 600.0))
    # no close(): open stream, pilot runs to its walltime kill
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.units_done == 2
    assert rep.units_incomplete == 2
    assert rep.duration_s == pytest.approx(1000.0)
    assert rep.walltime == 1000


def test_unit_conservation_under_late_binding():
    sim, rt = runtime_for(8)
    pid = rt.submit_pilot(PilotDesc(nodes=8, walltime=4000))
    rt.dispatch_units(pid, constant_units(8, 1500.0))
    batch2 = constant_units(20, 1500.0)
    sim.schedule(1800, "late_units", lambda: rt.dispatch_units(pid, batch2))
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.units_done + rep.units_incomplete + rep.units_pending == 28
    assert rep.units_done >= 8


def test_per_node_units_never_overlap():
    model = UnitDurationModel(mean_s=300.0, sd_s=40.0)
    sim, rt = runtime_for(5, overheads=OverheadModel(), unit_model=model, seed=7)
    pid = rt.submit_pilot(PilotDesc(nodes=5, walltime=10_000))
    rt.dispatch_units(pid, [Unit(id=i, events=16) for i in range(60)])
    rt.close(pid)
    sim.run()
    state = rt.pilots[pid]
    per_node = {}
    for u in state.timeline.units:
        if u.node is not None:
            per_node.setdefault(u.node, []).append((u.start, u.end))
    for spans in per_node.values():
        spans.sort()
        assert all(b0 >= a1 for (_, a1), (b0, _) in zip(spans, spans[1:]))


def test_queue_wait_excluded_from_duration():
    # occupy the cluster so the pilot queues before starting
    sim, cluster = dedicated(4)
    blocker = BatchJob(nodes=4, walltime=500, runtime=500)
    cluster.submit(blocker)
    rt = PilotRuntime(sim, cluster, ZERO)
    pid = rt.submit_pilot(PilotDesc(nodes=4, walltime=2000))
    rt.dispatch_units(pid, constant_units(4, 800.0))
    rt.close(pid)
    sim.run()
    rep = rt.pilot_report(pid)
    assert rep.queue_wait_s == 500
    assert rep.duration_s == pytest.approx(800.0)


def test_overhead_model_rejects_negative():
    with pytest.raises(ValueError):
        OverheadModel(bootstrap_s=-1.0)
