import csv
import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from backfillsim import (EasyBackfillScheduler, ScenarioConfig, config, emit_poll_trace,
                         job_makespans_batch, load_scenario_file, resolve_config,
                         Simulation, run_scenario, scenarios, stream_rng, synthetic_slots)
from backfillsim.workload import EventDurationModel, _minorant

ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_weak_scaling_emits_one_row_per_pilot_size(tmp_path):
    cfg = resolve_config({"scenario": "weak_scaling", "output_dir": "w"})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "w" / "scaling.csv")
    assert [int(r["pilot_nodes"]) for r in rows] == [250, 500, 1000, 2000]
    assert all(int(r["units"]) == int(r["pilot_nodes"]) for r in rows)
    assert all(int(r["generations"]) == 1 for r in rows)


def test_strong_scaling_runs_the_full_task_set_everywhere(tmp_path):
    cfg = resolve_config({"scenario": "strong_scaling", "output_dir": "s"})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "s" / "scaling.csv")
    assert len(rows) == 4
    assert all(int(r["units"]) == 2048 for r in rows)
    assert [int(r["generations"]) for r in rows] == [8, 4, 2, 1]


def test_multi_generation_emits_five_generations(tmp_path):
    cfg = resolve_config({"scenario": "multi_generation", "output_dir": "m"})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "m" / "scaling.csv")
    assert all(int(r["generations"]) == 5 for r in rows)
    assert all(int(r["units"]) == 5 * int(r["pilot_nodes"]) for r in rows)


def test_same_config_and_seed_reproduce_identical_manifests(tmp_path):
    cfg = resolve_config({"scenario": "weak_scaling", "output_dir": "a",
                          "pilot": {"nodes_list": [16, 32]}})
    m1 = run_scenario(cfg, base_dir=tmp_path / "r1")
    m2 = run_scenario(cfg, base_dir=tmp_path / "r2")
    assert m1.to_json() == m2.to_json()
    f1 = (tmp_path / "r1" / "a" / "scaling.csv").read_bytes()
    f2 = (tmp_path / "r2" / "a" / "scaling.csv").read_bytes()
    assert f1 == f2


def test_pilot_clusters_use_the_configured_caps(tmp_path):
    # a 26 h pilot needs the raised capability cap the config sets
    cfg = resolve_config({"scenario": "weak_scaling", "output_dir": "long",
                          "cluster": {"capability_caps": [[1 << 31, 100_000]]},
                          "pilot": {"nodes_list": [16], "walltime_s": 93_600}})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "long" / "scaling.csv")
    assert [int(r["pilot_nodes"]) for r in rows] == [16]


def test_synthetic_slot_sequence_is_deterministic():
    cfg = ScenarioConfig.from_dict(resolve_config({"scenario": "broker_vs_pilot"}))
    assert synthetic_slots(cfg) == synthetic_slots(cfg)


def test_broker_vs_pilot_never_loses_core_hours(tmp_path):
    cfg = resolve_config({"scenario": "broker_vs_pilot", "output_dir": "c",
                          "compare": {"slots": 40}})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "c" / "broker_vs_pilot.csv")
    assert len(rows) == 40
    accepted = [r for r in rows if r["accepted"] == "1"]
    assert accepted
    for r in accepted:
        assert float(r["pilot_core_hours"]) >= float(r["broker_core_hours"])


def test_broker_vs_pilot_declines_a_slot_whose_band_cap_falls_below_the_floor(tmp_path):
    # bundles of up to 100 nodes are capped at 7200 s, below the 7300-s floor:
    # the fleet declines them, so the comparison must not accept them either
    cfg = resolve_config({"scenario": "broker_vs_pilot", "output_dir": "f",
                          "broker": {"min_slot_walltime_s": 7300},
                          "cluster": {"backfill_caps": [[100, 7200], [1 << 31, 86400]]}})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "f" / "broker_vs_pilot.csv")
    accepted = [r for r in rows if r["accepted"] == "1"]
    assert accepted
    assert all(int(r["walltime_s"]) >= 7300 for r in accepted)
    assert any(r["accepted"] == "0" and int(r["slot_nodes"]) >= 15
               and int(r["slot_walltime_s"]) >= 7300 for r in rows)


def test_benchmark_tracer_counts_the_pilot_units_done(tmp_path):
    # perfbench's tracer counts the DONE units of each timeline it sees
    # finalized; a dropped finalize() or a renamed state would zero it
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    cfg = resolve_config({"scenario": "broker_vs_pilot", "output_dir": "t",
                          "compare": {"slots": 6}})
    tracer = spans.Tracer()
    with tracer.install():
        run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "t" / "broker_vs_pilot.csv")
    assert tracer.counts["units_done"] == sum(int(r["pilot_units_done"]) for r in rows)
    assert 0 < tracer.layer_metrics()["pilot.units_done_ratio"] < 1


def test_pilot_pulls_generations_only_while_it_can_start_a_unit():
    cfg = ScenarioConfig.from_dict(resolve_config({"scenario": "broker_vs_pilot"}))
    w, b = cfg.workload, cfg.broker
    pool = job_makespans_batch(3 * 300, b.job_spec, w.payload_model, stream_rng(1, "lazy"),
                               contention=w.contention, setup_s=w.setup_s).reshape(3, 300)
    later = iter(pool[1:])
    deadlines = []

    def draw(deadline):
        deadlines.append(deadline)
        return next(later)

    scenarios.consume_slot_pilot(300, 7200, pool[0], draw, cfg.pilot, 16)
    # a payload lasts about 6,565 s, so no node starts a third one in 7,200 s
    assert len(deadlines) == 1
    # the second generation is pulled with the time left to its first start
    assert 0 < deadlines[0] < 7200 - min(pool[0])


class RecordingTimeline(scenarios.AgentTimeline):
    """An `AgentTimeline` that keeps every instance, to compare unit records."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


def test_deadline_draw_keeps_every_unit_record(monkeypatch):
    # up to 24-h slots, so pilots run several generations and the later
    # generations' deadlines cut some rows and keep others
    cfg = ScenarioConfig.from_dict(resolve_config({
        "scenario": "broker_vs_pilot", "compare": {"slots": 40},
        "cluster": {"backfill_caps": [[2147483648, 86400]]}}))
    w, b = cfg.workload, cfg.broker
    monkeypatch.setattr(scenarios, "AgentTimeline", RecordingTimeline)
    bounded = []  # every batch drawn with a finite deadline

    def records(nodes, walltime, seed, use_deadline):
        rng = stream_rng(seed, "records")

        def draw(deadline=math.inf):
            ms = job_makespans_batch(nodes, b.job_spec, w.payload_model, rng,
                                     contention=w.contention, setup_s=w.setup_s,
                                     deadline=deadline if use_deadline else math.inf)
            if use_deadline and deadline < math.inf:
                bounded.append(ms)
            return ms

        RecordingTimeline.made.clear()
        result = scenarios.consume_slot_pilot(nodes, walltime, draw(), draw, cfg.pilot, 16)
        (timeline,) = RecordingTimeline.made
        units = [(u.node, u.start, u.end, u.state) for u in timeline.units]
        return result, units, timeline.finalize()

    slots = [(i, min(nodes, b.max_nodes_per_bundle), walltime)
             for i, (_, nodes, walltime) in enumerate(synthetic_slots(cfg))
             if nodes >= b.min_nodes_per_bundle and walltime >= b.min_slot_walltime_s]
    assert len(slots) > 10
    for seed, nodes, walltime in slots:
        assert records(nodes, walltime, seed, True) == records(nodes, walltime, seed, False)
    rows = np.concatenate(bounded)
    assert np.isinf(rows).any() and np.isfinite(rows).any()


def test_broker_vs_pilot_transforms_no_draw_of_a_deadline_batch(tmp_path, monkeypatch):
    # at seed 1 the row sums of the raw draws cut every later generation
    # whole: no deadline batch maps a draw, and the output is the golden's
    cfg = resolve_config({"scenario": "broker_vs_pilot"})
    model = ScenarioConfig.from_dict(cfg).workload.payload_model
    _minorant(model)  # its cache fill maps the table, not the batch's draws
    rows, mapped = [], []  # rows and draws transformed of each deadline batch
    inside = []
    transform = EventDurationModel.transform

    def counted_transform(self, r, out=None):
        if inside:
            mapped[-1] += np.size(r)
        return transform(self, r, out)

    def batch(*args, deadline=math.inf, **kwargs):
        if deadline == math.inf:
            return job_makespans_batch(*args, deadline=deadline, **kwargs)
        rows.append(args[0])
        mapped.append(0)
        inside.append(True)
        try:
            return job_makespans_batch(*args, deadline=deadline, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(EventDurationModel, "transform", counted_transform)
    monkeypatch.setattr(scenarios, "job_makespans_batch", batch)
    manifest = run_scenario(cfg, base_dir=tmp_path)
    assert len(rows) == 67 and sum(rows) == 17_865 and mapped == [0] * 67
    golden = json.loads((ROOT / "out" / "broker_vs_pilot" / "manifest.json").read_text())
    assert manifest.outputs == golden["outputs"]


@pytest.mark.parametrize("caps", [{}, {"backfill_caps": [[2147483648, 86400]]}])
def test_first_generation_chunks_leave_the_outputs_unchanged(tmp_path, monkeypatch, caps):
    # one slot per first-generation batch, then the default chunks; with
    # 24-h slots the pilots also run several later generations per slot
    cfg = resolve_config({"scenario": "broker_vs_pilot", "compare": {"slots": 40},
                          "cluster": caps})
    calls = []  # (rows, whether the batch maps first generations)

    def counted(n, *args, uniforms=None, **kwargs):
        calls.append((n, uniforms is not None))
        return job_makespans_batch(n, *args, uniforms=uniforms, **kwargs)

    monkeypatch.setattr(scenarios, "job_makespans_batch", counted)
    outputs, firsts = [], []
    for cap in (1, scenarios.CHUNK_UNIFORMS):
        monkeypatch.setattr(scenarios, "CHUNK_UNIFORMS", cap)
        calls.clear()
        run_scenario({**cfg, "output_dir": f"cap{cap}"}, base_dir=tmp_path)
        outputs.append((tmp_path / f"cap{cap}" / "broker_vs_pilot.csv").read_bytes())
        firsts.append([n for n, first in calls if first])
    assert outputs[0] == outputs[1]
    rows = read_csv(tmp_path / "cap1" / "broker_vs_pilot.csv")
    assert [int(r["bundle_nodes"]) for r in rows if r["accepted"] == "1"] == firsts[0]
    assert len(firsts[1]) < len(firsts[0]) and sum(firsts[1]) == sum(firsts[0])
    later = len(calls) - len(firsts[1])  # the later generations, one batch each
    assert later >= len(firsts[0]) and (later > len(firsts[0]) or not caps)


def test_slot_calibration_outputs(tmp_path):
    cfg = resolve_config({"scenario": "slot_calibration", "output_dir": "cal",
                          "horizon_days": 1})
    manifest = run_scenario(cfg, base_dir=tmp_path)
    out = tmp_path / "cal"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "monthly_report.csv",
                                                      "slots.csv", "summary.yaml"]
    data = json.loads((out / "manifest.json").read_text())
    assert data["outputs"].keys() == manifest.outputs.keys()
    assert data["engine_version"]


def test_efficiency_scenario_short_run(tmp_path):
    cfg = resolve_config({"scenario": "efficiency", "output_dir": "eff",
                          "horizon_days": 1})
    run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "eff" / "monthly_report.csv")
    assert len(rows) == 1
    assert float(rows[0]["used_core_hours"]) <= float(rows[0]["avail_core_hours"])
    assert (tmp_path / "eff" / "bundles.csv").exists()


def test_two_day_efficiency_reproduces_its_golden_under_strict_checks(tmp_path,
                                                                     monkeypatch):
    # every backfill dispatch re-walks the release profile and must leave the
    # head's reservation where it was; the outputs must not change
    monkeypatch.setattr(scenarios, "EasyBackfillScheduler",
                        functools.partial(EasyBackfillScheduler, strict_checks=True))
    cfg = load_scenario_file(ROOT / "configs" / "efficiency_month.yaml")
    cfg.update(horizon_days=2, output_dir="out/eff2d")
    run_scenario(cfg, base_dir=tmp_path)
    golden = ROOT / "out" / "eff2d" / "manifest.json"
    assert (tmp_path / "out" / "eff2d" / "manifest.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name", ["weak_scaling", "multi_generation", "strong_scaling",
                                  "broker_vs_pilot", "replay_efficiency"])
def test_fast_goldens_reproduce_their_manifests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)  # the replay trace path is relative to the repo root
    run_scenario(load_scenario_file(ROOT / "configs" / f"{name}.yaml"), base_dir=tmp_path)
    golden = ROOT / "out" / name / "manifest.json"
    assert (tmp_path / "out" / name / "manifest.json").read_bytes() == golden.read_bytes()


def test_every_scenario_has_one_runner():
    assert set(scenarios._RUNNERS) == set(config.SCENARIOS)


def test_replay_efficiency_consumes_a_trace(tmp_path):
    cfg = ScenarioConfig.from_dict(resolve_config({"scenario": "broker_vs_pilot"}))
    slots = synthetic_slots(cfg)
    trace = tmp_path / "trace.csv"
    from backfillsim import PollRecord
    emit_poll_trace(trace, [PollRecord(i * 540, n, w) for i, (_, n, w) in
                            enumerate(slots)])
    rcfg = resolve_config({"scenario": "replay_efficiency", "output_dir": "rep",
                           "horizon_days": 2,
                           "replay": {"trace_path": str(trace)}})
    run_scenario(rcfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "rep" / "bundles.csv")
    assert rows, "replay produced no bundles"
    assert all(int(r["nodes"]) <= 300 for r in rows)
    for r in read_csv(tmp_path / "rep" / "monthly_report.csv"):
        # per-record walltime credit keeps replayed consumption within bounds
        assert float(r["used_core_hours"]) <= float(r["avail_core_hours"])
        assert float(r["efficiency"]) <= 1.0


def test_invalid_scenario_config_is_rejected(tmp_path):
    from backfillsim import ConfigError
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "nonsense"})


def test_background_generator_hits_utilization_target(tmp_path):
    # 30 simulated days at a 0.90 target must land within +/-0.03 measured
    from backfillsim.scenarios import _run_cluster, measured_utilization
    cfg = ScenarioConfig.from_dict(resolve_config(
        {"scenario": "slot_calibration", "seed": 5, "horizon_days": 30,
         "background": {"target_utilization": 0.90}}))
    cluster, ledger, poller, fleet, horizon = _run_cluster(cfg, with_brokers=False)
    util = measured_utilization(ledger.node_seconds((0, horizon)),
                                cluster.config.total_nodes, horizon)
    assert abs(util - 0.90) <= 0.03


def test_utilization_from_the_ledger_equals_the_busy_node_seconds():
    # the ledger counts free plus backfill-held nodes; on a cluster running only
    # capability and backfill jobs the rest is exactly the capability load
    from backfillsim import (AvailabilityLedger, BACKFILL, CAPABILITY, BatchJob,
                             ClusterConfig, Simulation)
    from backfillsim.scenarios import measured_utilization
    total, horizon = 10, 400
    sim = Simulation(seed=2)
    cluster = EasyBackfillScheduler(sim, ClusterConfig(
        total_nodes=total, cores_per_node=16, backfill_caps=((1 << 31, 1 << 20),),
        capability_caps=((1 << 31, 1 << 20),)))
    ledger = AvailabilityLedger(sim, cluster)
    tail = BatchJob(nodes=3, walltime=10_000, runtime=10_000, priority_class=CAPABILITY)
    cluster.submit(tail)
    jobs = [tail]
    rng = sim.rng("mix")
    for _ in range(30):
        klass = BACKFILL if rng.random() < 0.4 else CAPABILITY
        runtime = int(rng.integers(1, 40))
        job = BatchJob(nodes=int(rng.integers(1, total - 2)), walltime=runtime,
                       runtime=runtime, priority_class=klass)
        jobs.append(job)
        sim.schedule(int(rng.integers(0, 350)), "arrive", lambda j=job: cluster.submit(j))
    sim.run_until(horizon)
    assert tail.start_time == 0 and tail.end_time is None  # runs past the horizon
    # capability job id -> node-seconds held before the horizon
    busy = {j.id: j.nodes * ((horizon if j.end_time is None else j.end_time) - j.start_time)
            for j in jobs if j.priority_class == CAPABILITY and j.start_time is not None}
    backfill_starts = [j.start_time for j in jobs
                       if j.priority_class == BACKFILL and j.start_time is not None]
    assert len(busy) > 1 and len(backfill_starts) > 1 and cluster.backfill_nodes_held > 0
    assert measured_utilization(ledger.node_seconds((0, horizon)), total, horizon) == \
        sum(busy.values()) / (total * horizon)


def test_synthetic_slot_trace_matches_production_means(tmp_path):
    from backfillsim import PollRecord, ingest_poll_trace
    cfg = ScenarioConfig.from_dict(resolve_config({"scenario": "broker_vs_pilot",
                                                   "compare": {"slots": 20000}}))
    slots = synthetic_slots(cfg)
    trace = tmp_path / "fig4_fit.csv"
    emit_poll_trace(trace, [PollRecord(t, n, w) for t, n, w in slots])
    from backfillsim import trace_summary
    stats = trace_summary(ingest_poll_trace(trace))
    assert stats["mean_nodes"] == pytest.approx(691, rel=0.05)
    assert stats["mean_walltime_s"] == pytest.approx(7560, rel=0.05)


def test_efficiency_accepts_swf_background(tmp_path):
    from backfillsim import TraceJob, emit_swf, generate_background_jobs
    from backfillsim.workload import BackgroundLoadProfile
    from backfillsim.simcore import stream_rng
    profile = BackgroundLoadProfile(target_utilization=0.8)
    jobs = [TraceJob(t, n, r, w) for t, n, r, w in
            generate_background_jobs(profile, 86400, stream_rng(8, "swf-bg"),
                                     total_nodes=18688, capability_cap_s=86400)]
    swf = tmp_path / "background.swf"
    emit_swf(swf, jobs)
    cfg = resolve_config({"scenario": "efficiency", "output_dir": "swf_eff",
                          "horizon_days": 1,
                          "background": {"target_utilization": None,
                                         "trace_path": str(swf)}})
    manifest = run_scenario(cfg, base_dir=tmp_path)
    rows = read_csv(tmp_path / "swf_eff" / "monthly_report.csv")
    assert float(rows[0]["avail_core_hours"]) > 0
    # re-recorded when BackgroundLoadProfile.mean_nodes became the sampler's
    # exact mean, which sets the arrival rate of the stream written to the SWF
    # (the manifest itself hashes the tmp_path trace path, so compare outputs)
    assert manifest.outputs == {
        "bundles.csv": "5c3bba8c83b26dc756af05d5f52077b624105b072874da52d1ac331c398b7586",
        "monthly_report.csv":
            "110662afde3700e0258fcccbc89212e65fd3117f6758600169ed3c6f3d7c5180",
        "slots.csv": "59b5ba2d360d299c56e341e5efb35c7ffda558c2cb9a1478afadc592d43975de",
        "summary.yaml": "3b56d32b6ace31464fc972c542bb3f153be5e9a31f77d98463950bbaae773e62",
    }


def test_swf_background_in_file_order_runs_as_its_stably_sorted_copy(tmp_path):
    from backfillsim import TraceJob, emit_swf, generate_background_jobs
    from backfillsim.workload import BackgroundLoadProfile
    jobs = [TraceJob(t, n, r, w) for t, n, r, w in
            generate_background_jobs(BackgroundLoadProfile(target_utilization=0.8), 21600,
                                     stream_rng(8, "swf-bg"), total_nodes=18688,
                                     capability_cap_s=86400)]
    # every third job shares its predecessor's submit time, then the file is shuffled
    for i in range(2, len(jobs), 3):
        jobs[i] = TraceJob(jobs[i - 1].submit, jobs[i].nodes, jobs[i].runtime, jobs[i].walltime)
    shuffled = [jobs[i] for i in np.random.default_rng(3).permutation(len(jobs))]
    assert [j.submit for j in shuffled] != sorted(j.submit for j in shuffled)

    def outputs(name, order):
        emit_swf(tmp_path / f"{name}.swf", order)
        cfg = resolve_config({"scenario": "efficiency", "output_dir": name, "horizon_days": 0.25,
                              "background": {"target_utilization": None,
                                             "trace_path": str(tmp_path / f"{name}.swf")}})
        return run_scenario(cfg, base_dir=tmp_path).outputs

    # three jobs too wide to run together tie at t=3600, so the one listed
    # first in the file runs first
    wide = [TraceJob(3600, nodes, 5400, 7200) for nodes in (12000, 10000, 11000)]
    assert outputs("shuffled", shuffled + wide) == outputs(
        "sorted", sorted(shuffled + wide, key=lambda j: j.submit))
    assert outputs("swapped", shuffled + wide[::-1]) != outputs("shuffled", shuffled + wide)


def test_background_arrivals_are_fed_not_scheduled():
    tree = ScenarioConfig.from_dict(resolve_config({"scenario": "efficiency"}))
    sim = Simulation(seed=1)
    cluster = EasyBackfillScheduler(sim, tree.cluster)
    submit, arrivals = cluster.submit, []

    def recording_submit(job):
        arrivals.append(sim.now)
        return submit(job)

    cluster.submit = recording_submit
    scenarios._feed_background(sim, cluster, tree.background, 86400)
    assert sim._queue == [] and cluster.queue == []
    sim.run_until(3600)
    assert len(arrivals) == cluster._submit_counter > 0
    assert arrivals == sorted(arrivals)  # in submit order
    assert all(ev.kind != "capability_arrival" for _, _, ev in sim._queue)
