"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s -v` to see
them). Tolerances are fixed here, not tuned at runtime.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from backfillsim import (ScenarioConfig, SimJobSpec, WorkloadConfig, job_makespans_batch,
                         load_scenario_file, resolve_config, stream_rng)
from backfillsim.metrics import month_windows, window_report
from backfillsim.scenarios import (_efficiency_outputs, _finish_manifest, _run_cluster,
                                   _run_one_pilot, _used_core_hours, consume_slot_broker,
                                   consume_slot_pilot, run_scenario, synthetic_slots)
from backfillsim.traces import trace_summary

from test_scheduler import assert_matches_oracle, honesty_trial

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
FIG4_NODES = 691.0
FIG4_WALLTIME_S = 126 * 60.0


def resolved_tree(overrides):
    return ScenarioConfig.from_dict(resolve_config(overrides))


def check(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- shared expensive runs -------------------------------------------------------


@pytest.fixture(scope="session")
def efficiency_month(tmp_path_factory):
    # the shipped seed-1, 30-day config; its outputs are written and hashed
    # too, so the same run pins the tracked golden manifest
    raw = load_scenario_file(ROOT / "configs" / "efficiency_month.yaml")
    cfg = ScenarioConfig.from_dict(raw)
    assert (cfg.seed, cfg.horizon_days) == (SEED, 30)
    t0 = time.time()
    parts = _run_cluster(cfg, with_brokers=True)
    wall = time.time() - t0
    out_dir = tmp_path_factory.mktemp("efficiency_month")
    _finish_manifest(raw, out_dir, _efficiency_outputs(cfg, out_dir, *parts))
    return cfg, parts, wall, out_dir / "manifest.json"


@pytest.fixture(scope="session")
def efficiency_month_4brokers():
    cfg = resolved_tree({"scenario": "efficiency", "seed": SEED, "horizon_days": 30})
    t0 = time.time()
    parts = _run_cluster(cfg, with_brokers=True, n_brokers=4)
    return cfg, parts, time.time() - t0


@pytest.fixture(scope="session")
def calibration_month():
    cfg = resolved_tree({"scenario": "slot_calibration", "seed": SEED,
                         "horizon_days": 30})
    parts = _run_cluster(cfg, with_brokers=False)
    return cfg, parts


def scaling_reports(scenario):
    cfg = resolved_tree({"scenario": scenario, "seed": SEED})
    p = cfg.pilot
    reports = []
    for nodes in p.nodes_list:
        n_units = p.units_total if p.units_total is not None \
            else nodes * p.units_per_node
        reports.append((nodes, n_units, _run_one_pilot(cfg, nodes, n_units)))
    return cfg, reports


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_backfill_oracle_equivalence():
    t0 = time.time()
    assert_matches_oracle(trials=1000, seed=20160101)
    dt = time.time() - t0
    check("criterion 1 (oracle equivalence)", dt < 60,
          f"1000 randomized instances match the brute-force oracle exactly "
          f"in {dt:.1f}s")


def test_criterion_02_showbf_honesty():
    t0 = time.time()
    rng = np.random.default_rng(20170201)
    submittable = sum(honesty_trial(rng) for _ in range(1000))
    dt = time.time() - t0
    check("criterion 2 (slot-report honesty)",
          submittable >= 300 and dt < 60,
          f"1000 randomized states; {submittable} non-empty slots all started "
          f"at submit time ({dt:.1f}s)")


def test_criterion_03_contention_ratio():
    model = WorkloadConfig().payload_model
    c = WorkloadConfig().contention
    m8 = model.sample(100_000, stream_rng(3, "acc-c8")) * c.scale(8, 16)
    m16 = model.sample(100_000, stream_rng(3, "acc-c16")) * c.scale(16, 16)
    ratio = m16.mean() / m8.mean()
    target = 14.25 / 10.8
    check("criterion 3 (contention ratio)", abs(ratio / target - 1) < 0.01,
          f"16-way/8-way mean ratio {ratio:.4f} vs {target:.4f} (tol 1%)")


def test_criterion_04_makespan():
    spec = SimJobSpec(events=100, slots_per_node=16)
    model = WorkloadConfig().payload_model
    ms = job_makespans_batch(10_000, spec, model, stream_rng(4, "acc-makespan"))
    mean = ms.mean()
    check("criterion 4 (105-minute makespan)",
          6300 * 0.95 <= mean <= 6300 * 1.05,
          f"mean makespan {mean:.0f}s over 10^4 replications "
          f"(band {6300*0.95:.0f}..{6300*1.05:.0f}s)")


def test_efficiency_month_reproduces_its_golden(efficiency_month):
    manifest = efficiency_month[3]
    golden = ROOT / "out" / "efficiency_month" / "manifest.json"
    assert manifest.read_bytes() == golden.read_bytes()


def test_criterion_05_broker_floors(efficiency_month):
    cfg, (cluster, ledger, poller, fleet, horizon), _, _ = efficiency_month
    bad = [b for b in fleet.bundles
           if b.walltime < 6300 or not 15 <= b.nodes <= 300]
    check("criterion 5 (bundle floors)", len(fleet.bundles) > 0 and not bad,
          f"{len(fleet.bundles)} bundles, zero outside walltime >= 6300s and "
          f"nodes in [15, 300]")


def test_criterion_06_efficiency_band(efficiency_month, calibration_month):
    _, (ccluster, cledger, cpoller, _, chorizon) = calibration_month
    stats = trace_summary(cpoller.polls)
    nodes_ok = 0.7 * FIG4_NODES <= stats["mean_nodes"] <= 1.3 * FIG4_NODES
    wall_ok = 0.7 * FIG4_WALLTIME_S <= stats["mean_walltime_s"] <= 1.3 * FIG4_WALLTIME_S
    check("criterion 6a (background tuned to slot-distribution means)",
          nodes_ok and wall_ok,
          f"broker-free slot means: {stats['mean_nodes']:.0f} nodes "
          f"(band {0.7*FIG4_NODES:.0f}..{1.3*FIG4_NODES:.0f}), "
          f"{stats['mean_walltime_s']:.0f}s walltime "
          f"(band {0.7*FIG4_WALLTIME_S:.0f}..{1.3*FIG4_WALLTIME_S:.0f})")

    cfg, (cluster, ledger, poller, fleet, horizon), wall, _ = efficiency_month
    cores = cluster.config.cores_per_node
    for label, w0, w1 in month_windows(cfg.start_date, horizon):
        avail = ledger.core_hours((w0, w1), cores)
        # exact windowed consumption of the bundles for the used <= avail bound
        used = window_report(fleet.bundles, (w0, w1), cores, avail).used_core_hours
        eff = used / avail
        check(f"criterion 6b (efficiency band, {label})",
              0.078 <= eff <= 0.309 and used <= avail,
              f"efficiency {eff:.4f} in [0.078, 0.309]; used {used:.0f} <= "
              f"avail {avail:.0f} core-hours (exact)")
    jobs_done = sum(b.payloads_done for b in fleet.bundles)
    events_done = sum(b.payloads_done * b.events_per_payload for b in fleet.bundles)
    check("criterion 6c (events identity)",
          jobs_done > 0 and events_done == jobs_done * 100,
          f"{jobs_done} payloads x 100 events == {events_done} events processed")
    check("criterion 6d (runtime budget)", wall < 300,
          f"one simulated month in {wall:.0f}s wall-clock (< 300s)")


def test_criterion_07_broker_count_effect(efficiency_month, efficiency_month_4brokers):
    cfg, (_, _, _, fleet20, _), wall20, _ = efficiency_month
    _, (_, _, _, fleet4, _), wall4 = efficiency_month_4brokers
    used20 = _used_core_hours(fleet20.bundles, cfg.cluster.cores_per_node)
    used4 = _used_core_hours(fleet4.bundles, cfg.cluster.cores_per_node)
    check("criterion 7 (broker-count effect)",
          used20 > used4 and wall4 + wall20 < 600,
          f"same seed and background: 20 brokers consumed {used20/1e6:.2f}M "
          f"core-hours vs {used4/1e6:.2f}M with 4")


def test_criterion_08_weak_scaling():
    t0 = time.time()
    cfg, reports = scaling_reports("weak_scaling")
    means = [r.mean_task_s for _, _, r in reports]
    mean_ok = all(4500 <= m <= 4800 for m in means)
    x = np.array([n for n, _, _ in reports], float)
    y = np.array([r.overhead_s for _, _, r in reports])
    slope, icpt = np.polyfit(x, y, 1)
    pred = slope * x + icpt
    r2 = 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    dt = time.time() - t0
    check("criterion 8 (weak scaling)", mean_ok and r2 > 0.95 and dt < 120,
          f"mean task {min(means):.0f}..{max(means):.0f}s in [4500, 4800]; "
          f"overhead vs units R^2={r2:.3f} (> 0.95); {dt:.1f}s")


def test_criterion_09_multi_generation():
    t0 = time.time()
    cfg, reports = scaling_reports("multi_generation")
    ok = True
    details = []
    for nodes, units, rep in reports:
        done_ok = rep.units_done == 5 * nodes
        mean_ok = abs(rep.mean_task_s - 1200) <= 120
        time_ok = rep.duration_s <= 10800
        ok = ok and done_ok and mean_ok and time_ok
        details.append(f"{nodes}: task {rep.mean_task_s:.0f}s, "
                       f"{rep.units_done}/{units} done in {rep.duration_s:.0f}s")
    dt = time.time() - t0
    check("criterion 9 (multi-generation)", ok and dt < 120,
          "; ".join(details))


def test_criterion_10_strong_scaling():
    t0 = time.time()
    cfg, reports = scaling_reports("strong_scaling")
    all_done = all(r.units_done == 2048 for _, _, r in reports)
    overheads = np.array([r.overhead_s for _, _, r in reports])
    spread = (overheads.max() - overheads.min()) / overheads.mean()
    ratio = reports[0][2].duration_s / reports[-1][2].duration_s
    dt = time.time() - t0
    check("criterion 10 (strong scaling)",
          all_done and spread < 0.10 and 6.5 <= ratio <= 8.5 and dt < 120,
          f"2048 units done at every size; overhead spread "
          f"{spread*100:.1f}% of mean (< 10%); 256-vs-2048-node duration "
          f"ratio {ratio:.2f} in [6.5, 8.5]; {dt:.1f}s")


def test_criterion_11_pilot_vs_broker_consumption():
    t0 = time.time()
    # slots up to the full 24 h band make the multi-generation effect visible
    cfg = resolved_tree({"scenario": "broker_vs_pilot", "seed": SEED,
                         "cluster": {"backfill_caps": [[2147483648, 86400]]},
                         "compare": {"slots": 120}})
    model = cfg.workload.payload_model
    contention = cfg.workload.contention
    setup = cfg.workload.setup_s
    overheads = cfg.pilot
    b = cfg.broker
    spec = SimJobSpec(events=b.events_per_job, slots_per_node=b.slots_per_node)
    mean_task = setup + 6300.0  # mean payload duration at 16 slots
    cores = 16
    accepted = strict_due = strict_seen = 0
    for i, (at, slot_nodes, slot_walltime) in enumerate(synthetic_slots(cfg)):
        if slot_nodes < b.min_nodes_per_bundle or \
                slot_walltime < b.min_slot_walltime_s:
            continue
        accepted += 1
        nodes = min(slot_nodes, b.max_nodes_per_bundle)
        walltime = min(slot_walltime, 86400)
        gens = int(walltime / mean_task) + 2
        rng = stream_rng(SEED, f"acc-compare-{i}")
        pool = job_makespans_batch(nodes * gens, spec, model, rng,
                                   contention=contention, setup_s=setup)
        pool = pool.reshape(gens, nodes)
        broker_ch, _, held = consume_slot_broker(nodes, walltime, pool[0], cores)
        later = iter(pool[1:])
        pilot_ch, _ = consume_slot_pilot(nodes, walltime, pool[0], lambda _: next(later),
                                         overheads, cores)
        assert pilot_ch >= broker_ch
        if walltime - held >= mean_task:
            strict_due += 1
            if pilot_ch > broker_ch:
                strict_seen += 1
    dt = time.time() - t0
    check("criterion 11 (pilot vs broker consumption)",
          accepted > 20 and strict_due > 5 and strict_seen == strict_due and dt < 300,
          f"{accepted} shared slots: pilot >= broker everywhere; strict gain on "
          f"all {strict_due} slots with residual >= one mean task; {dt:.1f}s")


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for run_dir in ("r1", "r2"):
        cfg = resolve_config({"scenario": "efficiency", "seed": SEED,
                              "horizon_days": 2, "output_dir": "det"})
        manifest = run_scenario(cfg, base_dir=tmp_path / run_dir)
        outputs.append(manifest)
    same = outputs[0].to_json() == outputs[1].to_json()
    scal = []
    for run_dir in ("w1", "w2"):
        cfg = resolve_config({"scenario": "weak_scaling", "seed": SEED,
                              "output_dir": "det", "pilot": {"nodes_list": [64, 128]}})
        scal.append(run_scenario(cfg, base_dir=tmp_path / run_dir))
    same_scal = scal[0].to_json() == scal[1].to_json()
    check("criterion 12 (byte-identical reruns)", same and same_scal,
          "efficiency and scaling scenarios rerun to identical output hashes")
