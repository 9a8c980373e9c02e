import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backfillsim import (AvailabilityLedger, BACKFILL, BatchJob, Bundle, ClusterConfig,
                         EasyBackfillScheduler, PollRecord, Simulation, month_windows,
                         total_backfill_availability, window_report)
from backfillsim.metrics import write_window_reports


def finished_bundle(nodes, start, end, done=0, failed=0, events=100):
    return Bundle(id=f"b-{start}-{end}", nodes=nodes, walltime=end - start,
                  events_per_payload=events, submit_time=start, start_time=start,
                  end_time=end, payloads_done=done, failures={"payload": failed})


def test_no_polls_is_zero_availability():
    assert total_backfill_availability([], (0, 3600), 16) == 0.0


def test_walltime_credit_mode():
    polls = [PollRecord(0, 691, 7560)]
    got = total_backfill_availability(polls, (0, 3600), cores_per_node=16)
    assert got == pytest.approx(691 * 16 * 7560 / 3600)


def test_consumption_overlap_split():
    b = finished_bundle(10, 100, 200, done=8, failed=2)
    full = window_report([b], (0, 1000), 16, 1.0)
    first = window_report([b], (0, 150), 16, 1.0)
    second = window_report([b], (150, 1000), 16, 1.0)
    assert full.used_core_hours == pytest.approx(10 * 16 * 100 / 3600)
    assert first.used_core_hours + second.used_core_hours == pytest.approx(
        full.used_core_hours)
    # counts go to the window holding the bundle's end
    assert (first.jobs_done, first.jobs_failed, first.events_done) == (0, 0, 0)
    assert (second.jobs_done, second.jobs_failed, second.events_done) == (8, 2, 800)


def test_report_equal_ledgers_efficiency_one():
    avail = total_backfill_availability([PollRecord(0, 100, 60)], (0, 60), 16)
    report = window_report([finished_bundle(100, 0, 60)], (0, 60), 16, avail)
    assert report.efficiency == pytest.approx(1.0)


def test_report_zero_availability_has_absent_efficiency():
    report = window_report([], (0, 60), 16, 0.0)
    assert report.efficiency is None


def test_events_identity_under_fixed_sizing():
    bundles = [finished_bundle(102, i, i + 100, done=90, failed=12) for i in range(25)]
    report = window_report(bundles, (0, 10_000), 16, 1.0)
    assert report.jobs_done == 2250
    assert report.jobs_failed == 300
    assert report.events_done == report.jobs_done * 100
    # the ledger identity behind the reported production totals
    assert 2_250_000 * 100 == 225_000_000


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 50), st.integers(0, 400)),
                max_size=25),
       st.integers(1, 499))
@settings(max_examples=60, deadline=None)
def test_windowed_reports_are_additive(poll_specs, cut):
    polls = sorted((PollRecord(t, n, w) for t, n, w in poll_specs),
                   key=lambda p: p.observed_at)
    bundles = [finished_bundle(n + 1, t, t + w + 1, done=n % 3, failed=n % 2)
               for t, n, w in poll_specs]

    def report(window):
        avail = total_backfill_availability(polls, window, 16)
        return window_report(bundles, window, 16, avail)

    whole, left, right = report((0, 500)), report((0, cut)), report((cut, 500))
    assert left.avail_core_hours + right.avail_core_hours == pytest.approx(
        whole.avail_core_hours)
    assert left.used_core_hours + right.used_core_hours == pytest.approx(
        whole.used_core_hours)
    assert left.jobs_done + right.jobs_done == whole.jobs_done
    assert left.jobs_failed + right.jobs_failed == whole.jobs_failed
    assert left.events_done + right.events_done == whole.events_done


def test_ledger_tracks_exact_backfill_availability():
    sim = Simulation(seed=0)
    cfg = ClusterConfig(total_nodes=10, cores_per_node=16,
                        backfill_caps=((1 << 31, 1 << 20),),
                        capability_caps=((1 << 31, 1 << 20),))
    sched = EasyBackfillScheduler(sim, cfg)
    ledger = AvailabilityLedger(sim, sched)
    sched.submit(BatchJob(nodes=6, walltime=100, runtime=100))  # capability
    sim.run_until(0)
    sched.submit(BatchJob(nodes=4, walltime=50, runtime=50, priority_class=BACKFILL))
    sim.run()
    # availability = free + backfill-held = 10 - capability-held
    # capability job holds 6 nodes for 100 s, afterwards everything is free
    assert ledger.node_seconds((0, 200)) == 4 * 100 + 10 * 100
    expected = (4 * 100 + 10 * 100) * 16 / 3600
    assert ledger.core_hours((0, 200), 16) == pytest.approx(expected)


def test_used_never_exceeds_exact_availability():
    sim = Simulation(seed=4)
    cfg = ClusterConfig(total_nodes=12, cores_per_node=16,
                        backfill_caps=((1 << 31, 1 << 20),),
                        capability_caps=((1 << 31, 1 << 20),))
    sched = EasyBackfillScheduler(sim, cfg)
    ledger = AvailabilityLedger(sim, sched)
    rng = sim.rng("mix")
    backfill_jobs = []

    def record(job):
        if job.priority_class == BACKFILL:
            backfill_jobs.append(job)

    for _ in range(120):
        klass = BACKFILL if rng.random() < 0.5 else "capability"
        job = BatchJob(nodes=int(rng.integers(1, 13)),
                       walltime=int(rng.integers(1, 80)),
                       runtime=None if False else int(rng.integers(1, 80)),
                       priority_class=klass, on_end=record)
        job.runtime = min(job.runtime, job.walltime)
        sim.schedule(int(rng.integers(0, 500)), "arrive",
                     lambda j=job: sched.submit(j))
    sim.run()
    horizon = sim.now + 1
    used = sum(j.nodes * 16 * (j.end_time - j.start_time) / 3600 for j in backfill_jobs)
    avail = ledger.core_hours((0, horizon), 16)
    assert used <= avail + 1e-9


def test_month_windows_track_the_calendar():
    windows = month_windows("2016-01-01", 91 * 86400)
    assert windows[0] == ("2016-01", 0, 31 * 86400)
    assert windows[1] == ("2016-02", 31 * 86400, 60 * 86400)  # leap February
    assert windows[2][0] == "2016-03"
    assert windows[2][2] == 91 * 86400  # clipped at the horizon


def test_write_window_reports(tmp_path):
    avail = total_backfill_availability([PollRecord(0, 10, 60)], (0, 60), 16)
    report = window_report([], (0, 60), 16, avail)
    path = tmp_path / "monthly.csv"
    write_window_reports(path, [("2016-01", report)])
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("window,window_start,window_end,avail_core_hours")
    assert lines[1].startswith("2016-01,0,60,")


def test_month_windows_cross_year_boundary():
    windows = month_windows("2016-12-15", 40 * 86400)
    assert windows[0][0] == "2016-12"
    assert windows[1][0] == "2017-01"
    assert windows[0][2] == 17 * 86400  # Dec 15 -> Jan 1
