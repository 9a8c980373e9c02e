import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backfillsim import AgentTimeline, OverheadModel, Unit, UnitDurationModel, run_pilot
from backfillsim.pilot import DONE, INCOMPLETE
from pilot_oracle import OracleTimeline

ZERO = OverheadModel(bootstrap_s=0.0, dispatch_per_unit_s=0.0, launch_per_unit_s=0.0)


def constant_units(n, value):
    return [float(value)] * n


def test_large_pilot_accepted():
    rep = run_pilot(2000, 7200, constant_units(2000, 4200.0), ZERO)
    assert rep.units_done == 2000


def test_single_unit_zero_overheads_report():
    rep = run_pilot(1, 7200, constant_units(1, 4200.0), ZERO)
    assert rep.duration_s == pytest.approx(4200.0)
    assert rep.overhead_s == pytest.approx(0.0)
    assert rep.mean_task_s == pytest.approx(4200.0)


def test_matched_units_run_in_one_generation():
    rep = run_pilot(250, 7200, constant_units(250, 4200.0), ZERO)
    assert rep.units_done == 250
    assert rep.generations == 1
    assert all(g == 1 for g in rep.generations_per_node.values())


def test_five_units_per_node_run_five_generations():
    rep = run_pilot(64, 10800, constant_units(5 * 64, 1200.0), ZERO)
    assert rep.units_done == 320
    assert all(g == 5 for g in rep.generations_per_node.values())


def test_uniform_durations_give_exact_generation_split():
    rep = run_pilot(256, 86000, constant_units(2048, 1000.0), ZERO)
    assert sorted(rep.generations_per_node.values()) == [8] * 256


def test_overhead_exactly_linear_without_duration_noise():
    # model-level invariant: constant tasks make overhead(N) affine in N
    overheads = OverheadModel(bootstrap_s=180.0, dispatch_per_unit_s=0.015,
                              launch_per_unit_s=0.1)
    sizes = [250, 500, 1000, 2000]
    ys = [run_pilot(nodes, 7200, constant_units(nodes, 4650.0), overheads).overhead_s
          for nodes in sizes]
    x = np.array(sizes, float)
    y = np.array(ys)
    slope, icpt = np.polyfit(x, y, 1)
    pred = slope * x + icpt
    r2 = 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert r2 > 0.99


def test_next_unit_launches_after_launch_latency():
    overheads = OverheadModel(bootstrap_s=0.0, dispatch_per_unit_s=0.0,
                              launch_per_unit_s=2.5)
    timeline = AgentTimeline(1, 100_000.0, overheads)
    timeline.add_units(constant_units(2, 1000.0))
    units = timeline.units
    assert units[0].start == pytest.approx(2.5)
    assert units[1].start == pytest.approx(units[0].end + 2.5)


def test_serial_dispatch_ramp_delays_arrivals():
    overheads = OverheadModel(bootstrap_s=10.0, dispatch_per_unit_s=1.0,
                              launch_per_unit_s=0.0)
    timeline = AgentTimeline(3, 100_000.0, overheads)
    timeline.add_units(constant_units(3, 50.0))
    assert [u.start for u in timeline.units] == [pytest.approx(11.0), pytest.approx(12.0),
                                                 pytest.approx(13.0)]


seconds = st.floats(0.0, 3000.0, allow_nan=False)


@given(st.lists(seconds, min_size=1, max_size=40), st.integers(1, 4), seconds,
       st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(1.0, 20_000.0))
@settings(max_examples=100, deadline=None)
def test_next_start_is_the_next_units_start(durations, nodes, bootstrap, dispatch,
                                            launch, walltime):
    timeline = AgentTimeline(nodes, walltime, OverheadModel(bootstrap, dispatch, launch))
    # reference: serial dispatch, first node to come free, then launch
    free, arrive = [bootstrap] * nodes, bootstrap
    previous = -math.inf
    for duration in durations:
        arrive += dispatch
        predicted = timeline.next_start()
        assert predicted == max(min(free), arrive) + launch
        assert predicted >= previous
        previous = predicted
        recorded = len(timeline.units)
        timeline.add_units([duration])
        if predicted < walltime:
            (unit,) = timeline.units[recorded:]
            assert unit.start == predicted
            free[free.index(min(free))] = predicted + duration
        else:
            assert len(timeline.units) == recorded  # a unit that never starts: no record
    # one call with every unit places them as the one-unit calls did
    whole = AgentTimeline(nodes, walltime, OverheadModel(bootstrap, dispatch, launch))
    whole.add_units(durations)
    assert whole.units == timeline.units
    assert whole.next_start() == timeline.next_start()


# zero, tied and infinite durations, and walltimes that cut inside the first generation
unit_seconds = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 40.0, math.inf]),
                         st.floats(0.0, 200.0))
overhead_seconds = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@given(st.integers(1, 8), st.lists(unit_seconds, max_size=24),
       st.lists(st.integers(0, 24), max_size=3), overhead_seconds, overhead_seconds,
       overhead_seconds, st.floats(0.5, 400.0))
@example(3, [0.0] * 5, [], 0.0, 0.0, 0.0, 10.0)  # units ending at ready_at free their node
@example(4, [50.0] * 6, [2], 5.0, 1.0, 0.5, 7.5)  # cut at the walltime in the first generation
# a finite generation with one unit cut, then an all-+inf one in its own call
@example(3, [5.0, 20.0, 7.0, math.inf, math.inf, math.inf], [3], 0.0, 0.0, 0.0, 10.0)
# in the second call a unit ends (at 1) before the next node comes free (at 2.5),
# so the loop starts the next unit on that node, not on the node the bulk step has next
@example(2, [0.0, 2.5, 1.0, 0.0], [2], 0.0, 0.0, 0.0, 2.0)
@settings(max_examples=300)
def test_timeline_matches_the_per_unit_oracle(nodes, durations, cuts, bootstrap, dispatch,
                                              launch, walltime):
    overheads = OverheadModel(bootstrap, dispatch, launch)
    oracle = OracleTimeline(nodes, walltime, overheads)
    oracle.add_units(durations)
    whole = AgentTimeline(nodes, walltime, overheads)
    whole.add_units(durations)
    # the same units handed over in several calls, the first maybe empty
    split = AgentTimeline(nodes, walltime, overheads)
    bounds = sorted(min(c, len(durations)) for c in cuts)
    for lo, hi in zip([0, *bounds], [*bounds, len(durations)]):
        split.add_units(durations[lo:hi])
    for timeline in (whole, split):
        assert timeline.units == oracle.units
        assert timeline.units_cut == oracle.units_cut
        assert timeline.next_start() == oracle.next_start()
        assert timeline.finalize() == oracle.finalize()


def test_many_step_placement_matches_the_per_unit_oracle():
    # a spread ten times the mean frees the nodes out of order, so one call
    # takes 169 numpy steps, more than the property above reaches; 534 of
    # the 640 units start and 64 of those are cut at the walltime
    durations = UnitDurationModel(mean_s=100.0, sd_s=1000.0).sample(
        640, np.random.default_rng(3)).tolist()
    oracle = OracleTimeline(64, 3600, OverheadModel())
    oracle.add_units(durations)
    timeline = AgentTimeline(64, 3600, OverheadModel())
    timeline.add_units(durations)
    assert (timeline.units_started, timeline.units_cut) == (534, 64)
    assert timeline.units == oracle.units
    assert timeline.next_start() == oracle.next_start()
    assert timeline.finalize() == oracle.finalize()


@pytest.mark.parametrize("nodes, durations, overheads, walltime, steps", [
    # 20,000 widely spread units on 2,000 nodes take thousands of numpy
    # steps, each merging the nodes it placed back into (free at, node) order
    (2000, UnitDurationModel(mean_s=100.0, sd_s=1000.0).sample(
        20_000, np.random.default_rng(3)), OverheadModel(), 4000.0, 2000),
    # the second step frees node 1, then node 0, both at 10: node 0 is next
    (2, np.array([5.0, 0.0, 10.0, 5.0, 1.0]), ZERO, 100.0, 3),
])
def test_many_steps_match_the_per_unit_oracle_column_by_column(nodes, durations, overheads,
                                                              walltime, steps):
    oracle = OracleTimeline(nodes, walltime, overheads)
    oracle.add_units(durations.tolist())
    timeline = AgentTimeline(nodes, walltime, overheads)
    timeline.add_units(durations)
    assert len(timeline._started) - 1 >= steps  # one record per step after the empty one
    node, start, end = timeline._columns()
    assert node.tolist() == [u.node for u in oracle.units]
    assert start.tolist() == [u.start for u in oracle.units]
    assert np.minimum(end, walltime).tolist() == [u.end for u in oracle.units]
    assert timeline.units_cut == oracle.units_cut
    assert timeline.next_start() == oracle.next_start()
    assert timeline.finalize() == oracle.finalize()


def test_walltime_expiry_cuts_running_units():
    rep = run_pilot(2, 1000, constant_units(4, 600.0), ZERO)
    assert rep.units_done == 2
    assert rep.units_incomplete == 2
    assert rep.duration_s == pytest.approx(1000.0)
    assert rep.overhead_s == pytest.approx(0.0)  # cut units count as busy
    timeline = AgentTimeline(2, 1000, ZERO)
    timeline.add_units(constant_units(4, 600.0))
    assert [u.end for u in timeline.units] == [600.0, 600.0, 1000.0, 1000.0]


def test_only_started_units_are_recorded_with_their_outcome():
    timeline = AgentTimeline(1, 1000, ZERO)
    timeline.add_units(constant_units(3, 600.0))
    assert timeline.units == [Unit(0, 0.0, 600.0, DONE), Unit(0, 600.0, 1000.0, INCOMPLETE)]
    assert timeline.finalize() == 1000.0


def test_per_node_units_never_overlap():
    durations = UnitDurationModel(mean_s=300.0, sd_s=40.0).sample(
        60, np.random.default_rng(7))
    timeline = AgentTimeline(5, 10_000, OverheadModel())
    timeline.add_units(durations.tolist())
    per_node = {}
    for u in timeline.units:
        per_node.setdefault(u.node, []).append((u.start, u.end))
    assert sorted(per_node) == list(range(5))
    for spans in per_node.values():
        spans.sort()
        assert all(b0 >= a1 for (_, a1), (b0, _) in zip(spans, spans[1:]))


def test_overhead_model_rejects_negative():
    with pytest.raises(ValueError):
        OverheadModel(bootstrap_s=-1.0)
