import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri
from scipy.stats import lognorm

import backfillsim
from backfillsim import (BackgroundLoadProfile, IoProfile, SetupModel, SimJobSpec,
                         WorkloadConfig, generate_background_jobs, job_makespans_batch,
                         stream_rng)
from backfillsim.workload import (EventDurationModel, _brentq, _clipped_normal_mean,
                                  _truncated_lognormal_mean)

from makespan_oracle import (ConstantDurationModel, SmallIntegerDurationModel, job_makespan,
                             list_schedule_makespan)

WORKLOAD = WorkloadConfig()
MODEL = WORKLOAD.payload_model
MACHINE = {"total_nodes": 18688, "capability_cap_s": 86400}


def test_single_sample_within_model_bounds():
    x = MODEL.sample(1, stream_rng(0, "one"))
    assert 120.0 <= x[0] <= 2400.0


def test_large_sample_mean_near_fourteen_minutes():
    x = MODEL.sample(100_000, stream_rng(0, "mean"))
    assert 823.2 <= x.mean() <= 856.8  # 14 min +/- 2%


def test_sampling_is_deterministic_under_fixed_stream():
    a = MODEL.sample(1000, stream_rng(5, "s")).tolist()
    b = MODEL.sample(1000, stream_rng(5, "s")).tolist()
    assert a == b


def test_fitted_mean_matches_quadrature_oracle():
    # independent check of the closed-form truncated mean used by fit()
    dist = lognorm(s=MODEL.sigma, scale=math.exp(MODEL.mu))
    z = dist.cdf(MODEL.hi) - dist.cdf(MODEL.lo)
    num, _ = integrate.quad(lambda x: x * dist.pdf(x), MODEL.lo, MODEL.hi)
    assert num / z == pytest.approx(840.0, abs=1e-6)
    assert MODEL.mean() == pytest.approx(840.0, abs=1e-6)


@given(st.integers(0, 10_000), st.integers(1, 500))
@settings(max_examples=30, deadline=None)
def test_no_sample_ever_escapes_truncation(seed, n):
    x = MODEL.sample(n, stream_rng(seed, "trunc"))
    assert np.all(x >= 120.0) and np.all(x <= 2400.0)


def test_import_leaves_scipy_stats_unloaded():
    # the clipped-normal fit writes the normal pdf out instead, and both fits
    # solve with the library's own Brent port; resolving runs both fits
    src = Path(backfillsim.__file__).resolve().parent.parent
    code = ("import sys, backfillsim; backfillsim.resolve_config({}); "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"


def _root_or_error(solver, f, a, b, xtol):
    try:
        return solver(f, a, b, xtol=xtol)
    except ValueError as exc:
        return str(exc)


@given(st.floats(1.0, 1000.0), st.floats(1.5, 100.0), st.floats(0.01, 0.99),
       st.floats(0.05, 3.0), st.floats(0.0, 1.0), st.floats(0.001, 10.0),
       st.floats(0.01, 0.99), st.floats(0.005, 5.0))
@settings(max_examples=150, deadline=None)
def test_brentq_port_returns_scipys_bits(lo, ratio, position, sigma,
                                         io_lo, io_width, io_position, sd):
    # same root bits (or the same refusal) as scipy on both fits' brackets
    hi = lo * ratio
    for mean in (lo + (hi - lo) * position, hi * (1.0 + position)):  # the second: no sign change
        f = lambda mu: _truncated_lognormal_mean(mu, sigma, lo, hi) - mean
        ours = _root_or_error(_brentq, f, math.log(lo), math.log(hi), 1e-10)
        assert ours == _root_or_error(optimize.brentq, f, math.log(lo), math.log(hi), 1e-10)
    assert ours == "f(a) and f(b) must have different signs"
    io_hi = io_lo + io_width
    io_mean = io_lo + io_width * io_position
    f = lambda mu: _clipped_normal_mean(mu, sd, io_lo, io_hi) - io_mean
    a, b = io_lo - 12 * sd, io_hi + 12 * sd
    ours = _brentq(f, a, b, xtol=1e-9)
    assert type(ours) is float and ours == optimize.brentq(f, a, b, xtol=1e-9)


# -- contention ---------------------------------------------------------------


def test_contention_baseline_and_ratio():
    c = WORKLOAD.contention
    assert c.slowdown(8) == 1.0
    assert c.slowdown(1) == 1.0
    assert c.slowdown(16) == pytest.approx(14.25 / 10.8)
    assert c.slowdown(12) == pytest.approx(1.0 + (14.25 / 10.8 - 1.0) / 2)


def test_contention_monotone_non_decreasing():
    c = WORKLOAD.contention
    values = [c.slowdown(k) for k in range(1, 33)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_simulated_contention_ratio_within_one_percent():
    c = WORKLOAD.contention
    scale8 = c.scale(8, MODEL.calibrated_at)
    scale16 = c.scale(16, MODEL.calibrated_at)
    m8 = MODEL.sample(100_000, stream_rng(2, "c8")) * scale8
    m16 = MODEL.sample(100_000, stream_rng(2, "c16")) * scale16
    ratio = m16.mean() / m8.mean()
    assert abs(ratio / (14.25 / 10.8) - 1) < 0.01


# -- makespan -----------------------------------------------------------------


def test_one_wave_makespan_is_max_of_draws():
    spec = SimJobSpec(events=16, slots_per_node=16)
    rng = stream_rng(3, "wave")
    got = job_makespan(spec, MODEL, rng)
    draws = MODEL.sample(16, stream_rng(3, "wave"))
    assert got == pytest.approx(float(draws.max()))


def test_single_event_constant_model_arithmetic():
    spec = SimJobSpec(events=1, slots_per_node=16)
    got = job_makespan(spec, ConstantDurationModel(840.0), stream_rng(0, "x"),
                       setup_s=225.0)
    assert got == 1065.0


def test_mean_makespan_within_five_percent_of_105_minutes():
    spec = SimJobSpec(events=100, slots_per_node=16)
    ms = job_makespans_batch(10_000, spec, MODEL, stream_rng(11, "makespan"))
    assert 6300 * 0.95 <= ms.mean() <= 6300 * 1.05


def test_batch_matches_scalar_list_scheduling():
    # exact: the batch's earliest slot end is the heap's top, and which of two
    # tied slots takes a task never changes the multiset of slot ends, so the
    # sorted merge and the heap add the same floats
    cases = [(SimJobSpec(events=37, slots_per_node=16), MODEL, None),
             (SimJobSpec(events=100, slots_per_node=8), MODEL, WORKLOAD.contention),
             (SimJobSpec(events=12, slots_per_node=16), MODEL, WORKLOAD.contention),
             (SimJobSpec(events=37, slots_per_node=16), ConstantDurationModel(840.0), None)]
    for spec, model, contention in cases:
        batch = job_makespans_batch(50, spec, model, stream_rng(4, "b"),
                                    contention=contention, setup_s=100.0)
        rng = stream_rng(4, "b")
        scalar = [job_makespan(spec, model, rng, contention=contention, setup_s=100.0)
                  for _ in range(50)]
        assert scalar == batch.tolist(), (spec, contention)


@given(n_jobs=st.integers(0, 6), slots=st.sampled_from([8, 16]),
       waves=st.sampled_from([(0, 1), (1, 0), (1, 1), (3, 5)]), seed=st.integers(0, 1000))
@settings(max_examples=200)
def test_batch_matches_scalar_when_slot_ends_tie(n_jobs, slots, waves, seed):
    # durations in {1, 2, 3}: most tasks meet several slots ending together
    full, extra = waves
    spec = SimJobSpec(events=full * slots + extra, slots_per_node=slots)
    model = SmallIntegerDurationModel()
    batch = job_makespans_batch(n_jobs, spec, model, stream_rng(seed, "ties"), setup_s=0.5)
    rng = stream_rng(seed, "ties")
    scalar = [job_makespan(spec, model, rng, setup_s=0.5) for _ in range(n_jobs)]
    assert batch.tolist() == scalar


@given(n_jobs=st.integers(0, 6), slots=st.sampled_from([8, 16]),
       waves=st.sampled_from([(0, 1), (1, 0), (1, 1), (3, 5), (5, 3)]),
       seed=st.integers(0, 1000),
       pick=st.sampled_from(["inf", "zero", "oracle", "below", "above", "random"]),
       row=st.integers(0, 5), fraction=st.floats(0, 1.5))
@settings(max_examples=300)
def test_deadline_cuts_only_rows_that_end_after_it(n_jobs, slots, waves, seed, pick, row,
                                                   fraction):
    full, extra = waves
    spec = SimJobSpec(events=full * slots + extra, slots_per_node=slots)
    model = SmallIntegerDurationModel()
    rng = stream_rng(seed, "deadline")
    oracle = [job_makespan(spec, model, rng, setup_s=0.5) for _ in range(n_jobs)]
    late = max(oracle, default=1.0)
    target = oracle[row % n_jobs] if n_jobs else late
    deadline = {"inf": math.inf, "zero": 0.0, "oracle": target,
                "below": math.nextafter(target, -math.inf),
                "above": math.nextafter(target, math.inf), "random": fraction * late}[pick]
    rng = stream_rng(seed, "deadline")
    batch = job_makespans_batch(n_jobs, spec, model, rng, setup_s=0.5, deadline=deadline)
    durations = model.sample(n_jobs * spec.events, stream_rng(seed, "deadline"))
    bounds = 0.5 + durations.reshape(n_jobs, spec.events).sum(axis=1) / slots
    for got, want, bound in zip(batch.tolist(), oracle, bounds.tolist()):
        if got == math.inf:
            assert want > deadline
        else:
            assert got == want
        if bound > deadline * (1 + 1e-9):
            assert got == math.inf  # a row that cannot end in time is never scheduled
    unbounded_rng = stream_rng(seed, "deadline")
    unbounded = job_makespans_batch(n_jobs, spec, model, unbounded_rng, setup_s=0.5)
    # rows cut after any wave still drew all their uniforms
    assert rng.bit_generator.state == unbounded_rng.bit_generator.state
    if pick == "inf":
        assert batch.tolist() == unbounded.tolist() == oracle


@pytest.mark.parametrize("slots", [8, 16])
def test_deadline_keeps_a_row_that_ends_on_it_when_its_bound_rounds_up(slots):
    # ten tasks of 0.1 s per slot end at 0.9999999999999999 s, while the
    # bound before the first wave computes to 1.0: only the shrink keeps
    # these rows
    spec = SimJobSpec(events=10 * slots, slots_per_node=slots)
    model = ConstantDurationModel(0.1)
    want = job_makespan(spec, model, stream_rng(0, "ulp"))
    assert want < 1.0
    got = job_makespans_batch(3, spec, model, stream_rng(0, "ulp"), deadline=want)
    assert got.tolist() == [want] * 3


def test_transform_of_a_block_is_bit_exact():
    # the deadline path transforms column blocks of alive rows only; each
    # must carry the bits the whole-array transform gives those entries
    rng = stream_rng(6, "block")
    assert MODEL.sample(3000, rng).tolist() == \
        MODEL.transform(MODEL.uniforms(3000, stream_rng(6, "block"))).tolist()
    u = MODEL.uniforms(40 * 100, rng).reshape(40, 100)
    whole = MODEL.transform(u)
    rows = np.array([0, 3, 4, 17, 39])
    for c0, c1 in [(0, 16), (16, 32), (96, 100), (0, 100)]:
        assert MODEL.transform(u[rows, c0:c1]).tolist() == whole[rows, c0:c1].tolist()


@pytest.mark.parametrize("model", [
    MODEL, EventDurationModel.fit(840.0, 0.4, 60.0, 4000.0, 16),
    EventDurationModel.fit(300.0, 2.0, 1.0, 1e5, 8)])
def test_in_place_transform_keeps_the_bits_of_the_expression(model):
    # the bits of clip(exp(mu + sigma * ndtri(u)), lo, hi) over the whole
    # range of `uniforms` and at both ends of it
    u = model.uniforms(200_000, stream_rng(9, "in-place"))
    a, b = (ndtr((math.log(x) - model.mu) / model.sigma) for x in (model.lo, model.hi))
    u = np.concatenate([u, [a, b, np.nextafter(a, 1), np.nextafter(b, 0)]]).reshape(-1, 4)
    expected = np.clip(np.exp(model.mu + model.sigma * ndtri(u)), model.lo, model.hi)
    assert model.transform(u).tolist() == expected.tolist()
    assert model.transform(u[7:9, 1:3]).tolist() == expected[7:9, 1:3].tolist()


@pytest.mark.parametrize("first, second", [(300, 300), (15, 1)])
def test_batch_splits_along_its_stream(first, second):
    # the per-generation payload pool of broker_vs_pilot relies on this
    spec = SimJobSpec(events=100, slots_per_node=16)
    kwargs = dict(contention=WORKLOAD.contention, setup_s=WORKLOAD.setup_s)
    whole = job_makespans_batch(first + second, spec, MODEL, stream_rng(8, "split"),
                                **kwargs)
    rng = stream_rng(8, "split")
    parts = [job_makespans_batch(n, spec, MODEL, rng, **kwargs) for n in (first, second)]
    assert np.array_equal(whole, np.concatenate(parts))


@given(st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_makespan_monotone_in_events_for_fixed_pool(seed):
    pool = MODEL.sample(60, stream_rng(seed, "pool"))
    spans = [list_schedule_makespan(pool[:k], 16) for k in range(1, 61)]
    assert all(b >= a for a, b in zip(spans, spans[1:]))


def test_job_spec_validation():
    with pytest.raises(ValueError):
        SimJobSpec(events=0, slots_per_node=16)
    with pytest.raises(ValueError):
        SimJobSpec(events=10, slots_per_node=4)


# -- setup & I/O ----------------------------------------------------------------


def test_setup_modes():
    s = SetupModel()
    assert s.setup_seconds(setup_fs="shared", setup_event_source="shared") == 6300 + 1320
    assert s.setup_seconds(setup_fs="readonly", setup_event_source="ramdisk") == 225 + 40
    assert s.readonly_fs_setup_s < s.shared_fs_setup_s
    with pytest.raises(ValueError):
        s.setup_seconds(setup_fs="nfs", setup_event_source="ramdisk")


def test_io_profile_means_and_clipping():
    io = IoProfile.default()
    rng = stream_rng(6, "io")
    for name, target in (("read_gb_per_node", 0.38354),
                         ("written_gb_per_node", 0.16794)):
        ch = getattr(io, name)
        s = ch.sample(100_000, rng)
        assert abs(s.mean() / target - 1) < 0.05
        assert s.min() >= ch.lo and s.max() <= ch.hi


# -- background load -------------------------------------------------------------


def test_zero_target_yields_empty_stream():
    profile = BackgroundLoadProfile(target_utilization=0.0)
    jobs = list(generate_background_jobs(profile, 86400, stream_rng(0, "bg"), **MACHINE))
    assert jobs == []


def test_invalid_target_rejected():
    with pytest.raises(ValueError, match="target_utilization"):
        BackgroundLoadProfile(target_utilization=1.5)


def test_mean_nodes_is_the_sampler_mean():
    # one band 1..3: exp(U(0, log 4)) rounds to 1 on [1, 1.5), to 2 on
    # [1.5, 2.5), and to 3 on [2.5, 3.5) plus the clamped [3.5, 4)
    one_band = BackgroundLoadProfile(size_mix=((1.0, 1, 3),))
    by_hand = (math.log(1.5) + 2 * math.log(2.5 / 1.5) + 3 * math.log(4 / 2.5)) / math.log(4)
    assert one_band.mean_nodes() == pytest.approx(by_hand, rel=1e-12)
    # 2M Monte Carlo draws of the default mix give 68.943
    assert BackgroundLoadProfile().mean_nodes() == pytest.approx(68.944, abs=0.001)


def test_background_stream_deterministic():
    profile = BackgroundLoadProfile()
    a = list(generate_background_jobs(profile, 5 * 86400, stream_rng(1, "bg"), **MACHINE))
    b = list(generate_background_jobs(profile, 5 * 86400, stream_rng(1, "bg"), **MACHINE))
    assert a == b
    assert all(r <= w for _, _, r, w in a)
    assert all(t < 5 * 86400 for t, _, _, _ in a)


def test_background_stream_is_pinned():
    # SHA-256 of the 10-day stream for seeds 1-3, re-recorded when mean_nodes
    # became the sampler's exact mean (it sets the arrival rate): a change to
    # the draws or to the rate shows here job for job.
    pinned = {1: "2fb54fa94c3637a5adabb74ec0aa8256abdcb6322d0254b27a496642e84afb18",
              2: "50c40ec1885c0f19585f47adbc77707fe0de3c7f34f29a720b3ac4ee535df254",
              3: "ff5906ef813a74c910e1fa7ffb83e588bb0976c4fd9c030ce65af160a435971d"}
    for seed, digest in pinned.items():
        jobs = list(generate_background_jobs(BackgroundLoadProfile(), 10 * 86400,
                                             stream_rng(seed, "bg"), **MACHINE))
        assert hashlib.sha256(repr(jobs).encode()).hexdigest() == digest, seed


def test_offered_load_matches_target():
    # generated node-seconds per second of horizon approximate the target
    profile = BackgroundLoadProfile(target_utilization=0.5)
    horizon = 20 * 86400
    jobs = list(generate_background_jobs(profile, horizon, stream_rng(2, "bg"), **MACHINE))
    offered = sum(n * r for _, n, r, _ in jobs) / (horizon * 18688)
    assert abs(offered - 0.5) < 0.05
