import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special
from scipy.stats import lognorm

import backfillsim
from backfillsim import (BackgroundLoadProfile, IoProfile, SetupModel, SimJobSpec,
                         WorkloadConfig, generate_background_jobs, job_makespans_batch,
                         stream_rng)
from backfillsim.workload import (_GRID, EventDurationModel, _brentq, _clipped_normal_mean,
                                  _erf, _erfc, _minorant, _ndtri, _quantile_floor,
                                  _truncated_lognormal_mean, ndtr, ndtri)

from makespan_oracle import (ConstantDurationModel, SmallIntegerDurationModel, job_makespan,
                             list_schedule_makespan)

WORKLOAD = WorkloadConfig()
MODEL = WORKLOAD.payload_model
MODELS = [MODEL, EventDurationModel.fit(840.0, 0.4, 60.0, 4000.0, 16),
          EventDurationModel.fit(300.0, 2.0, 1.0, 1e5, 8)]
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


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # the library carries its own Brent, ndtr and ndtri ports, so a fresh
    # process that imports it, resolves (both fits) and runs loads no scipy
    src = Path(backfillsim.__file__).resolve().parent.parent
    code = ("import sys, backfillsim\n"
            "backfillsim.resolve_config({})\n"
            "cfg = backfillsim.resolve_config({'scenario': 'broker_vs_pilot', "
            "'compare': {'slots': 8}})\n"
            f"backfillsim.run_scenario(cfg, base_dir={str(tmp_path)!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"
    assert list(tmp_path.glob("**/broker_vs_pilot.csv"))


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


# -- the normal CDF and quantile ports -------------------------------------------

E2, E32 = math.exp(-2.0), math.exp(-32.0)  # where Cephes' ndtri changes tables


def _steps(x: float, k: int) -> float:
    """The float k representable steps from x (toward larger magnitude for k > 0)."""
    return float(np.array(np.array(x).view(np.int64) + k).view(np.float64))


def _same(ours: float, theirs: float) -> bool:
    return type(ours) is float and (ours == theirs or (math.isnan(ours) and math.isnan(theirs)))


# the ndtr branch split (|a| * sqrt(1/2) against sqrt(1/2)), erfc's switches
# at 1 and 8 (a = sqrt(2), 8 sqrt(2)) and its underflow past MAXLOG
NDTR_EDGES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)]


@given(st.one_of(st.floats(), st.floats(-40.0, 40.0),
                 st.builds(lambda x, sign, k: sign * _steps(x, k), st.sampled_from(NDTR_EDGES),
                           st.sampled_from([1.0, -1.0]), st.integers(-50, 50))))
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(0.0)
@example(-0.0)
@settings(max_examples=3000)
def test_ndtr_erf_and_erfc_ports_return_scipys_bits(a):
    assert _same(ndtr(a), float(special.ndtr(a)))
    assert _same(_erf(a), float(special.erf(a)))
    assert _same(_erfc(a), float(special.erfc(a)))


@pytest.mark.parametrize("port, reference, args", [
    (_erf, special.erf, np.linspace(-1.0, 1.0, 4001)),  # T, U
    (_erfc, special.erfc, np.linspace(-8.0, 8.0, 4001)),  # P, Q
    (_erfc, special.erfc, np.linspace(8.0, 26.6, 4001)),  # R, S
    (_ndtri, special.ndtri, np.linspace(E2, 1.0 - E2, 4001)),  # P0, Q0
    (_ndtri, special.ndtri, np.concatenate([np.geomspace(E32, E2, 4001),
                                            1.0 - np.geomspace(1e-13, E2, 4001)])),  # P1, Q1
    (_ndtri, special.ndtri, np.geomspace(5e-324, E32, 4001)),  # P2, Q2
], ids=["erf-T-U", "erfc-P-Q", "erfc-R-S", "ndtri-P0-Q0", "ndtri-P1-Q1", "ndtri-P2-Q2"])
def test_each_cephes_table_gives_scipys_bits_in_its_branch(port, reference, args):
    # a mistyped digit in any coefficient moves some result over its branch
    assert [port(x) for x in args.tolist()] == reference(args).tolist()


@given(st.floats(E2, 1.0 - E2, exclude_min=True))
@example(_steps(E2, 1))
@example(1.0 - E2)
@example(0.5)
@settings(max_examples=500)
def test_ndtri_is_exact_in_the_central_branch(y):
    assert ndtri(np.array([y, 0.5])).tolist() == special.ndtri([y, 0.5]).tolist()


@given(st.floats(0.0, 2e-14, exclude_min=True), st.booleans())
@example(E32, False)
@example(_steps(E32, -1), True)
@example(5e-324, False)
@settings(max_examples=500)
def test_ndtri_is_exact_deep_in_the_tails(y, upper):
    # below exp(-32) Cephes takes its second tail table; the port's scalar
    # path takes libm's log there, as Cephes does
    u = np.array([0.3, 1.0 - y if upper else y, 0.01])
    assert ndtri(u).tolist() == special.ndtri(u).tolist()


def test_ndtri_tails_stay_within_eight_ulp():
    # numpy's vectorised log differs from libm's in the last bits; over 20M
    # uniforms 1,263 tail draws differed, by at most 6 ulp
    u = stream_rng(13, "ndtri-ulp").random(2_000_000)
    ours, theirs = ndtri(u), special.ndtri(u)
    ulp = np.abs(ours.view(np.int64) - theirs.view(np.int64))
    central = (u > E2) & (u <= 1.0 - E2)
    assert not ulp[central].any()
    assert ulp.max() <= 8


def test_ndtri_tail_bits_are_pinned():
    # the 8-ulp bound above cannot see a change in the tail bits; this
    # digest was recorded with numpy 2.4's vectorised log on x86-64
    u = stream_rng(13, "ndtri-ulp").random(2_000_000)
    assert hashlib.sha256(ndtri(u).tobytes()).hexdigest() == (
        "6f20229daa2ff7a62b596f74d8b17ae65c3dc5a9d8503f93ebde8d80fe2cd87f")


def test_ndtri_edges_and_bad_arguments_warn_nothing():
    u = np.array([[0.0, 1.0, -0.0, -1e-300], [1.5, math.inf, -math.inf, math.nan],
                  [1e300, 0.5, E2, 1.0 - E2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtri(u)
        assert ndtr(math.nan) != ndtr(math.nan)
        assert (ndtr(-math.inf), ndtr(math.inf)) == (0.0, 1.0)
    assert got[0, :3].tolist() == [-math.inf, math.inf, -math.inf]
    assert np.isnan(got[0, 3]) and np.isnan(got[1]).all() and np.isnan(got[2, 0])
    assert np.array_equal(got, special.ndtri(u), equal_nan=True)
    v = u.copy()  # in place, as the makespan kernel maps its own uniforms
    assert ndtri(v, out=v) is v and np.array_equal(v, got, equal_nan=True)
    assert ndtri(np.array([])).shape == (0,)


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
    # ten tasks of 0.1 s per slot end at 0.9999999999999999 s; a bound of
    # events * 0.1 / slots computes to 1.0, the pairwise sum of the full-sum
    # test to the makespan itself (the next test needs the shrink for it)
    spec = SimJobSpec(events=10 * slots, slots_per_node=slots)
    model = ConstantDurationModel(0.1)
    want = job_makespan(spec, model, stream_rng(0, "ulp"))
    assert want < 1.0
    got = job_makespans_batch(3, spec, model, stream_rng(0, "ulp"), deadline=want)
    assert got.tolist() == [want] * 3


def test_deadline_keeps_a_row_whose_summed_bound_rounds_up():
    # eight tasks of 0.1 s per slot end at 0.7999999999999999 s, while the
    # pairwise sum of 128 tasks over 16 slots computes to 0.8000000000000002:
    # only the shrink keeps these rows in the full-sum test
    spec = SimJobSpec(events=128, slots_per_node=16)
    model = ConstantDurationModel(0.1)
    want = job_makespan(spec, model, stream_rng(0, "ulp"))
    assert want < 0.8
    got = job_makespans_batch(3, spec, model, stream_rng(0, "ulp"), deadline=want)
    assert got.tolist() == [want] * 3


@given(seed=st.integers(0, 10_000), n_jobs=st.integers(1, 12),
       events=st.sampled_from([8, 16, 40, 100]), slots=st.sampled_from([8, 16]),
       row=st.integers(0, 11), step=st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_deadline_keeps_exactly_the_rows_the_full_sum_test_keeps(seed, n_jobs, events, slots,
                                                                 row, step):
    # on the payload model the minorant lies well below the tasks, so the
    # cut passes rows near the deadline and the full-sum test decides them:
    # deadlines a few floats either side of one row's full-sum bound
    spec = SimJobSpec(events=events, slots_per_node=slots)
    kwargs = dict(contention=WORKLOAD.contention, setup_s=WORKLOAD.setup_s)
    makespans = job_makespans_batch(n_jobs, spec, MODEL, stream_rng(seed, "cut"), **kwargs)
    u = MODEL.uniforms(n_jobs * events, stream_rng(seed, "cut")).reshape(n_jobs, events)
    tasks = MODEL.transform(u) * WORKLOAD.contention.scale(slots, MODEL.calibrated_at)
    shrink = 1.0 - 1e-12 - events * 2.0 ** -50
    bounds = (WORKLOAD.setup_s + tasks.sum(axis=1) / slots) * shrink
    deadline = _steps(float(bounds[row % n_jobs]), step)
    got = job_makespans_batch(n_jobs, spec, MODEL, stream_rng(seed, "cut"), deadline=deadline,
                              **kwargs)
    assert got.tolist() == np.where(bounds <= deadline, makespans, np.inf).tolist()


def test_transform_of_a_block_is_bit_exact():
    # the deadline path transforms only the rows that pass its cut; any block
    # must carry the bits the whole-array transform gives those entries
    rng = stream_rng(6, "block")
    assert MODEL.sample(3000, rng).tolist() == \
        MODEL.transform(MODEL.uniforms(3000, stream_rng(6, "block"))).tolist()
    u = MODEL.uniforms(40 * 100, rng).reshape(40, 100)
    whole = MODEL.transform(u)
    rows = np.array([0, 3, 4, 17, 39])
    for c0, c1 in [(0, 16), (16, 32), (96, 100), (0, 100)]:
        assert MODEL.transform(u[rows, c0:c1]).tolist() == whole[rows, c0:c1].tolist()


def _sampled(model, u):
    # the per-event expression, on uniforms of the truncated CDF's range
    return np.clip(np.exp(model.mu + model.sigma * ndtri(u)), model.lo, model.hi)


@pytest.mark.parametrize("model", MODELS)
def test_in_place_transform_keeps_the_bits_of_the_expression(model):
    # the bits of the expression on lo + (hi - lo) * r, as numpy's `uniform`
    # computes each draw, with the library's own ndtri: over random draws,
    # at both ends of [0, 1] and at their float neighbours, in a new array,
    # in a strided block and in place
    lo, hi = model._cdf_range
    ends = [0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 1.0]
    r = np.concatenate([model.uniforms(200_000, stream_rng(9, "in-place")), ends])
    r = r.reshape(-1, 4)
    expected = _sampled(model, lo + (hi - lo) * r)
    assert model.transform(r).tolist() == expected.tolist()
    assert model.transform(r[7:9, 1:3]).tolist() == expected[7:9, 1:3].tolist()
    x = r.copy()
    assert model.transform(x, out=x) is x
    assert x.tolist() == expected.tolist()


@pytest.mark.parametrize("model", MODELS + [ConstantDurationModel(0.1),
                                            SmallIntegerDurationModel()])
def test_quantile_floor_never_exceeds_transform(model):
    # the deadline cut's per-uniform lower bound, at every grid point, at
    # both float neighbours of each, and at random uniforms
    floor = _quantile_floor(model)
    grid = np.arange(_GRID + 1) / _GRID
    u = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                        stream_rng(12, "floor").random(200_000),
                        model.uniforms(200_000, stream_rng(12, "floor-model"))])
    assert np.all(floor[(u * _GRID).astype(np.intp)] <= model.transform(u))


@pytest.mark.parametrize("model", MODELS + [ConstantDurationModel(0.1),
                                            SmallIntegerDurationModel()])
def test_minorant_lies_below_the_table_and_the_transform(model):
    # the deadline cut's line a + b * r: at every bucket end of the table,
    # at random draws, and summed over rows under a contention scale
    a, b = _minorant(model)
    assert a >= 0 and b >= 0
    floor = _quantile_floor(model)
    ends = np.arange(1, _GRID + 2) / _GRID
    assert np.all(a + b * ends <= floor)
    r = np.concatenate([ends[:-1], np.nextafter(ends[:-1], 0.0),
                        stream_rng(13, "minorant").random(200_000)])
    assert np.all(a + b * r <= model.transform(r))
    scale = WORKLOAD.contention.scale(8, 16)
    rows = r[:200_000].reshape(-1, 100)
    cut = (100 * a + b * rows.sum(axis=1)) * scale
    assert np.all(cut <= (model.transform(rows) * scale).sum(axis=1))


@pytest.mark.parametrize("given", [False, True])
def test_deadline_call_on_a_cold_minorant_matches_a_warm_one_and_the_oracle(given):
    # filling the minorant's cache runs `transform`, and with it `ndtri`'s
    # scratch; the batch's draws must not be there when that happens
    spec = SimJobSpec(events=100, slots_per_node=16)
    kwargs = dict(contention=WORKLOAD.contention, setup_s=WORKLOAD.setup_s)
    rng = stream_rng(14, "cold")
    rows = [job_makespan(spec, MODEL, rng, **kwargs) for _ in range(40)]
    deadline = min(rows)  # the row that ends first ends on it

    def batch():
        u = MODEL.uniforms(40 * 100, stream_rng(14, "cold")) if given else None
        return job_makespans_batch(40, spec, MODEL, stream_rng(14, "cold"),
                                   deadline=deadline, uniforms=u, **kwargs).tolist()

    MODEL.transform(np.zeros(2 ** 15))  # scratch larger than the cache fill needs
    _minorant.cache_clear()
    cold = batch()
    assert cold == batch()
    # rows that end in time keep the oracle's makespan; a cut row ends late
    assert all(got == want or (got == math.inf and want > deadline)
               for got, want in zip(cold, rows))
    assert cold[rows.index(deadline)] == deadline and math.inf in cold


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


@pytest.mark.parametrize("bounds", [(), (2,), (1, 3)])
def test_batch_of_uniforms_from_several_streams_matches_each_streams_batch(bounds):
    # broker_vs_pilot maps the first generations of consecutive slots in one
    # batch: 1- and 15-row slots, a 330-row slot whose 33,000 uniforms span
    # two transform blocks, and chunk bounds that split the slots
    spec = SimJobSpec(events=100, slots_per_node=16)
    kwargs = dict(contention=WORKLOAD.contention, setup_s=WORKLOAD.setup_s)
    sizes = [1, 15, 330, 1, 15]
    alone = [job_makespans_batch(n, spec, MODEL, stream_rng(i, "chunk"), **kwargs)
             for i, n in enumerate(sizes)]
    chunks = []
    for lo, hi in zip((0, *bounds), (*bounds, len(sizes))):
        u = np.concatenate([MODEL.uniforms(n * spec.events, stream_rng(i, "chunk"))
                            for i, n in enumerate(sizes[lo:hi], lo)])
        chunks.append(job_makespans_batch(sum(sizes[lo:hi]), spec, MODEL, None, uniforms=u,
                                          **kwargs))
    assert np.concatenate(chunks).tolist() == np.concatenate(alone).tolist()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [0, 1, 15, 30_007])
def test_uniforms_carry_the_bits_of_numpys_uniform_in_a_new_array_or_a_buffer(model, n):
    # the raw draws of random(), which the transform puts on the CDF's range,
    # map to the bits of the expression on numpy's `uniform(lo, hi, n)`
    reference = stream_rng(5, "out")
    want = _sampled(model, reference.uniform(*model._cdf_range, size=n)).tolist()
    assert model.transform(model.uniforms(n, stream_rng(5, "out"))).tolist() == want
    assert model.sample(n, stream_rng(5, "out")).tolist() == want
    rng, buffer = stream_rng(5, "out"), np.full(n + 2, -1.0)
    assert model.uniforms(n, rng, out=buffer[1:n + 1]).base is buffer
    assert buffer.tolist() == [-1.0, *stream_rng(5, "out").random(n).tolist(), -1.0]
    model.transform(buffer[1:n + 1], out=buffer[1:n + 1])
    assert buffer.tolist() == [-1.0, *want, -1.0]
    # and leave the stream where `uniform` does
    assert rng.bit_generator.state == reference.bit_generator.state


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
