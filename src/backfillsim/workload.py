"""Statistical models of the detector-simulation payload and of the
background capability load that creates backfill gaps.

The payload model has three layers:

* per-event simulation time: truncated log-normal, bounded to [2, 40]
  minutes with a 14-minute mean at the calibration concurrency (16
  workers per node);
* core contention: a multiplicative slowdown between 8-way (10.8 min
  per-event mean) and 16-way (14.25 min) operation, linear in between;
* per-node job makespan: greedy list scheduling of the event tasks over
  the node's worker slots, plus a constant framework setup time.

Per-node I/O volumes follow the measured per-job statistics (clipped
normals, mean-corrected so the clipped mean matches the measured mean);
they size the brokers' stage-in and stage-out transfers only, never event
timing.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri


# ---------------------------------------------------------------------------
# root finding


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of `f` in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's `scipy/optimize/Zeros/brentq.c`: its steps in its
    order, its default relative tolerance and 100 iterations, so the result
    is `scipy.optimize.brentq(f, xa, xb, xtol=xtol)` to the bit without
    importing `scipy.optimize` (about a third of a fresh process's setup).
    """
    rtol = 4 * sys.float_info.epsilon

    def fx(x):
        y = f(x)
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise ValueError(f"no root found to xtol {xtol} in 100 iterations")


# ---------------------------------------------------------------------------
# per-event duration


def _truncated_lognormal_mean(mu: float, sigma: float, lo: float, hi: float) -> float:
    # in Python floats, so a degenerate sigma (inf) raises ZeroDivisionError,
    # which `fit` reports, instead of numpy warning about inf * 0 first
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    z = float(ndtr(b) - ndtr(a))
    return math.exp(mu + 0.5 * sigma * sigma) * float(ndtr(b - sigma) - ndtr(a - sigma)) / z


@dataclass(frozen=True)
class EventDurationModel:
    """Truncated log-normal event simulation time, in seconds.

    `calibrated_at` records the per-node concurrency at which the mean was
    measured; contention scaling is applied relative to it.
    """

    mu: float
    sigma: float
    lo: float
    hi: float
    calibrated_at: int

    @classmethod
    def fit(cls, event_mean_s: float, event_sigma: float, event_min_s: float,
            event_max_s: float, calibrated_at: int) -> "EventDurationModel":
        """Solve for the log-space location so the truncated mean on
        [event_min_s, event_max_s] is `event_mean_s`."""
        lo, hi, sigma = event_min_s, event_max_s, event_sigma
        if not lo < event_mean_s < hi:
            raise ValueError(f"event_mean_s must lie strictly between event_min_s and "
                             f"event_max_s ({lo}, {hi}), got {event_mean_s}")
        f = lambda mu: _truncated_lognormal_mean(mu, sigma, lo, hi) - event_mean_s
        try:
            mu = _brentq(f, math.log(lo), math.log(hi), xtol=1e-10)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"event_sigma {sigma}: no location fits event_mean_s "
                             f"{event_mean_s} on [{lo}, {hi}] ({exc})") from None
        return cls(mu=mu, sigma=sigma, lo=lo, hi=hi, calibrated_at=calibrated_at)

    def mean(self) -> float:
        return _truncated_lognormal_mean(self.mu, self.sigma, self.lo, self.hi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling in log space; every draw lies in [lo, hi]."""
        a = ndtr((math.log(self.lo) - self.mu) / self.sigma)
        b = ndtr((math.log(self.hi) - self.mu) / self.sigma)
        u = rng.uniform(a, b, size=n)
        x = np.exp(self.mu + self.sigma * ndtri(u))
        return np.clip(x, self.lo, self.hi)


# ---------------------------------------------------------------------------
# contention


@dataclass(frozen=True)
class ContentionModel:
    """Multiplicative per-event slowdown versus 8-way concurrency.

    Two cores share one floating-point scheduler, so 16-way operation pays
    ~32% over 8-way; intermediate concurrency interpolates linearly.
    """

    contention_mean_8way_s: float
    contention_mean_16way_s: float

    def slowdown(self, concurrency: int) -> float:
        ratio = self.contention_mean_16way_s / self.contention_mean_8way_s
        if concurrency <= 8:
            return 1.0
        if concurrency >= 16:
            return ratio
        return 1.0 + (ratio - 1.0) * (concurrency - 8) / 8.0

    def scale(self, concurrency: int, calibrated_at: int = 16) -> float:
        """Factor applied to draws from a model calibrated at `calibrated_at`."""
        return self.slowdown(concurrency) / self.slowdown(calibrated_at)


# ---------------------------------------------------------------------------
# framework setup


@dataclass(frozen=True)
class SetupModel:
    """Constant framework initialization and event-read times (seconds)."""

    shared_fs_setup_s: int = 6300
    readonly_fs_setup_s: int = 225
    event_read_s: int = 1320
    ramdisk_event_read_s: int = 40

    def setup_seconds(self, setup_fs: str, setup_event_source: str) -> int:
        if setup_fs not in ("shared", "readonly"):
            raise ValueError(f"setup_fs must be 'shared' or 'readonly', got {setup_fs!r}")
        if setup_event_source not in ("shared", "ramdisk"):
            raise ValueError("setup_event_source must be 'shared' or 'ramdisk', "
                             f"got {setup_event_source!r}")
        setup = self.shared_fs_setup_s if setup_fs == "shared" else self.readonly_fs_setup_s
        read = self.event_read_s if setup_event_source == "shared" else self.ramdisk_event_read_s
        return setup + read


@dataclass(frozen=True)
class WorkloadConfig:
    """The `workload` config section. Construction fits the payload's event
    model and builds its contention and setup models, so a bad key fails
    here rather than mid-run."""

    event_mean_s: float = 840.0
    event_sigma: float = 0.7
    event_min_s: float = 120.0
    event_max_s: float = 2400.0
    calibrated_at: int = 16
    contention_mean_8way_s: float = 648.0
    contention_mean_16way_s: float = 855.0
    setup_fs: str = "readonly"          # "shared" or "readonly"
    setup_event_source: str = "ramdisk"  # "shared" or "ramdisk"
    payload_model: EventDurationModel = field(init=False, repr=False)
    contention: ContentionModel = field(init=False, repr=False)
    setup_s: int = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("event_sigma", "event_min_s", "contention_mean_8way_s",
                     "contention_mean_16way_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        object.__setattr__(self, "payload_model", EventDurationModel.fit(
            self.event_mean_s, self.event_sigma, self.event_min_s, self.event_max_s,
            self.calibrated_at))
        object.__setattr__(self, "contention", ContentionModel(
            self.contention_mean_8way_s, self.contention_mean_16way_s))
        object.__setattr__(self, "setup_s", SetupModel().setup_seconds(
            self.setup_fs, self.setup_event_source))


# ---------------------------------------------------------------------------
# per-bundle I/O volumes


def _norm_pdf(x: float) -> float:
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _clipped_normal_mean(mu: float, sd: float, lo: float, hi: float) -> float:
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    z = ndtr(b) - ndtr(a)
    return (lo * ndtr(a) + hi * (1.0 - ndtr(b))
            + mu * z + sd * (_norm_pdf(a) - _norm_pdf(b)))


@dataclass(frozen=True)
class IoChannel:
    lo: float
    hi: float
    mean: float
    sd: float
    mu: float  # pre-clip location, fit so the clipped mean equals `mean`

    @classmethod
    def fit(cls, lo: float, hi: float, mean: float, sd: float) -> "IoChannel":
        f = lambda mu: _clipped_normal_mean(mu, sd, lo, hi) - mean
        mu = _brentq(f, lo - 12 * sd, hi + 12 * sd, xtol=1e-9)
        return cls(lo=lo, hi=hi, mean=mean, sd=sd, mu=mu)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.clip(rng.normal(self.mu, self.sd, size=n), self.lo, self.hi)


@dataclass(frozen=True)
class IoProfile:
    """Per-node data volumes read and written (GB), used to size a bundle's
    stage-in and stage-out transfers to its node count."""

    read_gb_per_node: IoChannel
    written_gb_per_node: IoChannel

    @classmethod
    def default(cls) -> "IoProfile":
        return cls(
            read_gb_per_node=IoChannel.fit(0.00037, 0.81670, 0.38354, 0.19379),
            written_gb_per_node=IoChannel.fit(0.02485, 0.23903, 0.16794, 0.03376),
        )


# ---------------------------------------------------------------------------
# node payload makespan


@dataclass(frozen=True)
class SimJobSpec:
    """One multi-process payload on one node: `events` tasks over
    `slots_per_node` concurrent workers."""

    events: int
    slots_per_node: int

    def __post_init__(self):
        if self.events <= 0:
            raise ValueError(f"events must be positive, got {self.events}")
        if self.slots_per_node not in (8, 16):
            raise ValueError(f"slots_per_node must be 8 or 16, got {self.slots_per_node}")


def job_makespans_batch(n_jobs: int, spec: SimJobSpec, model, rng: np.random.Generator,
                        contention: Optional[ContentionModel] = None,
                        setup_s: float = 0.0) -> np.ndarray:
    """Setup time plus the payload makespan of `n_jobs` independent
    payloads, by greedy list scheduling (tasks in draw order to the
    earliest-free slot) evaluated for all jobs at once.

    Jobs draw their events from `rng` in row order and each job is
    scheduled on its own, so k calls of n jobs on one stream return the
    same makespans as one call of k * n jobs.

    Each job's slot end times are kept sorted, slot-major: row k of
    `finish` holds every job's k-th earliest slot end, and a last row of
    +inf sits below them. A task goes to the earliest slot, row 0, and
    ends at `end = finish[0] + task`; removing row 0 and inserting `end`
    keeps the rows sorted when row k becomes
    `max(finish[k], min(finish[k + 1], end))` (rows k + 1 and below move up
    while they end before `end`, `end` lands in the first row that ends
    after it, and the rest stay). This is exact to the bit against
    per-task argmin scheduling: `finish[0]` is the float the argmin picks,
    so the one addition is the same; min and max round nothing; and which
    of two tied slots takes a task never changes the multiset of slot
    ends, which is all the makespan, `finish[slots - 1]`, reads.
    """
    durations = model.sample(n_jobs * spec.events, rng).reshape(n_jobs, spec.events)
    if contention is not None:
        durations = durations * contention.scale(spec.slots_per_node, model.calibrated_at)
    slots = spec.slots_per_node
    if spec.events <= slots:
        return setup_s + durations.max(axis=1)
    finish = np.empty((slots + 1, n_jobs))
    finish[:slots] = np.sort(durations[:, :slots], axis=1).T  # first wave fills every slot
    finish[slots] = np.inf
    head = finish[:-1]
    end = np.empty(n_jobs)
    moved = np.empty((slots, n_jobs))
    # one contiguous row per task: column j of the remaining tasks, all jobs
    for task in durations[:, slots:].T.copy():
        np.add(finish[0], task, out=end)
        np.minimum(finish[1:], end, out=moved)
        np.maximum(head, moved, out=head)
    return setup_s + finish[slots - 1]


# ---------------------------------------------------------------------------
# pilot task durations


@dataclass(frozen=True)
class UnitDurationModel:
    """Task duration for pilot units: clipped normal, tight spread.

    Units are homogeneous payloads (same event count on identical nodes),
    so the spread is small relative to the mean.
    """

    mean_s: float
    sd_s: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = max(1.0, self.mean_s - 4 * self.sd_s)
        hi = self.mean_s + 4 * self.sd_s
        return np.clip(rng.normal(self.mean_s, self.sd_s, size=n), lo, hi)

    def mean(self) -> float:
        return self.mean_s


# ---------------------------------------------------------------------------
# background capability load


@dataclass(frozen=True)
class BackgroundLoadProfile:
    """Poisson stream of capability jobs sized to a target utilization; the
    `background` config section.

    `size_mix` gives (weight, lo, hi) node-count bands, log-uniform within
    each band. Runtimes are log-normal (clipped); requested walltime
    overestimates the runtime by a uniform factor, which is what makes the
    scheduler's forward projections conservative. A `trace_path` names an
    SWF job log that the cluster scenarios replay instead of the stream.
    """

    target_utilization: Optional[float] = 0.965
    trace_path: Optional[str] = None
    size_mix: tuple[tuple[float, int, int], ...] = (
        (0.88, 1, 125),
        (0.09, 126, 312),
        (0.028, 313, 1500),
        (0.002, 1500, 6000),
    )
    runtime_mean_s: float = 10800.0
    runtime_sigma: float = 1.0
    runtime_min_s: int = 600
    runtime_max_s: int = 85000
    walltime_factor_lo: float = 1.2
    walltime_factor_hi: float = 2.0

    def __post_init__(self):
        u = self.target_utilization
        if u and not 0 < u < 1:
            raise ValueError(f"target_utilization must be in (0, 1), got {u}")
        object.__setattr__(self, "size_mix", tuple((float(w), int(lo), int(hi))
                                                   for w, lo, hi in self.size_mix))
        for w, lo, hi in self.size_mix:
            if not 0 <= w < math.inf:
                raise ValueError(f"size_mix weights must be finite and >= 0, got {w}")
            if not 1 <= lo <= hi:
                raise ValueError(f"size_mix bands need 1 <= lo <= hi, got lo {lo}, hi {hi}")
        if not sum(w for w, _, _ in self.size_mix) > 0:
            raise ValueError("size_mix weights must sum to > 0")
        for name in ("runtime_mean_s", "runtime_sigma", "runtime_min_s", "runtime_max_s",
                     "walltime_factor_lo", "walltime_factor_hi"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.runtime_min_s > self.runtime_max_s:
            raise ValueError(f"runtime_min_s {self.runtime_min_s} must be <= "
                             f"runtime_max_s {self.runtime_max_s}")
        if self.walltime_factor_lo > self.walltime_factor_hi:
            raise ValueError(f"walltime_factor_lo {self.walltime_factor_lo} must be <= "
                             f"walltime_factor_hi {self.walltime_factor_hi}")

    def mean_nodes(self) -> float:
        """Exact mean node count of `generate_background_jobs`: a band draws
        round(exp(U(log lo, log(hi + 1)))) clamped to [lo, hi], so count n
        takes the log-length of [n - 0.5, n + 0.5) within [lo, hi + 1], and
        hi also takes the clamped top [hi + 0.5, hi + 1)."""
        total = weight = 0.0
        for w, lo, hi in self.size_mix:
            edges = np.log(np.concatenate(([lo], np.arange(lo, hi) + 0.5, [hi + 1])))
            band_mean = float(np.arange(lo, hi + 1) @ np.diff(edges)) / math.log((hi + 1) / lo)
            total += w * band_mean
            weight += w
        return total / weight

    def mean_runtime(self) -> float:
        # clipped log-normal mean, by the same closed form used for events
        mu = math.log(self.runtime_mean_s) - 0.5 * self.runtime_sigma ** 2
        sigma = self.runtime_sigma
        lo, hi = float(self.runtime_min_s), float(self.runtime_max_s)
        a = (math.log(lo) - mu) / sigma
        b = (math.log(hi) - mu) / sigma
        z = ndtr(b) - ndtr(a)
        inner = math.exp(mu + 0.5 * sigma * sigma) * (ndtr(b - sigma) - ndtr(a - sigma))
        return lo * ndtr(a) + hi * (1.0 - ndtr(b)) + inner


def generate_background_jobs(profile: BackgroundLoadProfile, horizon_s: int,
                             rng: np.random.Generator, total_nodes: int,
                             capability_cap_s: int):
    """Yield (submit_time, nodes, runtime, walltime) tuples over the horizon.

    The Poisson arrival rate is chosen so offered load matches the target
    utilization: rate * E[nodes] * E[runtime] == target * total_nodes.
    """
    u = profile.target_utilization
    if not u:
        return
    work_per_job = profile.mean_nodes() * profile.mean_runtime()
    rate = u * total_nodes / work_per_job  # arrivals per second
    weights = np.array([w for w, _, _ in profile.size_mix])
    # rng.choice(p=weights) draws random() into this renormalised cumsum, side="right"
    cdf = np.cumsum(weights / weights.sum())
    cdf = (cdf / cdf[-1]).tolist()
    mu = math.log(profile.runtime_mean_s) - 0.5 * profile.runtime_sigma ** 2
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon_s:
            return
        band = bisect.bisect_right(cdf, rng.random())
        _, lo, hi = profile.size_mix[band]
        nodes = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))
        nodes = max(lo, min(hi, nodes))
        runtime = int(min(max(rng.lognormal(mu, profile.runtime_sigma),
                              profile.runtime_min_s), profile.runtime_max_s))
        factor = rng.uniform(profile.walltime_factor_lo, profile.walltime_factor_hi)
        walltime = min(int(math.ceil(runtime * factor)), capability_cap_s)
        runtime = min(runtime, walltime)
        yield int(t), nodes, runtime, walltime
