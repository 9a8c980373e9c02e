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
import functools
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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
# the standard normal CDF and its inverse
#
# Ports of Cephes `ndtr.c` and `ndtri.c` (Moshier, Methods and Programs for
# Mathematical Functions, 1989), the code behind `scipy.special.ndtr` and
# `ndtri`: the same coefficients, branches and Horner order. A `Q` table's
# leading 1.0 is the one Cephes' `p1evl` implies; `1.0 * x` is exact, so
# `_polevl` serves for both.

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 7.07106781186547524401e-1

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): below it, and above 1 - it, the tails
_ONE_MINUS_EXP_M2 = 1.0 - 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
# tails closer to 0 or 1 than this (deeper than exp(-32) = 1.27e-14, where
# Cephes changes tables) and arguments outside (0, 1) go through the scalar
# `_ndtri`, which takes libm's log as Cephes does
_NDTRI_DEEP = 2e-14


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # underflow
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)
    if a < 0:
        y = 2.0 - y
    if y == 0.0:  # underflow
        return 2.0 if a < 0 else 0.0
    return y


def ndtr(a: float) -> float:
    """The standard normal CDF at `a`: `scipy.special.ndtr(a)` to the bit."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _ndtri(y0: float) -> float:
    """Cephes `ndtri` for one float, with libm's log: `scipy.special.ndtri`
    to the bit on every argument."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, negate = y0, True
    if y > _ONE_MINUS_EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def _polevl_into(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """`_polevl` elementwise into `out`, one rounding per step as in C
    without FMA; a leading 1.0 starts at `x + coef[1]` as `p1evl` does."""
    if coef[0] == 1.0:
        np.add(x, coef[1], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


_SCRATCH = threading.local()


def _work(rows: int, n: int) -> np.ndarray:
    """`rows` x `n` floats of this thread's scratch, reused from call to call:
    fresh large temporaries page-fault on every call and cost more than the
    arithmetic. One user at a time: `ndtri`, then the schedule of
    `job_makespans_batch`, each done with it before the next takes it.
    The batch transforms at most `_TRANSFORM_BLOCK` uniforms per `ndtri`
    call, so a batch of many rows grows the scratch only by its schedule."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < rows * n:
        buf = _SCRATCH.buf = np.empty(rows * n)
    return buf[:rows * n].reshape(rows, n)


def ndtri(u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The standard normal quantile of each element of `u`, in a new array
    or in `out`: a C-contiguous float array of u's shape, u itself allowed.

    The central rational (exp(-2) < u <= 1 - exp(-2)) runs in place over the
    whole block in Cephes' order, so its bits are `scipy.special.ndtri`'s;
    the tail formula then runs on the tail subset only and overwrites it.
    The tails take numpy's vectorised log, not libm's, so a few tail results
    differ from scipy's in the last bits (1,263 of 20M uniforms, by at most
    6 ulp).
    Elements deeper in the tails than `_NDTRI_DEEP`, and 0, 1, NaN and
    arguments outside [0, 1], take the scalar `_ndtri`, so they match scipy
    exactly and raise no warning."""
    u = np.ascontiguousarray(u, dtype=float)
    flat = u.reshape(-1)
    y2, num, den, tail_y = _work(4, flat.size)
    lower = np.flatnonzero(flat <= _EXP_M2)
    upper = np.flatnonzero(flat > _ONE_MINUS_EXP_M2)
    low, m = len(lower), len(lower) + len(upper)
    y = tail_y[:m]  # the lower tail, then the upper tail's 1 - u
    np.take(flat, lower, out=y[:low])
    np.subtract(1.0, np.take(flat, upper, out=y[low:]), out=y[low:])
    odd = None
    if m and not y.min() >= _NDTRI_DEEP:
        bad = ~(y >= _NDTRI_DEEP)
        odd = np.concatenate((lower, upper))[bad]
        odd_u = flat[odd].tolist()
        y[bad] = 0.5  # a value on which no step below warns
        flat = flat.copy()
        flat[odd] = 0.5
    if out is None:
        out = np.empty_like(u)
    x = out.reshape(-1)
    np.subtract(flat, 0.5, out=x)
    np.multiply(x, x, out=y2)
    _polevl_into(y2, _NDTRI_P0, num)
    _polevl_into(y2, _NDTRI_Q0, den)
    num *= y2
    num /= den
    num *= x
    x += num
    x *= _S2PI
    if not m:
        return out
    r, p, q = y2[:m], num[:m], den[:m]
    np.log(y, out=r)
    r *= -2.0
    np.sqrt(r, out=r)  # r = sqrt(-2 log y)
    np.log(r, out=p)
    p /= r
    np.subtract(r, p, out=y)  # y = x0
    np.divide(1.0, r, out=r)  # r = z
    _polevl_into(r, _NDTRI_P1, p)
    _polevl_into(r, _NDTRI_Q1, q)
    p *= r
    p /= q
    y -= p
    np.negative(y[:low], out=y[:low])
    x[lower] = y[:low]
    x[upper] = y[low:]
    if odd is not None:
        x[odd] = [_ndtri(v) for v in odd_u]
    return out


# ---------------------------------------------------------------------------
# per-event duration


def _truncated_lognormal_mean(mu: float, sigma: float, lo: float, hi: float) -> float:
    # in Python floats, so a degenerate sigma (inf) raises ZeroDivisionError,
    # which `fit` reports, instead of numpy warning about inf * 0 first
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    z = ndtr(b) - ndtr(a)
    return math.exp(mu + 0.5 * sigma * sigma) * (ndtr(b - sigma) - ndtr(a - sigma)) / z


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
        return self.transform(self.uniforms(n, rng))

    @functools.cached_property
    def _cdf_range(self) -> tuple[float, float]:
        """The untruncated CDF at lo and at hi, computed once per model."""
        return (ndtr((math.log(self.lo) - self.mu) / self.sigma),
                ndtr((math.log(self.hi) - self.mu) / self.sigma))

    def uniforms(self, n: int, rng: np.random.Generator,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """The random half of `sample`: n draws of `rng.random()`, in a new
        array or in `out`, n contiguous floats."""
        return rng.random(n, out=out)

    def transform(self, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The deterministic half of `sample`, element by element, so any
        block of `uniforms` maps to the same bits as within the whole, in a
        new array or in `out` (as for `ndtri`, r itself allowed). Each draw
        goes onto the truncated CDF's range as `rng.uniform(lo, hi)` puts
        it, `lo + (hi - lo) * r`, and the steps then work in place on
        `ndtri`'s result, with the bits of `clip(exp(mu + sigma * ndtri(u)),
        lo, hi)`."""
        lo, hi = self._cdf_range
        x = np.multiply(r, hi - lo, out=out)
        x += lo
        ndtri(x, x)
        x *= self.sigma
        x += self.mu
        np.exp(x, out=x)
        return np.clip(x, self.lo, self.hi, out=x)


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
        for name in ("event_mean_s", "event_max_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


_TRANSFORM_BLOCK = 2 ** 15  # uniforms per `model.transform` call in `job_makespans_batch`
_GRID = 4096  # steps of the quantile table over [0, 1]; a power of two, so r * _GRID is exact


def _quantile_floor(model) -> np.ndarray:
    """Entry k is `model.transform` at (k - 1) / _GRID, and at 0 for k = 0:
    for a non-decreasing `transform`, no more than the task of any draw `r`
    with `int(r * _GRID) == k`, since r >= k / _GRID. One step low, so a
    transform that is monotone only up to its rounding stays above it."""
    return model.transform(np.maximum(np.arange(-1, _GRID), 0) / _GRID)


@functools.lru_cache(maxsize=16)
def _minorant(model) -> tuple[float, float]:
    """(a, b), both >= 0, with `a + b * (k + 1) / _GRID <= floor[k]` for
    every entry k of `_quantile_floor(model)`, so `a + b * r` is no more
    than the task of any draw r in [0, 1]: r < (k + 1) / _GRID for its k.
    Of those lines, nearly the one highest at r = 1/2, so highest on
    average: its slope maximises the concave `min(floor - b * (x - 1/2))`
    over [0, min(floor / x)], where a stays >= 0, by bisection on the side
    of 1/2 where that minimum is taken. Then b is lowered by 2**-40 of
    itself and a by 2**-40 of the table's top, far more than the rounding
    of the check below.
    Takes `_work` scratch (through `transform`), so no caller may hold it."""
    floor = _quantile_floor(model)
    x = np.arange(1, _GRID + 2) / _GRID
    lo, hi = 0.0, float(np.min(floor / x))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if x[np.argmin(floor - mid * x)] < 0.5:
            lo = mid
        else:
            hi = mid
    b = lo * (1.0 - 2.0 ** -40)
    a = max(float(np.min(floor - b * x)) - float(floor.max()) * 2.0 ** -40, 0.0)
    if not np.all(a + b * x <= floor):
        raise ArithmeticError(f"no linear minorant found below the task table of {model}")
    return a, b


def job_makespans_batch(n_jobs: int, spec: SimJobSpec, model, rng: np.random.Generator,
                        contention: Optional[ContentionModel] = None,
                        setup_s: float = 0.0, deadline: float = math.inf,
                        uniforms: Optional[np.ndarray] = None) -> np.ndarray:
    """Setup time plus the payload makespan of `n_jobs` independent
    payloads, by greedy list scheduling (tasks in draw order to the
    earliest-free slot) evaluated for all jobs at once.

    Jobs draw their events from `rng` in row order and each job is
    scheduled on its own, so k calls of n jobs on one stream return the
    same makespans as one call of k * n jobs. `uniforms`, if given, are
    the `n_jobs * events` draws of `model.uniforms` in row order, from any
    streams, and `rng` is not used; the batch overwrites them. Rows are
    scheduled and transformed independently, so a row's makespan has the
    same bits whatever batch it is in.

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

    With a finite `deadline`, a row that cannot end by it comes back as
    +inf and is never scheduled; every other row keeps its exact makespan,
    and the draws from `rng` are the same. All uniforms are drawn at once,
    as without a deadline, but `model.transform` maps only the rows that
    pass a cut. Some slot carries at least the mean load whatever the
    schedule (Graham 1969), so `setup_s + (sum of the row's tasks) / slots`
    bounds its makespan from below, and so does any smaller sum. The cut
    takes the row sum of the raw draws: with the minorant `(a, b)` of
    `_minorant(model)`, `a + b * r` is no more than the task of draw r, so
    `setup_s + (events * a + b * sum(r)) * scale / slots` is no more than
    the row's bound. The surviving rows are transformed and tested again
    with the bound over their tasks' full sums, which decides. Every term
    of both sums is non-negative, so each computed bound lies within
    about `(events + 8) * 2**-53` of its real value. The full-sum test
    therefore shrinks its bound by `events * 2**-50`, which covers that
    rounding, plus 1e-12, so that a +inf row's computed makespan exceeds
    `deadline` by a relative margin. That margin outlasts one more
    rounding of `start + makespan` against a walltime up to 1,000 times
    the makespan, as in the pilot's test of `start + duration` with
    `walltime`. The cut shrinks its bound twice, which covers the
    rounding of both bounds, so it never drops a row the full-sum test
    keeps, and the rows returned are the full-sum test's. Rows only leave
    the batch, so no other row's arithmetic changes.
    """
    slots, events = spec.slots_per_node, spec.events
    scale = 1.0 if contention is None else contention.scale(slots, model.calibrated_at)
    u = (model.uniforms(n_jobs * events, rng) if uniforms is None
         else uniforms).reshape(n_jobs, events)

    def tasks(x):  # each block is the batch's own, so transform may overwrite it
        step = max(_TRANSFORM_BLOCK // events, 1)
        for block in (x[r:r + step] for r in range(0, len(x), step)):
            model.transform(block, out=block)
        if contention is not None:
            x *= scale
        return x

    kept = None
    if deadline < math.inf:
        a, b = _minorant(model)  # the batch holds no `_work` scratch yet
        shrink = 1.0 - 1e-12 - events * 2.0 ** -50
        bound = u.sum(axis=1)
        bound *= b
        bound += events * a
        bound *= scale
        kept = np.flatnonzero((setup_s + bound / slots) * (shrink * shrink) <= deadline)
        if not len(kept):
            return np.full(n_jobs, np.inf)
        durations = tasks(u if len(kept) == n_jobs else u[kept])
        alive = (setup_s + durations.sum(axis=1) / slots) * shrink <= deadline
        if not alive.all():  # else keep the rows without copying them
            kept, durations = kept[alive], durations[alive]
    else:
        durations = tasks(u)
    rows = len(durations)
    if events <= slots or rows == 0:  # one wave, or no row left to schedule
        makespans = setup_s + durations.max(axis=1)
    else:
        finish = np.empty((slots + 1, rows))
        finish[:slots] = np.sort(durations[:, :slots], axis=1).T  # first wave fills every slot
        finish[slots] = np.inf
        head = finish[:-1]
        end = np.empty(rows)
        moved = np.empty((slots, rows))
        # one contiguous row per task: column j of the remaining tasks, all jobs
        rest = _work(events - slots, rows)
        np.copyto(rest, durations[:, slots:].T)
        for task in rest:
            np.add(finish[0], task, out=end)
            np.minimum(finish[1:], end, out=moved)
            np.maximum(head, moved, out=head)
        makespans = setup_s + finish[slots - 1]
    if kept is None:
        return makespans
    out = np.full(n_jobs, np.inf)
    out[kept] = makespans
    return out


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
        # the stream truncates runtimes to whole seconds, and a 0-s job has no walltime
        if self.runtime_min_s < 1:
            raise ValueError(f"runtime_min_s must be >= 1, got {self.runtime_min_s}")
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
    sigma = profile.runtime_sigma
    wall_lo, wall_hi = profile.walltime_factor_lo, profile.walltime_factor_hi
    gap = 1.0 / rate
    # each draw spells out the generator method it replaces, with its bits
    # and stream: exponential(s) is s * standard_exponential(), uniform(lo,
    # hi) is lo + (hi - lo) * random(), lognormal(mu, sigma) is
    # exp(mu + sigma * standard_normal()); scalar method calls with
    # parameters cost several times more
    t = 0.0
    while True:
        t += gap * rng.standard_exponential()
        if t >= horizon_s:
            return
        band = bisect.bisect_right(cdf, rng.random())
        _, lo, hi = profile.size_mix[band]
        log_lo = math.log(lo)
        nodes = int(round(math.exp(log_lo + (math.log(hi + 1) - log_lo) * rng.random())))
        nodes = max(lo, min(hi, nodes))
        runtime = int(min(max(math.exp(mu + sigma * rng.standard_normal()),
                              profile.runtime_min_s), profile.runtime_max_s))
        factor = wall_lo + (wall_hi - wall_lo) * rng.random()
        walltime = min(int(math.ceil(runtime * factor)), capability_cap_s)
        runtime = min(runtime, walltime)
        yield int(t), nodes, runtime, walltime
