"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps, for the duration of a `with` block:

* every callback handed to `Simulation.schedule`, as a span named after
  the event's `kind` tag and attributed to the module that defined the
  callback. The wrapper is a plain closure, so no event is added and
  `seq` numbering is unchanged;
* public functions and methods at the name their caller looks up, e.g.
  `backfillsim.broker.job_makespans_batch` or
  `EasyBackfillScheduler.query_backfill`.

Each span adds its self time (duration minus the time covered by its
child spans) to its name. `Tracer.layer_metrics()` turns the totals into
the per-layer metrics listed in `BENCHMARK.json`.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("simcore", "scheduler", "workload", "broker", "pilot", "metrics",
          "traces", "scenarios")
PASS_SPANS = ("event:schedule_pass", "scheduler.schedule_pass")
QUERY_SPAN = "scheduler.query_backfill"
POLLER_EVENT = "metrics_poll"
BROKER_EVENT_PREFIX = "broker_"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query_us: list[float] = []
        self.query_split: dict[str, list] = {"broker": [0, 0.0], "poller": [0, 0.0],
                                             "other": [0, 0.0]}
        self.queue_depth: list[int] = []
        self.running: list[int] = []
        self.run_until_s = 0.0
        self.run_until_end: float | None = None
        self._stack: list[list[float]] = []   # child time covered, per open span
        self._kinds: list[str] = []           # kinds of the enclosing events

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call `fn` inside a span; returns (result, inclusive seconds)."""
        covered = [0.0]
        self._stack.append(covered)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.self_s[name] += duration - covered[0]
            self.layer_of[name] = layer
            self.calls[name] += 1
        return result, duration

    def _event(self, kind: str, layer: str, callback) -> None:
        self.counts["events_fired"] += 1
        self._kinds.append(kind)
        try:
            self.span("event:" + kind, layer, callback)
        finally:
            self._kinds.pop()

    def _enclosing(self) -> str:
        """Who caused the current call: a broker, the metrics poller, or other."""
        kind = self._kinds[-1] if self._kinds else ""
        if kind == POLLER_EVENT:
            return "poller"
        return "broker" if kind.startswith(BROKER_EVENT_PREFIX) else "other"

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return self.span(name, layer, fn, *args, **kwargs)[0]
        return wrapper

    def _schedule(self, original):
        tracer = self

        def schedule(sim, fire_at, kind, callback, target=None):
            tracer.counts["events_scheduled"] += 1
            layer = _layer_of_module(getattr(callback, "__module__", None))
            return original(sim, fire_at, kind,
                            lambda: tracer._event(kind, layer, callback), target)
        return schedule

    def _run_until(self, original):
        def run_until(sim, limit):
            result, duration = self.span("simcore.run_until", "simcore",
                                         original, sim, limit)
            self.run_until_s += duration
            self.run_until_end = time.perf_counter()
            return result
        return run_until

    def _query(self, original):
        tracer = self

        def query_backfill(cluster):
            tracer.queue_depth.append(len(getattr(cluster, "queue", ())))
            tracer.running.append(len(cluster.running))
            result, duration = tracer.span(QUERY_SPAN, "scheduler", original, cluster)
            tracer.query_us.append(duration * 1e6)
            split = tracer.query_split[tracer._enclosing()]
            split[0] += 1
            split[1] += duration
            return result
        return query_backfill

    def _background(self, original):
        tracer = self

        def generate_background_jobs(*args, **kwargs):
            items = iter(original(*args, **kwargs))
            while True:
                try:
                    item = tracer.span("workload.generate_background_jobs",
                                       "workload", next, items)[0]
                except StopIteration:
                    return
                tracer.counts["background_jobs"] += 1
                yield item
        return generate_background_jobs

    def _finalize(self, original):
        def finalize(timeline, *args, **kwargs):
            result = self.span("pilot.finalize", "pilot", original,
                               timeline, *args, **kwargs)[0]
            self.counts["units_done"] += sum(1 for u in timeline.units
                                             if u.state == "done")
            return result
        return finalize

    def _count(self, key: str, amount=lambda *a, **k: 1):
        def on_call(*args, **kwargs):
            self.counts[key] += amount(*args, **kwargs)
        return on_call

    def _count_bundle(self, *args, **kwargs):
        if self._enclosing() == "broker":
            self.counts["bundles"] += 1

    def _count_segments(self, ledger, *args, **kwargs):
        self.counts["ledger_segments"] = len(ledger.segments)

    @contextlib.contextmanager
    def install(self):
        """Patch the wrappers in, and restore every original on exit."""
        from backfillsim import broker, metrics, pilot, scenarios, scheduler, simcore

        makespan = self._wrap("workload.job_makespans_batch", "workload",
                              broker.job_makespans_batch,
                              self._count("makespan_rows", lambda n, *a, **k: n))
        add_units = self._wrap("pilot.add_units", "pilot",
                               pilot.AgentTimeline.add_units,
                               self._count("units", lambda tl, units: len(units)))
        core_hours = self._wrap("metrics.core_hours", "metrics",
                                metrics.AvailabilityLedger.core_hours,
                                self._count_segments)
        easy, replay = scheduler.EasyBackfillScheduler, scheduler.ReplayScheduler
        submit_easy = self._wrap("scheduler.submit", "scheduler", easy.submit,
                                 self._count_bundle)
        submit_replay = self._wrap("scheduler.submit", "scheduler", replay.submit,
                                   self._count_bundle)
        patches = [
            (simcore.Simulation, "schedule", self._schedule(simcore.Simulation.schedule)),
            (simcore.Simulation, "run_until", self._run_until(simcore.Simulation.run_until)),
            (easy, "schedule_pass", self._wrap("scheduler.schedule_pass", "scheduler",
                                               easy.schedule_pass)),
            (easy, "query_backfill", self._query(easy.query_backfill)),
            (replay, "query_backfill", self._query(replay.query_backfill)),
            (easy, "submit", submit_easy),
            (replay, "submit", submit_replay),
            (broker, "job_makespans_batch", makespan),
            (scenarios, "job_makespans_batch", makespan),
            (broker, "bundle_outcomes", self._wrap("broker.bundle_outcomes", "broker",
                                                   broker.bundle_outcomes)),
            (broker.BrokerFleet, "record_bundle",
             self._wrap("broker.record_bundle", "broker", broker.BrokerFleet.record_bundle)),
            (broker.BrokerFleet, "write_bundle_log",
             self._wrap("broker.write_bundle_log", "broker",
                        broker.BrokerFleet.write_bundle_log)),
            (scenarios, "generate_background_jobs",
             self._background(scenarios.generate_background_jobs)),
            (pilot.AgentTimeline, "add_units", add_units),
            (pilot.AgentTimeline, "finalize", self._finalize(pilot.AgentTimeline.finalize)),
            (scenarios, "consume_slot_pilot",
             self._wrap("pilot.consume_slot_pilot", "pilot", scenarios.consume_slot_pilot)),
            (metrics.AvailabilityLedger, "core_hours", core_hours),
            (scenarios, "window_report", self._wrap("metrics.window_report", "metrics",
                                                    scenarios.window_report)),
            (scenarios, "total_backfill_availability",
             self._wrap("metrics.total_backfill_availability", "metrics",
                        scenarios.total_backfill_availability)),
            (scenarios, "write_window_reports",
             self._wrap("metrics.write_window_reports", "metrics",
                        scenarios.write_window_reports)),
            (scenarios, "ingest_poll_trace", self._wrap("traces.ingest_poll_trace", "traces",
                                                        scenarios.ingest_poll_trace)),
            (scenarios, "emit_poll_trace", self._wrap("traces.emit_poll_trace", "traces",
                                                      scenarios.emit_poll_trace)),
            (scenarios, "trace_summary", self._wrap("traces.trace_summary", "traces",
                                                    scenarios.trace_summary)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass (times in seconds)."""
        s, c, calls = self.self_s, self.counts, self.calls
        layer_self = defaultdict(float)
        for name, layer in self.layer_of.items():
            layer_self[layer] += s[name]

        def ratio(a, b):
            return a / b if b else 0.0

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        def quantile(values, q):
            if not values:
                return 0.0
            ordered = sorted(values)
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

        pass_s = sum(s[name] for name in PASS_SPANS)
        query_count = calls[QUERY_SPAN]
        makespan_s = s["workload.job_makespans_batch"]
        polls, bundles = self.query_split["broker"][0], c["bundles"]
        return {
            "simcore.events_scheduled": c["events_scheduled"],
            "simcore.events_fired": c["events_fired"],
            "simcore.fired_ratio": ratio(c["events_fired"], c["events_scheduled"]),
            "simcore.events_per_s": ratio(c["events_fired"], self.run_until_s),
            "simcore.dispatch_self_s": s["simcore.run_until"],
            "scheduler.self_s": layer_self["scheduler"],
            "scheduler.pass_count": sum(calls[name] for name in PASS_SPANS),
            "scheduler.pass_s": pass_s,
            "scheduler.query_count": query_count,
            "scheduler.query_s": s[QUERY_SPAN],
            "scheduler.query_p50_us": quantile(self.query_us, 0.50),
            "scheduler.query_p99_us": quantile(self.query_us, 0.99),
            "scheduler.broker_query_s": self.query_split["broker"][1],
            "scheduler.poller_query_count": self.query_split["poller"][0],
            "scheduler.poller_query_s": self.query_split["poller"][1],
            "scheduler.submit_count": calls["scheduler.submit"],
            "scheduler.submit_s": s["scheduler.submit"],
            "scheduler.queue_depth_mean": mean(self.queue_depth),
            "scheduler.queue_depth_max": max(self.queue_depth, default=0),
            "scheduler.running_mean": mean(self.running),
            "workload.makespan_calls": calls["workload.job_makespans_batch"],
            "workload.makespan_rows": c["makespan_rows"],
            "workload.makespan_s": makespan_s,
            "workload.makespan_us_per_row": ratio(makespan_s * 1e6, c["makespan_rows"]),
            "workload.background_jobs": c["background_jobs"],
            "workload.background_gen_s": s["workload.generate_background_jobs"],
            "broker.polls": polls,
            "broker.bundles": bundles,
            "broker.accept_ratio": ratio(bundles, polls),
            "broker.self_s": layer_self["broker"],
            "broker.record_bundle_s": s["broker.record_bundle"],
            "pilot.units": c["units"],
            "pilot.add_units_s": s["pilot.add_units"],
            "pilot.us_per_unit": ratio(s["pilot.add_units"] * 1e6, c["units"]),
            "pilot.units_done_ratio": ratio(c["units_done"], c["units"]),
            "pilot.self_s": layer_self["pilot"],
            "metrics.ledger_segments": c["ledger_segments"],
            "metrics.core_hours_s": s["metrics.core_hours"],
            "metrics.window_report_s": s["metrics.window_report"],
            "metrics.self_s": layer_self["metrics"],
            "traces.ingest_s": s["traces.ingest_poll_trace"],
            "traces.emit_s": s["traces.emit_poll_trace"],
        }


def _layer_of_module(module: str | None) -> str:
    # Callbacks are bound methods and lambdas defined inside the package,
    # so the defining module names the layer that owns the event.
    if module and module.startswith("backfillsim."):
        layer = module.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return "scenarios"
