"""backfillsim benchmark: named scenario workloads run through the public entry points.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload efficiency --seed 1 --seconds 50 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: `setup_s`
from several fresh set-up-only processes, then `run_s` and `peak_rss_mb`
from one fresh process that makes one warm-up pass and then timed
passes for the rest of the window. `--trace 1` reports the per-layer
metrics from one process that alternates untraced and traced passes (see
perfbench/spans.py). Every pass runs the workload's scenario at `--seed`
and writes into a temporary dir under `.perfbench/`, never into `out/`.
At the seed of the tracked `out/*/manifest.json` (1) each pass must
reproduce its SHA-256 file digests byte for byte; at any other seed each
pass must reproduce the digests of the run's first pass.

`--profile` also writes a cProfile top-40 of one untimed pass. The last
stdout line is the result JSON; a detailed record with the machine
fingerprint and every sample goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
GOLDEN_SEED = 1
# a run at --seed s times scenario seeds s, s + SEED_STRIDE, ... (its panel),
# so panels of seeds less than SEED_STRIDE apart share no scenario seed
SEED_STRIDE = 1_000_003
SETUP_SAMPLES = 7
# seconds of child.reference_s()'s two loops when the host runs at full
# speed (a 2.1 GHz Xeon vCPU, Python 3.11, numpy 2.4): see end_to_end()
REFERENCE_S = (0.033, 0.052)
CHILD_GRACE_S = 90  # past its window: the two cycles a run child must make can overrun it
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# Why each workload and panel size: see perfbench/README.md.
WORKLOADS = {
    "efficiency": {"config": "configs/efficiency_month.yaml", "panel": 8,
                   "overrides": {"horizon_days": 2}, "golden": "out/eff2d"},
    "replay": {"config": "configs/replay_efficiency.yaml", "panel": 4,
               "overrides": {}, "golden": "out/replay_efficiency"},
    "broker_vs_pilot": {"config": "configs/broker_vs_pilot.yaml", "panel": 24,
                        "overrides": {}, "golden": "out/broker_vs_pilot"},
}
# a deterministic program repeats these exactly
REPEATABLE_UNITS = ("count", "bytes", "jobs")


class Run:
    """Children of one benchmark run, and the digest gate over their passes."""

    def __init__(self, workload: str, seed: int = GOLDEN_SEED):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seeds = [seed + i * SEED_STRIDE for i in range(self.spec["panel"])]
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}
        golden = json.loads((ROOT / self.spec["golden"] / "manifest.json").read_text())
        # scenario seed -> reference digests. Without a golden for a seed,
        # the first pass of that seed sets the digests its later passes must
        # reproduce.
        self.reference = {golden["seed"]: golden["outputs"]}

    def child(self, mode: str, seconds: float = 0, profile: str | None = None) -> dict | None:
        """Run one fresh process; None (and a counted failure) if it failed."""
        WORK.mkdir(exist_ok=True)
        base = tempfile.mkdtemp(prefix="child-", dir=WORK)
        spec = {"src": str(ROOT / "src"), "config": str(ROOT / self.spec["config"]),
                "overrides": self.spec["overrides"],
                "seeds": self.seeds if mode == "run" else [self.seed], "base": base,
                "mode": mode, "seconds": seconds, "profile": profile}
        timeout = seconds + CHILD_GRACE_S
        try:
            spec["spawned_at"] = time.perf_counter()
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                                  cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                  capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                return self.fail(f"{mode} child exited {proc.returncode}: "
                                 + proc.stderr.strip()[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} child timed out after {timeout:.0f}s")
        except (ValueError, IndexError, OSError) as exc:
            return self.fail(f"{mode} child gave no readable result: {exc!r}")
        finally:
            shutil.rmtree(base, ignore_errors=True)
        self.versions = result.get("versions", self.versions)
        if mode == "setup":
            self.attempted += 1
        for p in result["passes"]:
            self.gate(p)
        return result

    def gate(self, p: dict) -> None:
        """Count one pass, and a failure unless its outputs match the reference."""
        self.attempted += 1
        if p["listed"] != p["digests"]:
            self.fail(f"{p['kind']} pass: manifest.json does not match the files "
                      "written: " + json.dumps(_diff(p["listed"], p["digests"])))
            return
        reference = self.reference.setdefault(p["seed"], p["digests"])
        if p["digests"] != reference:
            self.fail(f"{p['kind']} pass of scenario seed {p['seed']}: output digests "
                      "differ: " + json.dumps(_diff(p["digests"], reference)))

    def fail(self, message: str) -> None:
        print(f"seed {self.seed}: {message}", file=sys.stderr)
        self.failures.append(message)
        return None


def _diff(got: dict, want: dict) -> dict:
    """name -> [got, wanted] for each output that differs."""
    return {name: [got.get(name), want.get(name)]
            for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)}


def measure(run: Run, seconds: float, trace: bool) -> dict | None:
    """The run's samples within about `seconds` seconds.

    Untraced: SETUP_SAMPLES set-up-only children, then one child that
    makes timed passes for the rest of the window. Traced: one child that
    makes untraced and traced passes in turn."""
    if trace:
        return run.child("trace", seconds)
    start = time.perf_counter()
    setups = [r for r in (run.child("setup") for _ in range(SETUP_SAMPLES)) if r]
    result = run.child("run", max(0.0, seconds - (time.perf_counter() - start)))
    if result is not None and setups:
        result["setups"] = setups
    return result


def end_to_end(run: Run, result: dict) -> dict[str, float]:
    """End-to-end metrics, plus the wall times and host slowness behind them.

    The wall run time is the mean over the panel of each scenario seed's
    median pass; the wall set-up time is the median over the set-up
    children. A shared host runs the same code up to ~1.5x slower for
    minutes at a time, so each is divided by the host's slowness sampled
    alongside it (see _slowness). That gives the times at full host speed."""
    timed = [p for p in result["passes"] if p["kind"] == "timed"]
    by_seed = {seed: [p["run_s"] for p in timed if p["seed"] == seed] for seed in run.seeds}
    if not all(by_seed.values()) or "setups" not in result:
        return {}
    run_slowness = _slowness([p["reference_s"] for p in timed])
    setup_slowness = _slowness([r["reference_s"] for r in result["setups"]])
    wall_run_s = statistics.fmean(_median(times) for times in by_seed.values())
    wall_setup_s = _median(r["setup_s"] for r in result["setups"])
    return {"setup_s": wall_setup_s / setup_slowness, "run_s": wall_run_s / run_slowness,
            "peak_rss_mb": result["peak_rss_mb"],
            "run_slowness": run_slowness, "setup_slowness": setup_slowness,
            "wall_setup_s": wall_setup_s, "wall_run_s": wall_run_s}


def _slowness(samples: list) -> float:
    """Geometric mean, over the reference loops, of each loop's median time
    in `samples` over its full-speed time."""
    return math.prod(_median(sample[i] for sample in samples) / full
                     for i, full in enumerate(REFERENCE_S)) ** (1 / len(REFERENCE_S))


def per_layer(run: Run, result: dict, units: dict) -> dict[str, float]:
    plain = [p["run_s"] for p in result["passes"] if p["kind"] == "timed"]
    layers = [{**p["layers"], "scenarios.output_bytes": p["output_bytes"],
               "config.resolve_s": result["resolve_s"], "trace.run_s": p["run_s"]}
              for p in result["passes"] if p["kind"] == "traced"]
    if not layers:
        return {}
    for i, layer in enumerate(layers[1:], start=2):
        changed = [name for name, unit in units.items() if unit in REPEATABLE_UNITS
                   and name in layer and layer[name] != layers[0][name]]
        if changed:
            run.fail(f"traced pass {i} counts differ from the first: {changed}")
    out = {name: layers[0][name] if units.get(name) in REPEATABLE_UNITS
           else _median(layer[name] for layer in layers) for name in layers[0]}
    if plain:
        out["trace.overhead_ratio"] = out["trace.run_s"] / _median(plain)
    return out


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be 0 or more")
    return seed


def _median(values) -> float:
    return statistics.median(list(values))


def fingerprint(versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # benchmark checkouts need not be git trees
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **versions, "git_commit": commit, "child_env": CHILD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=GOLDEN_SEED,
                        help="first scenario seed of the run's panel (the goldens are at 1)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="also write a cProfile top-40 of one untimed pass")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [p for p in ("src/backfillsim/__init__.py", WORKLOADS[args.workload]["config"],
                           WORKLOADS[args.workload]["golden"] + "/manifest.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a backfillsim checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    result = measure(run, seconds, bool(args.trace))
    if args.profile:
        run.child("profile", profile=str(WORK / f"profile-{args.workload}.txt"))

    values = {}
    if result is not None:
        values = per_layer(run, result, units) if args.trace else end_to_end(run, result)
    absent = [name for name in units if name not in values]
    if absent:
        print(f"no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    summary = {"correct": not run.failures, "attempted": run.attempted,
               "failed": len(run.failures),
               "metrics": {name: {"value": values[name], "unit": units[name]}
                           for name in units}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "fingerprint": fingerprint(run.versions),
              "failures": run.failures,
              "values": values, "samples": result,
              "result": summary}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
