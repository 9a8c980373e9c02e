"""One fresh benchmark process: resolve a scenario config, then run it.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout's `src` directory, the scenario file, config
overrides, the scenario seeds, an output base dir, the mode and the parent's
`time.perf_counter()` reading taken just before this process was
spawned. On Linux `perf_counter` reads CLOCK_MONOTONIC, which is shared
by all processes, so `setup_s` spans process start, imports and config
resolution. Modes:

* `setup`: stop once the config of the first seed is resolved, then
  time the `reference_s` loops;
* `run`: one warm-up pass of the first seed, then timed passes cycling
  over all seeds for `seconds`, at least two cycles. Each timed pass is
  preceded by the `reference_s` loops, which sample the host's speed;
* `trace`: one warm-up pass, then untraced and traced passes of the
  first seed in turn for `seconds`, at least two of each;
* `profile`: one warm-up pass, then one pass of the first seed under
  cProfile.

Every pass writes into its own dir under the base dir; the child reports
the SHA-256 of each output file and removes the dir before the next pass.
The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import backfillsim
    if Path(backfillsim.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported backfillsim from {backfillsim.__file__}, not {src}")
    from backfillsim import load_scenario_file, resolve_config, run_scenario

    def resolve(seed: int) -> dict:
        raw = load_scenario_file(spec["config"])
        raw.update(spec["overrides"], seed=seed)
        return resolve_config(raw)

    seeds = spec["seeds"]
    resolve_start = time.perf_counter()
    cfgs = {seeds[0]: resolve(seeds[0])}
    ready = time.perf_counter()
    result = {"setup_s": ready - spec["spawned_at"], "resolve_s": ready - resolve_start,
              "passes": []}
    if spec["mode"] == "setup":
        result["reference_s"] = reference_s()
        return result
    cfgs.update((seed, resolve(seed)) for seed in seeds[1:])

    base = Path(spec["base"])
    passes = result["passes"]

    def run_pass(kind: str, seed: int) -> None:
        cfg = cfgs[seed]
        pass_base = base / f"pass-{len(passes)}"
        if kind == "traced":
            record = _traced_pass(run_scenario, cfg, str(pass_base))
        elif kind == "profiled":
            record = _profiled_pass(run_scenario, cfg, str(pass_base), spec["profile"])
        else:
            reference = reference_s()
            start = time.perf_counter()
            run_scenario(cfg, base_dir=str(pass_base))
            record = {"run_s": time.perf_counter() - start, "reference_s": reference}
        out_dir = pass_base / cfg["output_dir"]
        record.update(kind=kind, seed=seed)
        record["listed"], record["digests"] = output_digests(out_dir)
        record["output_bytes"] = sum((out_dir / name).stat().st_size
                                     for name in record["digests"])
        passes.append(record)
        shutil.rmtree(pass_base)

    # the warm-up pass finishes lazy imports and fills caches; peak RSS is
    # read after it, so it covers one fresh-process run whatever follows
    run_pass("warmup", seeds[0])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["mode"] == "profile":
        run_pass("profiled", seeds[0])
    else:
        # repeat the cycle until the window ends, at least twice, so that
        # every seed's outputs are compared between two passes
        if spec["mode"] == "trace":
            cycle = [("timed", seeds[0]), ("traced", seeds[0])]
        else:
            cycle = [("timed", seed) for seed in seeds]
        deadline = time.perf_counter() + spec["seconds"]
        for done, (kind, seed) in enumerate(itertools.cycle(cycle)):
            if done >= 2 * len(cycle) and time.perf_counter() >= deadline:
                break
            run_pass(kind, seed)

    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    return result


def reference_s() -> tuple[float, float]:
    """Seconds taken by two fixed loops whose speed tracks the host's.

    The first does pure-Python heap and dict work, the second numpy sorts
    and sums. Neither touches backfillsim, so a change to the program
    does not change them."""
    import heapq

    import numpy

    start = time.perf_counter()
    heap, table = [], {}
    for i in range(100_000):
        heapq.heappush(heap, (i * 7919) % 1000)
        table[i & 1023] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    middle = time.perf_counter()
    values = numpy.arange(20_000, dtype=float)
    for i in range(300):
        numpy.cumsum(numpy.sort(values * 1.0001 + i))
    return middle - start, time.perf_counter() - middle


def output_digests(out_dir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(digests the run's manifest lists, SHA-256 of the files on disk).

    `config_hash` is not compared: it covers `output_dir`, which differs."""
    listed = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    on_disk = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out_dir.iterdir()) if f.name != "manifest.json"}
    return listed, on_disk


def _traced_pass(run_scenario, cfg: dict, base: str) -> dict:
    from spans import Tracer  # perfbench/ is sys.path[0] when run as a script

    tracer = Tracer()
    with tracer.install():
        _, run_s = tracer.span("scenarios.run_scenario", "scenarios",
                               run_scenario, cfg, base_dir=base)
        finished = time.perf_counter()
    end = tracer.run_until_end
    layers = tracer.layer_metrics()
    layers["trace.unattributed_s"] = tracer.self_s["scenarios.run_scenario"]
    # from the last run_until returning to run_scenario returning: report
    # building, CSV writing and hashing (the whole run when no engine runs)
    layers["scenarios.post_run_s"] = run_s if end is None else finished - end
    return {"run_s": run_s, "layers": layers}


def _profiled_pass(run_scenario, cfg: dict, base: str, path: str) -> dict:
    import cProfile
    import io
    import pstats

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.runcall(run_scenario, cfg, base_dir=base)
    run_s = time.perf_counter() - start
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats("cumulative").print_stats(40)
    Path(path).write_text(text.getvalue())
    return {"run_s": run_s}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
