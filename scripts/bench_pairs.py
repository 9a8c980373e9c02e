"""Benchmark HEAD against its parent in alternating pairs and write BENCH_<n>.json.

Usage (from the root of a git checkout, with the change committed as HEAD):

    python3 scripts/bench_pairs.py --out BENCH_9.json --title "..." \\
        --pairs broker_vs_pilot=10 --pairs efficiency=10 \\
        --claim broker_vs_pilot:run_s --claim efficiency:run_s

HEAD and HEAD^ are exported with `git archive` into a temporary directory
outside the checkout, removed at the end. For each workload, pair i runs
the unchanged

    python3 perfbench/run.py --workload W --trace 0

in both exports, the parent first when i is even and the change first
when i is odd, at perfbench's own seed and the benchmark's `run_seconds`.
Then TRACED_RUNS `--trace 1` runs per side, in the same alternating order,
give the per-layer metrics: each side's median, and each run's values
with the host slowness of its untraced passes beside them, since a single
traced run follows the host's speed phases. Runs go one at a time, never
two at once.

The output keeps each run's result line and the end-to-end block of its
record file (raw wall times and the host slowness beside them), each
side's median and quartiles per metric, and, for each claimed metric,
whether it meets the gain rule: the change better in at least 9 of 10
pairs and the gap between the medians wider than the distance between
the parent's quartiles. Every other (workload, metric) pair gets a bound
check: `within_bound` holds when the change's median over the parent's
median is worse by no more than the metric's `bound` in BENCHMARK.json,
and the pair is `unresolved` when the parent's interquartile range over
its median is wider than that bound, so the runs spread too widely to
tell.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_RUNS = 2


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, trace: int) -> dict:
    """One perfbench run in `tree`: its result line and its record file."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"result": None, "returncode": proc.returncode,
                "stderr_tail": proc.stderr.strip().splitlines()[-5:]}
    # each export only ever runs perfbench's default seed, so one record matches
    [path] = (tree / ".perfbench").glob(f"{workload}-seed*-trace{trace}.json")
    return {"result": json.loads(lines[-1]), "record": json.loads(path.read_text())}


def run_slowness(tree: Path, record: dict) -> float:
    """The host slowness over a traced run's untraced passes, by the
    `_slowness` of `tree`'s own perfbench/run.py: a traced record keeps the
    reference samples but not this value."""
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench/run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._slowness([p["reference_s"] for p in record["samples"]["passes"]
                             if p["kind"] == "timed"])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p["parent"]["result"]["metrics"][name]["value"],
                p["change"]["result"]["metrics"][name]["value"])
               for p in pairs if p["parent"]["result"] and p["change"]["result"]]
        if len(got) < 2:
            continue
        parent, change = spread([g[0] for g in got]), spread([g[1] for g in got])
        better = sum(1 for a, b in got if (b < a if lower else b > a))
        summary[name] = {"parent": parent, "change": change, "change_better_pairs": better,
                         "pairs": len(got),
                         "change_over_parent_median": change["median"] / parent["median"]}
    return summary


def gain_met(entry: dict, lower: bool) -> bool:
    gap = entry["parent"]["median"] - entry["change"]["median"]
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    return (entry["change_better_pairs"] >= 0.9 * entry["pairs"]
            and (gap if lower else -gap) > iqr)


def bound_check(entry: dict, spec: dict) -> dict:
    """The change's median against the parent's, within the metric's bound."""
    ratio = entry["change_over_parent_median"]
    worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
    parent = entry["parent"]
    spread_ratio = (parent["q3"] - parent["q1"]) / parent["median"]
    return {"bound": spec["bound"], "change_over_parent_median": ratio,
            "parent_iqr_over_median": spread_ratio,
            "within_bound": worse <= spec["bound"],
            "unresolved": spread_ratio > spec["bound"]}


def pair_key(text: str) -> tuple[str, int]:
    workload, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 2:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, PAIRS >= 2: {text!r}")
    return workload, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--title", required=True)
    parser.add_argument("--pairs", required=True, action="append", type=pair_key,
                        help="WORKLOAD=PAIRS, once per workload")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims a gain on, once per claim")
    args = parser.parse_args(argv)

    commits = {"change": git("rev-parse", "HEAD")}
    commits["parent"] = git("rev-parse", "HEAD^")
    claims = [c.split(":", 1) for c in args.claim]
    if any(len(c) != 2 or c[0] not in dict(args.pairs) for c in claims):
        parser.error("--claim must be WORKLOAD:METRIC for a workload given to --pairs")
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    if work.resolve().is_relative_to(ROOT):
        parser.error("the temporary directory must lie outside the checkout")
    trees = {side: work / f"{side}-{commits[side][:12]}" for side in SIDES}
    try:
        for side in SIDES:
            export(commits[side], trees[side])
        bench_spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = bench_spec["end_to_end"]
        unknown = [m for _, m in claims if m not in {e["name"] for e in metrics}]
        if unknown:
            parser.error(f"--claim: {', '.join(unknown)} is not an end-to-end metric")
        machine, seed, results = None, None, []
        for workload, count in args.pairs:
            pairs = []
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {side: bench(trees[side], workload, 0) for side in order}
                for side, run in runs.items():
                    record = run.pop("record", None)
                    if record is not None:
                        run["record_values"] = record["values"]
                        seed = record["seed"]
                        if machine is None:
                            machine = {k: v for k, v in record["fingerprint"].items()
                                       if k != "git_commit"}
                pairs.append({"pair": i, "first": order[0],
                              **{side: runs[side] for side in SIDES}})
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} run_s {runs[side]['result']['metrics']['run_s']['value']:.3f}"
                    if runs[side]["result"] else f"{side} failed" for side in SIDES),
                    file=sys.stderr, flush=True)
            traced = {side: [] for side in SIDES}
            for i in range(TRACED_RUNS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[side].append(bench(trees[side], workload, 1))
            per_layer, runs = {}, {}
            if all(t["result"] for side in SIDES for t in traced[side]):
                units = {m["name"]: m["unit"] for m in bench_spec["per_layer"]}
                runs = {side: [{"run_slowness": run_slowness(trees[side], t["record"]),
                                "metrics": {name: t["result"]["metrics"][name]["value"]
                                            for name in units}} for t in traced[side]]
                        for side in SIDES}
                per_layer = {name: {side: statistics.median(r["metrics"][name]
                                                            for r in runs[side])
                                    for side in SIDES} | {"unit": unit}
                             for name, unit in units.items()}
            results.append({
                "workload": workload, "seed": seed,
                "summary": summarize(pairs, metrics),
                "failed_of_attempted": {
                    side: [sum(p[side]["result"]["failed"] if p[side]["result"] else 1
                               for p in pairs),
                           sum(p[side]["result"]["attempted"] if p[side]["result"] else 1
                               for p in pairs)] for side in SIDES},
                "per_layer_traced": {
                    "command": f"python3 perfbench/run.py --workload {workload} --trace 1",
                    "runs_per_side": TRACED_RUNS,
                    "failed_of_attempted": {
                        side: [sum(t["result"]["failed"] if t["result"] else 1
                                   for t in traced[side]),
                               sum(t["result"]["attempted"] if t["result"] else 1
                                   for t in traced[side])] for side in SIDES},
                    "metrics": per_layer, "runs": runs},
                "pairs": pairs})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {"title": args.title, "parent_commit": commits["parent"],
           "change_commit": commits["change"], "machine": machine,
           "method": ("scripts/bench_pairs.py: python3 perfbench/run.py --workload W "
                      f"--trace 0 (perfbench's default seed {seed}, run_seconds "
                      f"{bench_spec['run_seconds']} of BENCHMARK.json), run in turn on "
                      "git-archive exports of both commits; pair i runs the parent first "
                      "when i is even, the change first when i is odd. 'result' is the "
                      "printed result line; 'record_values' copies the end-to-end block of "
                      "the run's record file, with the raw wall times and the host slowness "
                      "beside them. Quartiles: statistics.quantiles(method='inclusive'). "
                      f"per_layer_traced: {TRACED_RUNS} --trace 1 runs per side, alternating "
                      "which side runs first; 'metrics' holds each side's median, 'runs' "
                      "each run's values with the host slowness of its untraced passes.")}
    out["claim"] = []
    for workload, metric in claims:
        spec = next(m for m in metrics if m["name"] == metric)
        entry = next(r["summary"].get(metric) for r in results if r["workload"] == workload)
        out["claim"].append({
            "metric": metric, "workload": workload, "bound": spec["bound"],
            "rule": "change better in at least 9 of 10 pairs and median gap "
                    "above the parent's interquartile range",
            "met": bool(entry) and gain_met(entry, spec["better"] == "lower")})
    out["bounds"] = [
        {"workload": r["workload"], "metric": m["name"], **bound_check(r["summary"][m["name"]], m)}
        for r in results for m in metrics
        if [r["workload"], m["name"]] not in claims and m["name"] in r["summary"]]
    out["perfbench"] = results
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
