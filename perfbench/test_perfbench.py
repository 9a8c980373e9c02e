"""Determinism self-checks of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench -q
(about a minute; not part of the tier-1 suite under tests/).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

UNITS = {m["name"]: m["unit"]
         for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
COUNTS = [name for name, unit in UNITS.items() if unit in bench.REPEATABLE_UNITS]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_passes_repeat_counts_and_match_goldens(workload):
    run = bench.Run(workload)
    # seconds=0 still makes two untraced and two traced passes after the warm-up
    result = bench.measure(run, seconds=0, trace=True)
    assert run.failures == []
    assert [p["kind"] for p in result["passes"]] == ["warmup", "timed", "traced",
                                                     "timed", "traced"]
    assert {p["seed"] for p in result["passes"]} == {bench.GOLDEN_SEED}
    layers = [p["layers"] for p in result["passes"] if p["kind"] == "traced"]
    counts = [{name: layer[name] for name in COUNTS if name in layer} for layer in layers]
    assert counts[0] == counts[1]
    values = bench.per_layer(run, result, UNITS)
    assert run.failures == []
    assert set(values) == set(UNITS)


def test_held_out_seeds_fall_back_to_repeat_digests():
    run = bench.Run("broker_vs_pilot", seed=7)
    run.seeds = run.seeds[:2]
    result = run.child("run")
    assert run.failures == []
    # a warm-up pass, then two cycles over both seeds, each checked
    assert [(p["kind"], p["seed"]) for p in result["passes"]] == [
        ("warmup", 7), ("timed", 7), ("timed", 7 + bench.SEED_STRIDE),
        ("timed", 7), ("timed", 7 + bench.SEED_STRIDE)]
    assert run.attempted == 5
    assert set(run.reference) == {bench.GOLDEN_SEED, 7, 7 + bench.SEED_STRIDE}


def test_gate_counts_a_digest_mismatch_as_failed():
    run = bench.Run("broker_vs_pilot")
    run.seeds = run.seeds[:1]
    run.reference[bench.GOLDEN_SEED] = {**run.reference[bench.GOLDEN_SEED],
                                        "broker_vs_pilot.csv": "0" * 64}
    result = run.child("run")
    assert len(result["passes"]) == 3
    assert run.attempted == 3
    assert len(run.failures) == 3
    assert all("digests differ" in failure for failure in run.failures)


def test_run_s_is_the_panel_mean_of_per_seed_medians_at_full_host_speed():
    run = bench.Run("broker_vs_pilot", seed=0)
    run.seeds = [0, 1]
    full_py, full_np = bench.REFERENCE_S
    # during the passes the reference loops ran at 2x and 8x their
    # full-speed time (slowness 4), during set-up at 1x and 4x (slowness 2)
    slow = [2 * full_py, 8 * full_np]
    passes = [{"kind": "warmup", "seed": 0, "run_s": 9.0}] + [
        {"kind": "timed", "seed": seed, "run_s": t, "reference_s": slow}
        for seed, t in [(0, 1.0), (1, 3.0), (0, 2.0), (1, 5.0), (0, 8.0)]]
    setups = [{"setup_s": t, "reference_s": [full_py, 4 * full_np]} for t in (1.0, 2.0, 9.0)]
    values = bench.end_to_end(run, {"passes": passes, "setups": setups,
                                    "peak_rss_mb": 100.0})
    assert values["run_slowness"] == pytest.approx(4.0)
    assert values["setup_slowness"] == pytest.approx(2.0)
    assert values["wall_run_s"] == (2.0 + 4.0) / 2
    assert values["run_s"] == pytest.approx(3.0 / 4)
    assert values["wall_setup_s"] == 2.0
    assert values["setup_s"] == pytest.approx(2.0 / 2)
    assert values["peak_rss_mb"] == 100.0


def test_outputs_never_touch_the_tracked_goldens():
    golden = bench.ROOT / "out" / "broker_vs_pilot" / "manifest.json"
    before = golden.stat().st_mtime_ns
    run = bench.Run("broker_vs_pilot")
    run.seeds = run.seeds[:1]
    assert run.child("run") is not None
    assert run.failures == []
    assert golden.stat().st_mtime_ns == before
    assert list(bench.WORK.glob("child-*")) == []
