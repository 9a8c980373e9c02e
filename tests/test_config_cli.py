import datetime
import hashlib
import math
import signal
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backfillsim import (DEFAULTS, BrokerFleet, ConfigError, PollRecord, ReplayScheduler,
                         ScenarioConfig, Simulation, config_hash, dump_defaults,
                         load_scenario_file, resolve_config, run_scenario)
from backfillsim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return path


def test_defaults_are_valid():
    assert ScenarioConfig.from_dict(DEFAULTS) == ScenarioConfig()


def test_dump_defaults_round_trips():
    assert yaml.safe_load(dump_defaults()) == DEFAULTS


def test_unknown_keys_are_named_in_errors(tmp_path):
    p = write_yaml(tmp_path / "c.yaml", {"scenario": "efficiency",
                                         "broker": {"n_broker": 4},
                                         "mystery": 1})
    with pytest.raises(ConfigError) as err:
        load_scenario_file(p)
    text = str(err.value)
    assert "broker.n_broker" in text and "mystery" in text


def test_background_source_must_be_exactly_one(tmp_path):
    p = write_yaml(tmp_path / "c.yaml",
                   {"scenario": "efficiency",
                    "background": {"target_utilization": 0.9,
                                   "trace_path": "jobs.swf"}})
    with pytest.raises(ConfigError, match="exactly one"):
        load_scenario_file(p)
    p2 = write_yaml(tmp_path / "c2.yaml",
                    {"scenario": "efficiency",
                     "background": {"target_utilization": 0.0}})
    with pytest.raises(ConfigError, match="exactly one"):
        load_scenario_file(p2)


def test_extends_merges_parent_first(tmp_path):
    write_yaml(tmp_path / "base.yaml", {"seed": 9, "broker": {"n_brokers": 7}})
    child = write_yaml(tmp_path / "child.yaml",
                       {"extends": "base.yaml", "broker": {"poll_interval_s": 30}})
    cfg = load_scenario_file(child)
    assert cfg["seed"] == 9
    assert cfg["broker"]["n_brokers"] == 7
    assert cfg["broker"]["poll_interval_s"] == 30


def test_circular_extends_detected(tmp_path):
    write_yaml(tmp_path / "a.yaml", {"extends": "b.yaml"})
    write_yaml(tmp_path / "b.yaml", {"extends": "a.yaml"})
    with pytest.raises(ConfigError, match="circular"):
        load_scenario_file(tmp_path / "a.yaml")


def test_config_hash_is_stable_and_sensitive():
    a = resolve_config({"scenario": "weak_scaling"})
    b = resolve_config({"scenario": "weak_scaling"})
    c = resolve_config({"scenario": "weak_scaling", "seed": 2})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_scenario_presets_fill_experiment_defaults():
    strong = resolve_config({"scenario": "strong_scaling"})
    assert strong["pilot"]["units_total"] == 2048
    assert strong["pilot"]["nodes_list"] == [256, 512, 1024, 2048]
    weak = resolve_config({"scenario": "weak_scaling"})
    assert weak["pilot"]["units_total"] is None
    # user overrides beat presets
    custom = resolve_config({"scenario": "strong_scaling",
                             "pilot": {"units_total": 64}})
    assert custom["pilot"]["units_total"] == 64


# -- CLI -------------------------------------------------------------------------


def test_cli_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert yaml.safe_load(out) == DEFAULTS


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    good = write_yaml(tmp_path / "good.yaml", {"scenario": "weak_scaling"})
    assert main(["validate", str(good)]) == 0
    bad = write_yaml(tmp_path / "bad.yaml", {"scenario": "weak_scaling",
                                             "pilot": {"walltime_s": -5}})
    assert main(["validate", str(bad)]) == 2
    assert "walltime_s" in capsys.readouterr().err


def test_cli_run_writes_manifest(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "tiny.yaml",
                     {"scenario": "weak_scaling", "output_dir": "out",
                      "pilot": {"nodes_list": [8, 16]}})
    assert main(["run", str(cfg), "--base-dir", str(tmp_path)]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "scaling.csv").exists()


def test_cli_sweep_runs_each_value(tmp_path):
    cfg = write_yaml(tmp_path / "tiny.yaml",
                     {"scenario": "weak_scaling", "output_dir": "sweep",
                      "pilot": {"nodes_list": [8]}})
    assert main(["sweep", str(cfg), "--param", "seed=1,2",
                 "--base-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep" / "seed=1" / "scaling.csv").exists()
    assert (tmp_path / "sweep" / "seed=2" / "scaling.csv").exists()


def test_cli_ingest_stats_poll_trace(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("timestamp_s,nodes,walltime_s\n0,691,7560\n60,691,7560\n")
    assert main(["ingest-stats", str(p)]) == 0
    assert "mean nodes 691.0" in capsys.readouterr().out


def test_cli_ingest_stats_swf(tmp_path, capsys):
    p = tmp_path / "jobs.swf"
    p.write_text("1 0 -1 100 4 -1 -1 4 200 -1 -1 -1 -1 -1 -1 -1 -1 -1\n")
    assert main(["ingest-stats", str(p)]) == 0
    assert "1 jobs" in capsys.readouterr().out


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["ingest-stats", str(missing)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    assert main(["ingest-stats", str(bad)]) == 1


def test_cli_sweep_rejects_malformed_param(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "t.yaml", {"scenario": "weak_scaling"})
    assert main(["sweep", str(cfg), "--param", "justakey"]) == 2
    assert "key=v1,v2" in capsys.readouterr().err


def test_cli_sweep_rejects_a_key_path_through_a_scalar(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "t.yaml", {"scenario": "weak_scaling"})
    assert main(["sweep", str(cfg), "--param", "seed.x=1,2",
                 "--base-dir", str(tmp_path)]) == 2
    assert "'seed.x'" in capsys.readouterr().err


# -- the configuration contract --------------------------------------------------

# config_hash of each shipped config, as recorded in the tracked manifests;
# a change here churns every manifest
SHIPPED_HASHES = {
    "base": "7d7edf390310a3dfcc336f0bb55d4ec8ae6b5fa4536d8de8c089d875dafcf164",
    "broker_count": "edb6eb866fd7a48fdf52a38a92a4304d0b0e852fb73c492666a94b3ea2449dbd",
    "broker_vs_pilot": "420af2675d4f13e2e57d1b52eec9f685d1d8d6aafaffeee04c6a07249abd86a7",
    "efficiency_month": "eb4b0852faf41705afaf9077dd2610159ae715b22cc73353c7262f746c6b4a73",
    "multi_generation": "6abab7ec23f6b21712338f2743a98f2250569e8a0b80f8b5ef835e88cda8f887",
    "replay_efficiency": "95b56e40982c02869088988be02a84568401a7692dc8621c15b6615eff8aa7b2",
    "slot_calibration": "43739fdeb9a195b6408bfc3228b2b13689e3bed7f53b57090e71f991c5e6cf1a",
    "strong_scaling": "ca428bd1739c575c61a80eebf3c1c155055bcfe864558108113cfd66082c6af6",
    "weak_scaling": "bb8ce4fa1a365dca509fa06926277c514d397d5657f7bf7679e73f52193e9b0a",
}


def test_shipped_config_hashes_are_unchanged():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(SHIPPED_HASHES)
    for name, digest in SHIPPED_HASHES.items():
        assert config_hash(load_scenario_file(CONFIGS / f"{name}.yaml")) == digest, name


def test_short_efficiency_golden_hash():
    cfg = load_scenario_file(CONFIGS / "efficiency_month.yaml")
    cfg.update(horizon_days=2, output_dir="out/eff2d")
    assert config_hash(resolve_config(cfg)) == \
        "956f6f57d5a7a3152944ede9e43707b9d46c9b403172b2d21dfc669e12716cef"


def test_print_defaults_is_unchanged():
    assert hashlib.sha256(dump_defaults().encode()).hexdigest() == \
        "3610522b86c9b95b615be563cce216b6f7ad545bb651ab4cdc05b8588b4d6e39"


def test_every_entry_point_resolves_the_same_config():
    # the benchmark loads a file, edits the dict and resolves it again; the
    # CLI validates (and runs) the file itself
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = load_scenario_file(path)
        assert resolve_config(cfg) == cfg, path.name
        assert ScenarioConfig.from_dict(cfg).scenario == cfg["scenario"]
        assert main(["validate", str(path)]) == 0
    weak = load_scenario_file(CONFIGS / "weak_scaling.yaml")
    assert weak["pilot"]["unit_sd_s"] == 4.0  # the weak_scaling preset applies


BAD_INPUTS = [
    ({"broker": {"failure_prob": 1.5}}, "broker: failure_prob"),
    ({"pilot": {"bootstrap_s": -5}}, "pilot: bootstrap_s"),
    ({"pilot": {"bootstrap_s": math.nan}}, "pilot: bootstrap_s must be non-negative, got nan"),
    ({"broker": {"slots_per_node": 12}}, "broker: slots_per_node"),
    ({"workload": {"event_mean_s": 5000}}, "workload: event_mean_s"),
    ({"scenario": "weak_scaling", "pilot": {"queue": "capabilty"}}, "pilot: queue"),
    ({"pilot": {"nodes_list": [0]}}, "pilot: nodes_list"),
    ({"horizon_days": 1e-6}, "horizon_days"),
    ({"metrics": {"poll_interval_s": 0}}, "metrics: poll_interval_s"),
    # each of these once validated, then crashed the poller's first reschedule
    ({"metrics": {"poll_interval_s": math.inf}},
     "metrics: poll_interval_s must be an integer >= 1, got inf"),
    ({"metrics": {"poll_interval_s": math.nan}},
     "metrics: poll_interval_s must be an integer >= 1, got nan"),
    ({"metrics": {"poll_interval_s": 1.5}},
     "metrics: poll_interval_s must be an integer >= 1, got 1.5"),
    # once validated, and then the fleet declined every slot
    ({"broker": {"min_slot_walltime_s": math.nan}},
     "broker: min_slot_walltime_s must be finite and >= 0, got nan"),
    ({"broker": {"min_slot_walltime_s": math.inf}},
     "broker: min_slot_walltime_s must be finite and >= 0, got inf"),
    ({"cluster": {"cores_per_node": 1.5}}, "cluster: cores_per_node must be an integer >= 1"),
    ({"cluster": {"total_nodes": 1.5}}, "cluster: total_nodes must be an integer >= 1"),
    ({"broker": {"poll_interval_s": 0}}, "broker: poll_interval_s"),
    ({"scenario": "broker_vs_pilot", "compare": {"slot_nodes_mean": 0}},
     "compare: slot_nodes_mean"),
    ({"workload": {"event_sigma": 0}}, "workload: event_sigma must be > 0, got 0"),
    ({"workload": {"event_sigma": -0.5}}, "workload: event_sigma must be > 0, got -0.5"),
    ({"workload": {"event_sigma": 40}},
     "workload: event_sigma 40: no location fits event_mean_s 840.0"),
    ({"workload": {"event_sigma": 20}}, "workload: event_sigma 20: no location fits"),
    ({"workload": {"event_sigma": math.inf}}, "workload: event_sigma inf: no location fits"),
    ({"workload": {"event_min_s": 0}}, "workload: event_min_s must be > 0"),
    ({"workload": {"contention_mean_8way_s": 0}}, "workload: contention_mean_8way_s"),
    ({"start_date": "2016-13-40"},
     "start_date must be an ISO date string such as '2016-01-01', got '2016-13-40'"),
    # unquoted in YAML, a date loads as a datetime.date
    ({"start_date": datetime.date(2016, 1, 1)},
     "start_date must be an ISO date string such as '2016-01-01', got datetime.date"),
    ({"cluster": {"backfill_caps": []}}, "cluster: backfill_caps must list at least one"),
    ({"cluster": {"capability_caps": []}}, "cluster: capability_caps must list at least one"),
    ({"background": {"walltime_factor_lo": 2.5}},
     "background: walltime_factor_lo 2.5 must be <= walltime_factor_hi 2.0"),
    ({"background": {"walltime_factor_lo": 0}},
     "background: walltime_factor_lo must be finite and > 0"),
    ({"background": {"runtime_min_s": 0}},
     "background: runtime_min_s must be finite and > 0, got 0"),
    ({"background": {"runtime_min_s": 0.5}}, "background: runtime_min_s must be >= 1, got 0.5"),
    ({"background": {"runtime_min_s": 90000}},
     "background: runtime_min_s 90000 must be <= runtime_max_s 85000"),
    ({"background": {"runtime_sigma": 0}},
     "background: runtime_sigma must be finite and > 0, got 0"),
    ({"background": {"runtime_sigma": math.inf}},
     "background: runtime_sigma must be finite and > 0, got inf"),
    ({"background": {"runtime_mean_s": 0}}, "background: runtime_mean_s must be finite and > 0"),
    ({"background": {"walltime_factor_hi": math.inf}},
     "background: walltime_factor_hi must be finite and > 0, got inf"),
    ({"background": {"size_mix": [[0, 1, 125]]}}, "background: size_mix weights must sum to > 0"),
    ({"background": {"size_mix": [[1, 1, 125], [-0.5, 126, 312]]}},
     "background: size_mix weights must be finite and >= 0, got -0.5"),
    ({"background": {"size_mix": [[1, 0, 125]]}},
     "background: size_mix bands need 1 <= lo <= hi, got lo 0, hi 125"),
    ({"background": {"size_mix": [[1, 200, 125]]}},
     "background: size_mix bands need 1 <= lo <= hi, got lo 200, hi 125"),
    ({"workload": {"event_max_s": math.inf}}, "workload: event_max_s must be finite, got inf"),
    ({"workload": {"event_mean_s": math.nan}}, "workload: event_mean_s must be finite, got nan"),
    ({"pilot": {"unit_sd_s": -1}}, "pilot: unit_sd_s must be >= 0, got -1"),
    ({"pilot": {"unit_mean_s": 0}}, "pilot: unit_mean_s must be > 0, got 0"),
    ({"pilot": {"unit_mean_s": -100}}, "pilot: unit_mean_s must be > 0, got -100"),
    ({"pilot": {"nodes_list": []}}, "pilot: nodes_list must list at least one pilot size"),
    ({"pilot": {"nodes_list": [1.5]}}, "pilot: nodes_list entries must be integers >= 1"),
    ({"pilot": {"units_per_node": -1}}, "pilot: units_per_node must be an integer >= 0, got -1"),
    ({"pilot": {"units_per_node": 1.5}},
     "pilot: units_per_node must be an integer >= 0, got 1.5"),
    ({"pilot": {"units_total": -5}}, "pilot: units_total must be an integer >= 0, got -5"),
    ({"pilot": {"walltime_s": math.nan}}, "pilot: walltime_s must be positive, got nan"),
    ({"pilot": {"unit_mean_s": math.inf}},
     "pilot: unit_mean_s and unit_sd_s must be finite, got inf and 19.0"),
    ({"pilot": {"unit_sd_s": math.inf}},
     "pilot: unit_mean_s and unit_sd_s must be finite, got 4650.0 and inf"),
    ({"broker": {"min_nodes_per_bundle": 0}},
     "broker: min_nodes_per_bundle must be an integer >= 1, got 0"),
    ({"broker": {"job_limit": -5}}, "broker: job_limit must be an integer >= 0, got -5"),
    ({"broker": {"stage_in_base_s": -1}}, "broker: stage_in_base_s must be >= 0, got -1"),
    ({"broker": {"stage_in_per_gb_s": -40}}, "broker: stage_in_per_gb_s must be >= 0, got -40"),
    ({"broker": {"stage_out_base_s": -1}}, "broker: stage_out_base_s must be >= 0, got -1"),
    ({"broker": {"stage_out_per_gb_s": -40}},
     "broker: stage_out_per_gb_s must be >= 0, got -40"),
    ({"compare": {"slot_nodes_sigma": math.nan}},
     "compare: slot_nodes_sigma must be finite and >= 0, got nan"),
    ({"compare": {"slot_nodes_sigma": math.inf}},
     "compare: slot_nodes_sigma must be finite and >= 0, got inf"),
    ({"compare": {"slot_walltime_sigma": math.nan}},
     "compare: slot_walltime_sigma must be finite and >= 0, got nan"),
    ({"compare": {"slot_walltime_sigma": math.inf}},
     "compare: slot_walltime_sigma must be finite and >= 0, got inf"),
    ({"compare": {"slot_interval_s": math.nan}},
     "compare: slot_interval_s must be finite and >= 0, got nan"),
    ({"compare": {"slot_nodes_mean": math.inf}},
     "compare: slot_nodes_mean must be finite and > 0, got inf"),
    ({"compare": {"slots": math.nan}}, "compare: slots must be an integer >= 0, got nan"),
    ({"compare": {"slots": 2.5}}, "compare: slots must be an integer >= 0, got 2.5"),
    ({"broker": {"n_brokers": 2.5}}, "broker: n_brokers must be an integer >= 1, got 2.5"),
    ({"broker": {"slots_per_node": 8.0}},
     "broker: slots_per_node must be an integer >= 1, got 8.0"),
    ({"broker": {"events_per_job": 10.5}},
     "broker: events_per_job must be an integer >= 1, got 10.5"),
    ({"broker": {"max_nodes_per_bundle": 20.5}},
     "broker: max_nodes_per_bundle must be an integer >= 1, got 20.5"),
    ({"broker": {"job_limit": 20.5}}, "broker: job_limit must be an integer >= 0, got 20.5"),
    ({"broker": {"job_limit": "20"}}, "broker: job_limit must be an integer >= 0, got '20'"),
    ({"broker": {"stage_in_base_s": math.inf}}, "broker: stage_in_base_s must be finite, got inf"),
    ({"broker": {"stage_out_per_gb_s": math.inf}},
     "broker: stage_out_per_gb_s must be finite, got inf"),
    # the other shares still sum to 1
    ({"broker": {"failure_mix": {"broker": -0.5, "other": 1.08}}},
     "broker: failure_mix.broker must be between 0 and 1, got -0.5"),
    ({"broker": {"failure_mix": {"payload": math.nan}}},
     "broker: failure_mix.payload must be between 0 and 1, got nan"),
]


@pytest.mark.parametrize("override,key", BAD_INPUTS, ids=[k for _, k in BAD_INPUTS])
def test_model_checks_fire_at_load(tmp_path, capsys, override, key):
    with pytest.raises(ConfigError, match=key):
        resolve_config(override)
    path = write_yaml(tmp_path / "bad.yaml", override)
    assert main(["validate", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_pilot_walltime_over_its_queue_cap_fails_validate(tmp_path, capsys):
    # 10800 s pilots of 256..2048 nodes exceed the 7200 s backfill cap
    path = write_yaml(tmp_path / "bad.yaml", {"extends": str(CONFIGS / "multi_generation.yaml"),
                                              "pilot": {"queue": "backfill"}})
    assert main(["validate", str(path)]) == 2
    assert "pilot.walltime_s 10800 exceeds the 7200s cap" in capsys.readouterr().err


def test_problems_in_several_sections_are_all_reported():
    with pytest.raises(ConfigError) as err:
        resolve_config({"cluster": {"total_nodes": 0}, "metrics": "often",
                        "broker": {"failure_mix": {"cosmic": 1.0}}})
    text = str(err.value)
    assert "cluster: total_nodes" in text
    assert "metrics must be a mapping" in text
    assert "broker.failure_mix.cosmic" in text


def test_tree_needs_every_key():
    # only resolve_config fills in defaults and presets
    with pytest.raises(ConfigError, match="missing key 'pilot'"):
        ScenarioConfig.from_dict({k: v for k, v in DEFAULTS.items() if k != "pilot"})


# the keys that reach `job_makespans_batch` and `consume_slot_pilot`, and
# the pair of them that can be swapped
PAYLOAD_KEYS = [("workload", "event_mean_s"), ("workload", "event_sigma"),
                ("workload", "event_min_s"), ("workload", "event_max_s"),
                ("broker", "events_per_job"), ("broker", "slots_per_node"),
                ("pilot", "bootstrap_s"), ("pilot", "dispatch_per_unit_s"),
                ("pilot", "launch_per_unit_s")]
SWAP = ("workload", "event_min_s", "event_max_s")


class RunTimedOut(Exception):
    pass


def _time_out(signum, frame):
    raise RunTimedOut


def _run_scenario(cfg):
    with tempfile.TemporaryDirectory() as base:
        run_scenario(cfg, base_dir=base)


def _validates_then_runs(raw, run=_run_scenario):
    """Either `resolve_config` rejects `raw` or `run` finishes the resolved
    config within the time limit."""
    try:
        cfg = resolve_config(raw)
    except ConfigError:
        return
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        run(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(st.lists(st.tuples(st.sampled_from(PAYLOAD_KEYS + [SWAP]), st.sampled_from([0, -1, 1])),
                max_size=3))
@settings(max_examples=200)
def test_payload_config_that_validates_also_runs(edits):
    # three compare slots at seed 1, two of them accepted, so a valid draw
    # runs the broker bundle and every pilot generation; a key not edited
    # keeps its default
    raw = {"scenario": "broker_vs_pilot", "horizon_days": 0.05, "compare": {"slots": 3},
           "workload": {}, "broker": {}, "pilot": {}}
    for edit, value in edits:
        section, *keys = edit
        if edit == SWAP:
            old = {k: raw[section].get(k, DEFAULTS[section][k]) for k in keys}
            raw[section].update(zip(keys, reversed(old.values())))
        else:
            raw[section][keys[0]] = value
    _validates_then_runs(raw)


# the keys that size the units of the pilot-scaling scenarios
PILOT_KEYS = ["unit_mean_s", "unit_sd_s", "walltime_s", "units_per_node", "units_total"]


@given(st.lists(st.tuples(st.sampled_from(PILOT_KEYS),
                          st.sampled_from([0, -1, 1, 1.5, math.inf, math.nan])), max_size=3))
@settings(max_examples=200)
def test_pilot_config_that_validates_also_runs(edits):
    # multi_generation on 4- and 8-node pilots with up to three `pilot` keys
    # set to 0, -1, 1, 1.5, inf or NaN; unedited, five units per node
    raw = {"scenario": "multi_generation", "pilot": {"nodes_list": [4, 8]}}
    for key, value in edits:
        raw["pilot"][key] = value
    _validates_then_runs(raw)


@given(st.lists(st.tuples(st.sampled_from(sorted(DEFAULTS["compare"])),
                          st.sampled_from([0, -1, 1, math.nan])), max_size=3))
@settings(max_examples=200)
def test_compare_config_that_validates_also_runs(edits):
    # the three-slot run above with up to three `compare` keys set to 0,
    # -1, 1 or NaN, so an edit of `slots` never lengthens the run
    raw = {"scenario": "broker_vs_pilot", "horizon_days": 0.05, "compare": {"slots": 3}}
    for key, value in edits:
        raw["compare"][key] = value
    _validates_then_runs(raw)


# the keys that shape the background stream `_feed_background` hands the engine
BACKGROUND_KEYS = ["target_utilization", "runtime_mean_s", "runtime_sigma", "runtime_min_s",
                   "runtime_max_s", "walltime_factor_lo", "walltime_factor_hi"]
SIZE_MIXES = [[], [[1, 1, 1]], [[0, 1, 1]], [[1, 2, 1]], [[1, 0, 1]], [[1, 1]],
              [[math.nan, 1, 1]], [[math.inf, 1, 1]], [[1, 1, math.nan]], [[1, 6000, 20000]]]


@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(BACKGROUND_KEYS), st.sampled_from([0, -1, 0.5, math.inf, math.nan])),
    st.tuples(st.just("size_mix"), st.sampled_from(SIZE_MIXES))), max_size=3))
@example([("runtime_min_s", 0.5), ("runtime_max_s", 0.5)])  # once a 0-s walltime mid-run
@settings(max_examples=200)
def test_background_config_that_validates_also_runs(edits):
    # a 0.01-day efficiency run (864 s) with up to three `background` keys
    # set to 0, -1, 0.5, inf or NaN, or a zero, inverted, malformed, NaN or
    # oversized size mix; the costliest draw that validates, 1-node jobs
    # with a 0.5-s mean runtime clipped to 600 s, feeds about 26k arrivals
    raw = {"scenario": "efficiency", "horizon_days": 0.01, "background": {}}
    for key, value in edits:
        raw["background"][key] = value
    _validates_then_runs(raw)


# the broker keys a fleet reads once it runs: counts, bundle bounds, stage
# costs and the failure draw
BROKER_KEYS = ["n_brokers", "poll_interval_s", "events_per_job", "slots_per_node", "job_limit",
               "min_nodes_per_bundle", "max_nodes_per_bundle", "min_slot_walltime_s",
               "stage_in_base_s", "stage_in_per_gb_s", "stage_out_base_s",
               "stage_out_per_gb_s", "failure_prob",
               *(f"failure_mix.{cause}" for cause in DEFAULTS["broker"]["failure_mix"])]


def _run_one_broker(cfg):
    # one wide replayed slot and 40,000 s: the bundle ends and draws its outcomes
    tree = ScenarioConfig.from_dict(cfg)
    sim = Simulation(seed=tree.seed)
    cluster = ReplayScheduler(sim, [PollRecord(0, 691, 7560)], tree.cluster)
    BrokerFleet(sim, cluster, tree.broker, tree.workload).start(0)
    sim.run_until(40_000)


@given(st.lists(st.tuples(st.sampled_from(BROKER_KEYS),
                          st.sampled_from([0, -1, 1, 1.5, math.inf, math.nan])), max_size=3))
@settings(max_examples=200)
def test_broker_config_that_validates_also_runs(edits):
    # up to three broker keys set to 0, -1, 1, 1.5, inf or NaN on a one-broker
    # fleet; a `failure_mix` edit moves the change to the next cause in
    # sorted order, so the shares still sum to 1 unless a NaN or inf is drawn
    raw = {"broker": {"n_brokers": 1, "failure_mix": dict(DEFAULTS["broker"]["failure_mix"])}}
    for key, value in edits:
        cause = key.partition(".")[2]
        if cause:
            mix = raw["broker"]["failure_mix"]
            causes = sorted(mix)
            mix[causes[(causes.index(cause) + 1) % len(causes)]] += mix[cause] - value
            mix[cause] = value
        else:
            raw["broker"][key] = value
    _validates_then_runs(raw, _run_one_broker)
