import hashlib
from pathlib import Path

import pytest
import yaml

from backfillsim import (DEFAULTS, ConfigError, ScenarioConfig, config_hash, dump_defaults,
                         load_scenario_file, resolve_config)
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
    "base": "dbce412671e6bbe2e501976ae7f35c7b82b15bd7fc2b8979c926083a89927c1d",
    "broker_count": "57cd19519b38c53774f14c08578f603d9d47d91ade33603b4d524b8fd8f69073",
    "broker_vs_pilot": "f79d4ec6a2518a05d3c3897ba0daeb1b82bdb047b3f7a67f910cd2f05608c2ee",
    "efficiency_month": "ff45de347ac9f2747e708a1c544450fb6f9b79326996ad83ca19e420ba8aca02",
    "multi_generation": "c62ec233129c03ff206ca71f1f8f3ee213ebacc867f4d6ba4aa63cc80f6d52b2",
    "replay_efficiency": "74159065279b0b389589ca0f7249f6321b8d2d9672c8dbb275f2b451aa7fe667",
    "slot_calibration": "5752e6bffaa6d4b77fdbd09a64973a58ab4b8fe0d2ca2647d24b065d73f4a6c4",
    "strong_scaling": "d1b4f72c04050735144a23785a84936c63e1735ebb0d35a832125bb10a021046",
    "weak_scaling": "7950d0e8607b1417a3f17523957f3ad92bc4e5dee83fe174f886924f0ba323d9",
}


def test_shipped_config_hashes_are_unchanged():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(SHIPPED_HASHES)
    for name, digest in SHIPPED_HASHES.items():
        assert config_hash(load_scenario_file(CONFIGS / f"{name}.yaml")) == digest, name


def test_short_efficiency_golden_hash():
    cfg = load_scenario_file(CONFIGS / "efficiency_month.yaml")
    cfg.update(horizon_days=2, output_dir="out/eff2d")
    assert config_hash(resolve_config(cfg)) == \
        "54b1b3f28a1b0f8a1c848b91bbe9d3a7116a5ab751ab4b646a6ccdf3cf486ea5"


def test_print_defaults_is_unchanged():
    assert hashlib.sha256(dump_defaults().encode()).hexdigest() == \
        "4956e9efafe022648ad7aca46190a55a3d2baab79f81f8d322063c54923b5adb"


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
    ({"broker": {"slots_per_node": 12}}, "broker: slots_per_node"),
    ({"workload": {"event_mean_s": 5000}}, "workload: event_mean_s"),
    ({"scenario": "weak_scaling", "pilot": {"queue": "capabilty"}}, "pilot: queue"),
    ({"pilot": {"nodes_list": [0]}}, "pilot: nodes_list"),
    ({"horizon_days": 1e-6}, "horizon_days"),
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
