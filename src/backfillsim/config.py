"""Scenario configuration: one frozen-dataclass tree, read from YAML files.

`ScenarioConfig` and its sections (`ClusterConfig`, `BackgroundLoadProfile`,
`WorkloadConfig`, `BrokerConfig`, `PilotConfig`, ...) define every key
once: the field name is the YAML key, the field default is the key's
default, and the section's constructor holds its checks. `DEFAULTS`,
`print-defaults` and unknown-key detection are derived from the tree.

A scenario file sets only the knobs it changes; `extends: other.yaml`
pulls in another file first (recursively). `resolve_config` layers
DEFAULTS < scenario preset < the file and builds the tree from the result,
so every check fires at load as a `ConfigError` naming its key.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional

import yaml

from .broker import BrokerConfig
from .pilot import PilotConfig
from .scheduler import ClusterConfig, _is_count
from .workload import BackgroundLoadProfile, WorkloadConfig

# Broker fleets on a live EASY cluster over background load, and pilots
# sized from `pilot.nodes_list`: the two families of scenarios.
CLUSTER_RUNS = ("efficiency", "slot_calibration", "broker_count")
PILOT_SCALING = ("weak_scaling", "multi_generation", "strong_scaling")
SCENARIOS = (*CLUSTER_RUNS, *PILOT_SCALING, "broker_vs_pilot", "replay_efficiency")

# Experiment-specific defaults layered between DEFAULTS and the user's file
# (the default pilot section is the weak-scaling experiment's).
_SMALL_UNITS = {"nodes_list": [256, 512, 1024, 2048], "unit_mean_s": 1200.0,
                "unit_sd_s": 5.0, "walltime_s": 10800}
SCENARIO_PRESETS: dict[str, dict] = {
    "weak_scaling": {"pilot": {"unit_sd_s": 4.0}},
    "multi_generation": {"pilot": {**_SMALL_UNITS, "units_per_node": 5}},
    "strong_scaling": {"pilot": {**_SMALL_UNITS, "units_total": 2048}},
}


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass(frozen=True)
class CompareConfig:
    """Broker-versus-pilot consumption over one shared slot sequence."""

    slots: int = 150
    slot_nodes_mean: float = 691.0
    slot_nodes_sigma: float = 0.9
    slot_walltime_mean_s: float = 7560.0
    slot_walltime_sigma: float = 0.7
    slot_interval_s: int = 600

    def __post_init__(self):
        # a NaN or infinite lognormal parameter draws NaN slots, and an
        # infinite interval puts NaN into the first observed_at (0 * inf)
        for name in ("slot_nodes_mean", "slot_walltime_mean_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("slot_nodes_sigma", "slot_walltime_sigma", "slot_interval_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not _is_count(self.slots, 0):
            raise ValueError(f"slots must be an integer >= 0, got {self.slots!r}")


@dataclass(frozen=True)
class ReplayConfig:
    trace_path: Optional[str] = None  # poll trace driving a replay run


@dataclass(frozen=True)
class MetricsConfig:
    poll_interval_s: int = 60
    availability_credit: str = "rate"  # or "walltime"

    def __post_init__(self):
        # the poller reschedules itself with `schedule_in`, which takes whole seconds
        if not _is_count(self.poll_interval_s, 1):
            raise ValueError(f"poll_interval_s must be an integer >= 1, "
                             f"got {self.poll_interval_s!r}")
        if self.availability_credit not in ("rate", "walltime"):
            raise ValueError("availability_credit must be 'rate' or 'walltime', "
                             f"got {self.availability_credit!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario: run settings plus one section per model."""

    scenario: str = "efficiency"
    seed: int = 1
    horizon_days: float = 30
    start_date: str = "2016-01-01"
    output_dir: str = "out"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    background: BackgroundLoadProfile = field(default_factory=BackgroundLoadProfile)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    pilot: PilotConfig = field(default_factory=PilotConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        # numpy's SeedSequence takes non-negative integers only
        if not _is_count(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        # runners simulate int(horizon_days * 86400) seconds
        if not (isinstance(self.horizon_days, (int, float))
                and int(self.horizon_days * 86400) >= 1):
            raise ValueError(f"horizon_days must cover at least one second, "
                             f"got {self.horizon_days!r}")
        # parsed as month_windows parses it; an unquoted YAML date loads as a date
        try:
            datetime.fromisoformat(self.start_date)
        except (TypeError, ValueError):
            raise ValueError("start_date must be an ISO date string such as '2016-01-01', "
                             f"got {self.start_date!r}") from None
        bg = self.background
        if self.scenario in CLUSTER_RUNS and \
                bool(bg.target_utilization) == (bg.trace_path is not None):
            raise ValueError("background: exactly one of target_utilization or "
                             "trace_path must be set")
        if self.scenario == "replay_efficiency" and self.replay.trace_path is None:
            raise ValueError("replay: trace_path is required for the "
                             "replay_efficiency scenario")
        if self.scenario in PILOT_SCALING:
            p = self.pilot
            for nodes in p.nodes_list:
                cap = self.cluster.cap_for(nodes, p.priority_class)
                if p.walltime_s > cap:
                    raise ValueError(f"pilot.walltime_s {p.walltime_s} exceeds the {cap}s "
                                     f"cap for {nodes}-node pilots in the {p.queue!r} queue")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ScenarioConfig":
        """Build the tree from a resolved config, which must name every key;
        raises `ConfigError` listing each problem found."""
        problems: list[str] = []
        built = _build(cls, cfg, "", problems)
        if problems:
            raise ConfigError(problems)
        return built


def _keys(cls) -> list:
    return [f for f in fields(cls) if f.init]


def _section_class(f):
    return f.default_factory if is_dataclass(f.default_factory) else None


def _build(cls, data, path: str, problems: list[str]):
    """Construct `cls` from `data`, appending problems instead of raising.
    Constructor errors are reported under the section's path."""
    if not isinstance(data, dict):
        problems.append(f"{path.rstrip('.')} must be a mapping, got {data!r}")
        return None
    keys = _keys(cls)
    names = {f.name for f in keys}
    problems.extend(f"unknown key {path + k!r}" for k in data if k not in names)
    problems.extend(f"missing key {path + f.name!r}" for f in keys if f.name not in data)
    before = len(problems)
    kwargs = {}
    for f in keys:
        if f.name in data:
            section = _section_class(f)
            kwargs[f.name] = (data[f.name] if section is None else
                              _build(section, data[f.name], f"{path}{f.name}.", problems))
    if len(problems) > before:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, ArithmeticError) as exc:
        problems.append(f"{path.rstrip('.')}: {exc}" if path else str(exc))
        return None


def _defaults(cls) -> dict:
    out = {}
    for f in _keys(cls):
        section = _section_class(f)
        out[f.name] = _defaults(section) if section else _plain(f.default)
    return out


def _plain(value):
    # YAML sequences load as lists, so defaults hold lists too
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


DEFAULTS: dict = _defaults(ScenarioConfig)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _load_file(path: Path, seen: tuple = ()) -> dict:
    if path in seen:
        raise ConfigError([f"circular extends chain at {path}"])
    raw = yaml.safe_load(path.read_text()) or {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    parent = {}
    if "extends" in raw:
        parent_path = (path.parent / raw.pop("extends")).resolve()
        parent = _load_file(parent_path, seen + (path,))
    return _deep_merge(parent, raw)


def resolve_config(user_raw: dict) -> dict:
    """DEFAULTS < scenario preset < user overrides, checked by building the
    config tree. Returns the plain dict that `config_hash` covers."""
    scenario = user_raw.get("scenario", DEFAULTS["scenario"])
    preset = SCENARIO_PRESETS.get(scenario, {})
    cfg = _deep_merge(_deep_merge(DEFAULTS, preset), user_raw)
    ScenarioConfig.from_dict(cfg)
    return cfg


def load_scenario_file(path) -> dict:
    """Read a scenario file (following `extends`) and resolve it."""
    return resolve_config(_load_file(Path(path).resolve()))


# libyaml's emitter writes the same text as the pure-Python one, several times faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def config_hash(cfg: dict) -> str:
    canonical = yaml.dump(cfg, Dumper=_DUMPER, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dump_defaults() -> str:
    return yaml.safe_dump(DEFAULTS, sort_keys=False)
