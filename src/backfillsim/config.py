"""Scenario configuration: one frozen-dataclass tree, read from YAML files.

`ScenarioConfig` and its sections (`ClusterConfig`, `BackgroundLoadProfile`,
`WorkloadConfig`, `BrokerConfig`, `PilotConfig`, ...) define every key
once, in one field: its name is the YAML key, its default the key's
default, and its annotation the key's domain (`domains`), which each
section checks first on construction. A section's own constructor holds
only rules that relate keys to one another and the fits of derived models.
`DEFAULTS`, `print-defaults` and unknown-key detection are derived from
the tree.

A scenario file sets only the knobs it changes; `extends: other.yaml`
pulls in another file first (recursively). `resolve_config` layers
DEFAULTS < scenario preset < the file and builds the tree from the result,
so every check fires at load as a `ConfigError` naming its key.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date
from pathlib import Path
from typing import Annotated, Literal, Optional

import yaml

from .broker import BrokerConfig
from .domains import (Checked, Count, Domain, NonNegative, NonNegativeInt, Positive, Text,
                      real)
from .pilot import PilotConfig
from .scheduler import ClusterConfig
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
class CompareConfig(Checked):
    """Broker-versus-pilot consumption over one shared slot sequence."""

    # a NaN or infinite lognormal parameter draws NaN slots, and an
    # infinite interval puts NaN into the first observed_at (0 * inf)
    slots: NonNegativeInt = 150
    slot_nodes_mean: Positive = 691.0
    slot_nodes_sigma: NonNegative = 0.9
    slot_walltime_mean_s: Positive = 7560.0
    slot_walltime_sigma: NonNegative = 0.7
    slot_interval_s: NonNegative = 600


@dataclass(frozen=True)
class ReplayConfig(Checked):
    trace_path: Optional[Text] = None  # poll trace driving a replay run


@dataclass(frozen=True)
class MetricsConfig(Checked):
    # the poller reschedules itself with `schedule_in`, which takes whole seconds
    poll_interval_s: Count = 60
    availability_credit: Literal["rate", "walltime"] = "rate"


def _is_iso_date(value) -> bool:
    # month_windows puts each boundary at the start date's time of day, so
    # the date has none; an unquoted YAML date loads as a date, not a string
    try:
        date.fromisoformat(value)
    except (TypeError, ValueError):
        return False
    return True


# runners simulate int(horizon_days * 86400) seconds
Horizon = Annotated[float, real("a finite number of days covering at least one second",
                                lambda days: days * 86400 >= 1)]
IsoDate = Annotated[str, Domain("an ISO date string such as '2016-01-01'", _is_iso_date)]


@dataclass(frozen=True)
class ScenarioConfig(Checked):
    """A whole scenario: run settings plus one section per model."""

    scenario: Literal[SCENARIOS] = "efficiency"
    seed: NonNegativeInt = 1  # numpy's SeedSequence takes non-negative integers only
    horizon_days: Horizon = 30
    start_date: IsoDate = "2016-01-01"
    output_dir: Text = "out"
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    background: BackgroundLoadProfile = field(default_factory=BackgroundLoadProfile)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    pilot: PilotConfig = field(default_factory=PilotConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        super().__post_init__()
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
