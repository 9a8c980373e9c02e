"""Command-line interface.

Verbs: run, sweep, validate, print-defaults, ingest-stats. Exit code 0 on
success, nonzero with a message on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .config import ConfigError, dump_defaults, load_scenario_file, resolve_config
from .scenarios import run_scenario
from .traces import TraceFormatError, ingest_poll_trace, ingest_swf, trace_summary


def _parse_value(text: str):
    return yaml.safe_load(text)


def _set_key(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError([f"--param {dotted!r}: {key!r} is not a section"])
    node[keys[-1]] = value


def cmd_run(args) -> int:
    cfg = load_scenario_file(args.config)
    manifest = run_scenario(cfg, base_dir=args.base_dir)
    print(f"scenario {cfg['scenario']} done; outputs in "
          f"{Path(args.base_dir) / cfg['output_dir']}")
    for name, digest in sorted(manifest.outputs.items()):
        print(f"  {name}  sha256:{digest[:12]}")
    return 0


def cmd_sweep(args) -> int:
    key, _, values = args.param.partition("=")
    if not values:
        raise ConfigError([f"--param must look like key=v1,v2,... got {args.param!r}"])
    base = load_scenario_file(args.config)
    for raw in values.split(","):
        value = _parse_value(raw)
        cfg = yaml.safe_load(yaml.safe_dump(base))  # deep copy
        _set_key(cfg, key, value)
        cfg["output_dir"] = str(Path(base["output_dir"]) / f"{key.replace('.', '_')}={raw}")
        cfg = resolve_config(cfg)
        run_scenario(cfg, base_dir=args.base_dir)
        print(f"sweep {key}={raw} done; outputs in "
              f"{Path(args.base_dir) / cfg['output_dir']}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_scenario_file(args.config)
    print(f"{args.config}: valid ({cfg['scenario']}, seed {cfg['seed']})")
    return 0


def cmd_print_defaults(args) -> int:
    sys.stdout.write(dump_defaults())
    return 0


def cmd_ingest_stats(args) -> int:
    path = Path(args.trace)
    if args.format == "swf" or (args.format == "auto" and path.suffix == ".swf"):
        jobs = ingest_swf(path)
        count = len(jobs)
        if count:
            print(f"{path}: {count} jobs, mean nodes "
                  f"{sum(j.nodes for j in jobs) / count:.1f}, mean runtime "
                  f"{sum(j.runtime for j in jobs) / count:.1f}s, mean walltime "
                  f"{sum(j.walltime for j in jobs) / count:.1f}s")
        else:
            print(f"{path}: 0 jobs")
    else:
        records = ingest_poll_trace(path)
        stats = trace_summary(records)
        print(f"{path}: {stats['count']} polls, mean nodes {stats['mean_nodes']:.1f}, "
              f"mean walltime {stats['mean_walltime_s']:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backfillsim",
        description="Backfill-slot broker and pilot-runtime simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario config")
    p.add_argument("config")
    p.add_argument("--base-dir", default=".")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a scenario once per parameter value")
    p.add_argument("config")
    p.add_argument("--param", required=True, metavar="key=v1,v2,...")
    p.add_argument("--base-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("print-defaults", help="dump the default configuration")
    p.set_defaults(func=cmd_print_defaults)

    p = sub.add_parser("ingest-stats", help="summarize a trace file")
    p.add_argument("trace")
    p.add_argument("--format", choices=["auto", "poll", "swf"], default="auto")
    p.set_defaults(func=cmd_ingest_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
