"""Command-line front end.

Subcommands: ``run`` (one detector, one scene, full trace), ``compare``
(detector grid over shared scenes with paired seeds), ``sweep`` (operating
points by sweeping the acceptance threshold), ``curves`` (per-iteration
series from a stored trace), ``validate-config``.  Exit codes: 0 on success,
2 for configuration problems, 3 for runtime failures; with ``--debug`` a
failure re-raises its exception instead, traceback and all.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, LoadedConfig, load_config
from .detectors import KIND_ACCEPTED
from .harness import (
    TraceFormatError,
    cell_means,
    derive_seed,
    extract_curves,
    read_trace_jsonl,
    run_cell,
    run_experiment,
    summarize_rates,
    summarize_ratios,
    write_csv,
    write_results_jsonl,
    write_trace_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _at_least(low: int):
    """An argument type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, not {text!r}")
        return value

    return parse


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwsearch", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("run", "run one detector on one scene and write its trace"),
        ("compare", "run the detector grid over shared scenes"),
        ("sweep", "sweep the acceptance threshold for operating points"),
        ("curves", "extract per-iteration curves from a stored trace"),
        ("validate-config", "parse and validate a config, then exit"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name != "curves":
            cmd.add_argument("--config", required=True, help="path to a JSON config file")
        if name in ("run", "compare", "sweep"):
            cmd.add_argument("--seed", type=_at_least(0), default=None, help="override the experiment seed")
        if name != "validate-config":
            cmd.add_argument("--out", default="out", help="output directory")
        if name in ("compare", "sweep"):
            cmd.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes for the runs")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
        cmd.add_argument("--debug", action="store_true", help="re-raise an error with its traceback")
        if name == "run":
            cmd.add_argument("--detector", default=None, help="detector name (default: first)")
            cmd.add_argument("--scene", type=int, default=0, help="scene index (default 0)")
        if name == "curves":
            cmd.add_argument("--trace", required=True, help="trace .jsonl produced by `run`")
    return parser


_PARSER = _parser()  # built once: in-process callers call main() many times


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load(args) -> LoadedConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _pick_detector(cfg: LoadedConfig, name: str | None):
    if name is None:
        return cfg.detectors[0]
    for det in cfg.detectors:
        if det.name == name:
            return det
    raise ConfigError("--detector", f"no detector named {name!r} in the config")


def cmd_run(args) -> int:
    cfg = _load(args)
    detector = _pick_detector(cfg, args.detector)
    count = len(cfg.scene_files) or cfg.scene_count
    if not 0 <= args.scene < count:
        raise ConfigError("--scene", f"scene index {args.scene} outside 0..{count - 1}")
    [scene] = cfg.load_scenes(only=args.scene)  # the other scenes are neither built nor checked
    seed = derive_seed(cfg.seed, args.scene)
    trace, detections, metrics = run_cell(cfg, scene, detector, seed)

    out = _outdir(args)
    write_trace_jsonl(out / "trace.jsonl", trace)
    write_csv(out / "curves.csv", extract_curves(trace))
    summary = {
        "detector": detector.name,
        "algorithm": detector.algorithm,
        "scene": args.scene,
        "seed": seed,
        "windows_used": metrics.windows_used,
        "accepted": trace.records.kind.count(KIND_ACCEPTED),
        "detections": len(detections),
        "detection_rate": metrics.detection_rate,
        "fppi": metrics.fppi,
        "cost": metrics.cost,
        "complete": trace.complete,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _say(args, f"run: {detector.name} scored {metrics.windows_used} windows, "
               f"rate={metrics.detection_rate:.3f} -> {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    scenes = cfg.load_scenes()
    results = run_experiment(cfg, scenes, jobs=args.jobs)
    names = [d.name for d in cfg.detectors]
    budgets = list(cfg.budgets)
    out = _outdir(args)
    write_results_jsonl(out / "results.jsonl", results)
    write_csv(out / "rates.csv", summarize_rates(results, names, budgets))
    write_csv(out / "ratios.csv", summarize_ratios(results, names, budgets))
    _say(args, f"compare: {len(results)} runs over {len(scenes)} scenes -> {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if not cfg.sweep:
        raise ConfigError("experiment.sweep_t_h", "sweep requires a sweep_t_h list")
    scenes = cfg.load_scenes()
    budget = cfg.detectors[0].budget
    results = run_experiment(replace(cfg, detectors=cfg.sweep, budgets=(budget,)), scenes, args.jobs)
    means = cell_means(results)
    points = {
        "t_h": [point.t_h for point in cfg.sweep],
        "detection_rate": [means[budget, point.name]["detection_rate"] for point in cfg.sweep],
        "fppi": [means[budget, point.name]["fppi"] for point in cfg.sweep],
    }
    out = _outdir(args)
    write_csv(out / "operating_points.csv", points)
    _say(args, f"sweep: {len(cfg.sweep)} operating points for {cfg.detectors[0].name} -> {out}")
    return EXIT_OK


def cmd_curves(args) -> int:
    try:
        trace = read_trace_jsonl(args.trace)
    except TraceFormatError as exc:
        raise ConfigError("--trace", str(exc)) from exc
    out = _outdir(args)
    write_csv(out / "curves.csv", extract_curves(trace))
    _say(args, f"curves: {len(trace.records)} iterations -> {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    cfg.load_scenes()
    _say(args, f"ok: {len(cfg.detectors)} detectors, {cfg.space.window_count} windows, "
               f"budgets {list(cfg.budgets)}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "curves": cmd_curves,
    "validate-config": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigError as exc:
        if args.debug:
            raise
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
