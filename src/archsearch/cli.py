"""Command-line front door.

Subcommands: ``search`` (policy-gradient search), ``random`` (uniform
baseline through the same pipeline), ``mac`` (cost report for a macro
architecture file), ``pareto`` (front extraction from a results file) and
``sample`` (roll architectures out of a saved controller checkpoint).

Configuration is a flat ``key = value`` file; every key has a matching
command-line flag and flags win. Both are declared once, in `SETTINGS`.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import controller as ctl
from . import engine, textio
from .cost_model import DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE, macro_mac
from .evaluators import Evaluator
from .rewards import READ_BY, REWARD_KINDS, RewardSpec
from .search_space import (SPACE_KINDS, MacroArch, arch_from_text, arch_to_compact,
                           build_space)


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 2."""


class Setting(NamedTuple):
    flag: str
    field: str  # RewardSpec field for reward.* keys, else RunConfig field (or out_dir)
    convert: Callable[[str], object]  # one parse for config-file and flag strings
    help: str


def _on_off(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _path(raw: str) -> str:
    # an empty path would mean the current directory or, for a table, the default
    if not raw.strip():
        raise ValueError("expected a path, got an empty value")
    return raw


# config-file key -> its flag, field, converter and help; flags win over the file
SETTINGS = {
    "space": Setting("--space", "space_kind", str, ", ".join(SPACE_KINDS)),
    "reward.kind": Setting("--reward", "kind", str, ", ".join(REWARD_KINDS)),
    "reward.alpha": Setting("--alpha", "alpha", float, "mixed-reward accuracy weight"),
    "reward.threshold": Setting("--threshold", "threshold", float, "constraint threshold"),
    "reward.energy_norm_max": Setting("--energy-norm", "energy_norm_max", float,
                                      "energy normalization maximum (joules)"),
    "reward.violation": Setting("--violation-reward", "violation_reward", float,
                                "reward on MAC-constraint violation"),
    "evaluator.kind": Setting("--evaluator", "evaluator_kind", str, "surrogate or lookup"),
    "evaluator.fixture": Setting("--fixture", "lookup_path", _path,
                                 "lookup table file (default: shipped table)"),
    "evaluator.surrogate": Setting("--surrogate-config", "surrogate_path", _path,
                                   "surrogate constants file (default: shipped)"),
    "evaluator.fallback": Setting("--fallback", "lookup_fallback", _on_off,
                                  "on/off: surrogate for unknown lookup rows"),
    "controller.hidden": Setting("--hidden", "hidden_dim", int, "controller hidden units"),
    "controller.baseline": Setting("--baseline", "use_baseline", _on_off,
                                   "on/off: subtract a moving-average reward baseline"),
    "adam.lr": Setting("--lr", "lr", float, "ADAM learning rate"),
    "run.iterations": Setting("--iterations", "n_iterations", int, "search iterations"),
    "run.seed": Setting("--seed", "seed", int, "run seed"),
    "run.window": Setting("--window", "window", int, "satisfaction-rate window size"),
    "run.batch": Setting("--batch", "batch_n", int, "samples per policy update"),
    "run.resume": Setting("--resume", "resume_path", _path,
                          "controller checkpoint to continue from"),
    "out.dir": Setting("--out", "out_dir", _path, "output directory"),
}
# the controller's settings: random search has no controller, and a resumed
# search continues the checkpoint's as it was saved
CONTROLLER_KEYS = ("controller.hidden", "adam.lr", "controller.baseline")
SAMPLE_KEYS = ("run.seed", "evaluator.kind", "evaluator.fixture", "evaluator.surrogate",
               "evaluator.fallback", "out.dir")


def read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return textio.read_key_values(p.read_text(), path, keys=SETTINGS)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _given(args: argparse.Namespace) -> dict[str, object]:
    """Config key -> converted value of every setting in the config file or a flag."""
    raw = read_config_file(args.config) if getattr(args, "config", None) else {}
    raw.update((key, value) for key, value in vars(args).items()
               if key in SETTINGS and value is not None)
    values = {}
    for key, value in raw.items():
        try:
            values[key] = SETTINGS[key].convert(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return values


def _build_run_config(args: argparse.Namespace
                      ) -> tuple[engine.RunConfig, Evaluator, Path]:
    values = _given(args)
    required = {f.name for cls in (RewardSpec, engine.RunConfig)
                for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    missing = [key for key, s in SETTINGS.items() if s.field in required and key not in values]
    if missing:
        raise ConfigError(f"missing required setting: {', '.join(missing)}")
    fields = {SETTINGS[key].field: value for key, value in values.items()
              if not key.startswith("reward.")}
    out_dir = Path(fields.pop("out_dir", "out"))
    try:
        reward = RewardSpec(**{SETTINGS[key].field: value for key, value in values.items()
                               if key.startswith("reward.")})
        cfg = engine.RunConfig(reward=reward, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in values:
        field = SETTINGS[key].field
        if key.startswith("reward.") and reward.kind not in READ_BY.get(field, REWARD_KINDS):
            raise ConfigError(f"{key} ({field}) is not read by the {reward.kind} reward")
    unread = [key for key in CONTROLLER_KEYS if key in values]
    if unread and args.command == "random":
        raise ConfigError(f"{unread[0]} is not read by random: random search has no "
                          "controller")
    if cfg.resume_path is not None:
        if args.command == "random":
            raise ConfigError(engine.RANDOM_RESUME_ERROR)
        if unread:
            raise ConfigError(f"{unread[0]} is not read with run.resume: the run continues "
                              "the checkpoint's controller as it was saved")
        if not Path(cfg.resume_path).is_file():
            raise ConfigError(f"resume checkpoint not found: {cfg.resume_path}")
    try:
        evaluator = engine.build_evaluator(cfg)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"evaluator: {exc}") from exc
    return cfg, evaluator, out_dir


def _write_run_artifacts(out_dir: Path, cfg: engine.RunConfig,
                         result: engine.SearchResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_results_csv(out_dir / "results.csv", result.records)
    engine.write_summary_json(out_dir / "summary.json", cfg, result)
    engine.write_stats_csv(out_dir / "stats.csv", result.stats)
    engine.write_front_csv(out_dir / "front.csv", result.front)
    if result.stats.op_histogram is not None:
        engine.write_histogram_csv(out_dir / "ops_histogram.csv", result.stats.op_histogram)
        engine.write_layer_histogram_csv(out_dir / "layer_ops.csv",
                                         result.stats.layer_histogram)
    if result.controller is not None:
        ctl.save_checkpoint(result.controller, out_dir / "checkpoint.npz")


def cmd_run(args: argparse.Namespace) -> int:
    """``search`` and ``random``: one run of the configured length, then its files."""
    cfg, evaluator, out_dir = _build_run_config(args)
    state = None
    if cfg.resume_path is not None:  # search only: _build_run_config refuses it for random
        try:
            state = engine.load_resume(cfg)
        except ValueError as exc:
            raise ConfigError(f"{cfg.resume_path}: {exc}") from exc
    started = time.perf_counter()
    if args.command == "search":
        result = engine.run_search(cfg, controller=state, evaluator=evaluator)
    else:
        result = engine.run_random(cfg, evaluator=evaluator)
    elapsed = time.perf_counter() - started
    _write_run_artifacts(out_dir, cfg, result)
    best = result.best
    print(f"best iteration {best.iteration}: {arch_to_compact(best.arch)} "
          f"reward={best.reward!r} accuracy={best.result.accuracy!r}")
    print(f"{cfg.n_iterations} iterations in {elapsed:.2f}s (informational)")
    if result.controller is not None:
        print(f"wrote {out_dir}/results.csv, summary.json, stats.csv, front.csv, checkpoint.npz")
    return 0


def cmd_mac(args: argparse.Namespace) -> int:
    path = Path(args.arch)
    if not path.is_file():
        raise ConfigError(f"architecture file not found: {args.arch}")
    try:
        arch = arch_from_text(path.read_text())
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{args.arch}: {exc}") from exc
    if not isinstance(arch, MacroArch):
        raise ConfigError("MAC reports are defined for macro architectures only")
    try:
        report = macro_mac(arch, channels=args.channels, input_size=args.input_size)
    except ValueError as exc:
        raise ConfigError(f"--channels {args.channels}, --input-size {args.input_size}: "
                          f"{exc}") from exc
    if args.json:
        print(json.dumps({
            "total_mac": report.total_mac,
            "per_layer": [{"layer": layer + 1, "mac": mac}
                          for layer, mac in report.per_layer],
            "normalized": report.normalized,
        }, indent=2, sort_keys=True))
    else:
        for layer, mac in report.per_layer:
            print(f"layer {layer + 1:2d} {arch.ops[layer]:<12s} {mac:>12d}")
        print(f"total      {report.total_mac:>12d}")
        print(f"normalized {report.normalized!r}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    try:
        rows = engine.read_results_csv(args.results)
        front = engine.rebuild_front(rows, build_space(args.space))
    except FileNotFoundError as exc:
        raise ConfigError(f"results file not found: {args.results}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    engine.write_front_csv(args.out, front)
    print(f"front of {len(rows)} rows has {len(front)} points; wrote {args.out}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    fields = {SETTINGS[key].field: value for key, value in _given(args).items()}
    out_dir = Path(fields.pop("out_dir", "samples"))
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    path = Path(args.checkpoint)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    try:
        state = ctl.load_checkpoint(path)
    except ValueError as exc:
        raise ConfigError(f"{args.checkpoint}: {exc}") from exc
    try:
        evaluator = engine.make_evaluator(state.space.kind, **fields)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"evaluator: {exc}") from exc
    samples = engine.sample_trained_controller(state, evaluator, n=args.n)

    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_samples_csv(out_dir / "samples.csv", samples)
    if state.space.kind == "macro":
        ops_hist, layer_hist = engine.histogram_of(a for a, _ in samples)
        engine.write_histogram_csv(out_dir / "ops_histogram.csv", ops_hist)
        engine.write_layer_histogram_csv(out_dir / "layer_ops.csv", layer_hist)
    print(f"sampled {len(samples)} architectures from {args.checkpoint} into {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archsearch",
        description="Multi-objective neural architecture search on pluggable evaluators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p: argparse.ArgumentParser, keys) -> None:
        for key in keys:
            p.add_argument(SETTINGS[key].flag, dest=key, help=SETTINGS[key].help)

    for command, help_line in (("search", "run the policy-gradient search"),
                               ("random", "run the uniform random baseline")):
        p_run = sub.add_parser(command, help=help_line)
        p_run.add_argument("--config", help="flat key=value configuration file")
        add_settings(p_run, SETTINGS)
        p_run.set_defaults(func=cmd_run)

    p_mac = sub.add_parser("mac", help="MAC cost report for a macro architecture file")
    p_mac.add_argument("--arch", required=True, help="architecture file (key=value form)")
    p_mac.add_argument("--channels", type=int, default=DEFAULT_CHANNELS)
    p_mac.add_argument("--input-size", dest="input_size", type=int,
                       default=DEFAULT_INPUT_SIZE)
    p_mac.add_argument("--json", action="store_true", help="machine-readable output")
    p_mac.set_defaults(func=cmd_mac)

    p_pareto = sub.add_parser("pareto", help="extract the front from a results file")
    p_pareto.add_argument("--results", required=True, help="results.csv to read")
    p_pareto.add_argument("--space", required=True, choices=SPACE_KINDS)
    p_pareto.add_argument("--out", default="front.csv", help="front file to write")
    p_pareto.set_defaults(func=cmd_pareto)

    p_sample = sub.add_parser("sample", help="sample architectures from a checkpoint")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, default=1000)
    add_settings(p_sample, SAMPLE_KEYS)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
