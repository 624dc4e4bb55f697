"""Command-line front door.

Subcommands: ``search`` (policy-gradient search), ``random`` (uniform
baseline through the same pipeline), ``mac`` (cost report for a macro
architecture file), ``pareto`` (front extraction from a results file) and
``sample`` (roll architectures out of a saved controller checkpoint).

Configuration is a flat ``key = value`` file; every key has a matching
command-line flag and flags win. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import controller as ctl
from . import engine
from .cost_model import DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE, macro_mac
from .rewards import (DEFAULT_ENERGY_NORM_MAX, DEFAULT_VIOLATION_REWARD, REWARD_KINDS,
                      RewardSpec)
from .search_space import MacroArch, arch_from_text, arch_to_compact, build_space


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 2."""


# config-file key -> command-line flag destination
CONFIG_KEYS = {
    "space": "space",
    "reward.kind": "reward",
    "reward.alpha": "alpha",
    "reward.threshold": "threshold",
    "reward.energy_norm_max": "energy_norm",
    "reward.violation": "violation_reward",
    "evaluator.kind": "evaluator",
    "evaluator.fixture": "fixture",
    "evaluator.surrogate": "surrogate_config",
    "evaluator.fallback": "fallback",
    "controller.hidden": "hidden",
    "controller.baseline": "baseline",
    "adam.lr": "lr",
    "run.iterations": "iterations",
    "run.seed": "seed",
    "run.window": "window",
    "run.batch": "batch",
    "run.resume": "resume",
    "out.dir": "out",
}


def read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}, line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _parse_bool(raw: str, what: str) -> bool:
    lowered = raw.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{what}: expected on/off, got {raw!r}")


def _merged(args: argparse.Namespace) -> dict[str, str]:
    """Config file values with flag overrides applied on top."""
    values = read_config_file(args.config) if args.config else {}
    for key, dest in CONFIG_KEYS.items():
        override = getattr(args, dest, None)
        if override is not None:
            values[key] = str(override)
    return values


def _build_run_config(args: argparse.Namespace) -> tuple[engine.RunConfig, Path]:
    values = _merged(args)

    def need(key: str) -> str:
        if key not in values:
            raise ConfigError(f"missing required setting: {key}")
        return values[key]

    def opt_float(key: str) -> float | None:
        return float(values[key]) if key in values else None

    def opt_int(key: str) -> int | None:
        return int(values[key]) if key in values else None

    kind = need("reward.kind")
    if kind not in REWARD_KINDS:
        raise ConfigError(f"reward.kind must be one of {', '.join(REWARD_KINDS)}")
    try:
        reward = RewardSpec(
            kind=kind,
            alpha=opt_float("reward.alpha"),
            threshold=opt_float("reward.threshold"),
            energy_norm_max=(float(values["reward.energy_norm_max"])
                             if "reward.energy_norm_max" in values
                             else DEFAULT_ENERGY_NORM_MAX),
            violation_reward=(float(values["reward.violation"])
                              if "reward.violation" in values
                              else DEFAULT_VIOLATION_REWARD),
        )
        cfg = engine.RunConfig(
            space_kind=need("space"),
            reward=reward,
            n_iterations=int(need("run.iterations")),
            seed=opt_int("run.seed") if "run.seed" in values else 0,
            evaluator_kind=values.get("evaluator.kind", "surrogate"),
            lookup_path=values.get("evaluator.fixture"),
            surrogate_path=values.get("evaluator.surrogate"),
            lookup_fallback=_parse_bool(values.get("evaluator.fallback", "off"),
                                        "evaluator.fallback"),
            hidden_dim=opt_int("controller.hidden"),
            lr=opt_float("adam.lr"),
            use_baseline=_parse_bool(values.get("controller.baseline", "off"),
                                     "controller.baseline"),
            window=(opt_int("run.window") if "run.window" in values
                    else engine.DEFAULT_WINDOW),
            batch_n=opt_int("run.batch") if "run.batch" in values else 1,
            resume_path=values.get("run.resume"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.resume_path is not None and not Path(cfg.resume_path).is_file():
        raise ConfigError(f"resume checkpoint not found: {cfg.resume_path}")
    return cfg, Path(values.get("out.dir", "out"))


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


def cmd_search(args: argparse.Namespace) -> int:
    cfg, out_dir = _build_run_config(args)
    state = None
    if cfg.resume_path is not None:
        try:
            state = engine.load_resume(cfg)
        except ValueError as exc:
            raise ConfigError(f"{cfg.resume_path}: {exc}") from exc
    started = time.perf_counter()
    result = engine.run_search(cfg, controller=state)
    elapsed = time.perf_counter() - started
    _write_run_artifacts(out_dir, cfg, result)
    best = result.best
    print(f"best iteration {best.iteration}: {arch_to_compact(best.arch)} "
          f"reward={best.reward!r} accuracy={best.result.accuracy!r}")
    print(f"{cfg.n_iterations} iterations in {elapsed:.2f}s (informational)")
    print(f"wrote {out_dir}/results.csv, summary.json, stats.csv, front.csv, checkpoint.npz")
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    cfg, out_dir = _build_run_config(args)
    started = time.perf_counter()
    result = engine.run_random(cfg)
    elapsed = time.perf_counter() - started
    _write_run_artifacts(out_dir, cfg, result)
    best = result.best
    print(f"best iteration {best.iteration}: {arch_to_compact(best.arch)} "
          f"reward={best.reward!r} accuracy={best.result.accuracy!r}")
    print(f"{cfg.n_iterations} iterations in {elapsed:.2f}s (informational)")
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
    report = macro_mac(arch, channels=args.channels, input_size=args.input_size)
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
    except FileNotFoundError as exc:
        raise ConfigError(f"results file not found: {args.results}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        space = build_space(args.space)
        front = engine.rebuild_front(rows, space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    engine.write_front_csv(args.out, front)
    print(f"front of {len(rows)} rows has {len(front)} points; wrote {args.out}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    path = Path(args.checkpoint)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    try:
        state = ctl.load_checkpoint(path)
    except ValueError as exc:
        raise ConfigError(f"{args.checkpoint}: {exc}") from exc
    space = state.space
    try:
        evaluator = engine.make_evaluator(
            space.kind,
            evaluator_kind=args.evaluator or "surrogate",
            seed=args.seed if args.seed is not None else 0,
            lookup_path=args.fixture,
            surrogate_path=args.surrogate_config,
            lookup_fallback=_parse_bool(args.fallback, "fallback") if args.fallback else False,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    samples = engine.sample_trained_controller(state, space, evaluator, n=args.n)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_samples_csv(out_dir / "samples.csv", samples)
    if space.kind == "macro":
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

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--space", choices=("alexnet", "condensenet", "macro"))
        p.add_argument("--reward", choices=REWARD_KINDS, help="reward kind")
        p.add_argument("--alpha", type=float, help="mixed-reward accuracy weight")
        p.add_argument("--threshold", type=float, help="constraint threshold")
        p.add_argument("--energy-norm", dest="energy_norm", type=float,
                       help="energy normalization maximum (joules)")
        p.add_argument("--violation-reward", dest="violation_reward", type=float,
                       help="reward on MAC-constraint violation")
        p.add_argument("--evaluator", choices=("surrogate", "lookup"))
        p.add_argument("--fixture", help="lookup table file (default: shipped table)")
        p.add_argument("--surrogate-config", dest="surrogate_config",
                       help="surrogate constants file (default: shipped)")
        p.add_argument("--fallback", choices=("on", "off"),
                       help="fall back to the surrogate on unknown lookup rows")
        p.add_argument("--hidden", type=int, help="controller hidden units")
        p.add_argument("--baseline", choices=("on", "off"),
                       help="subtract a moving-average reward baseline")
        p.add_argument("--lr", type=float, help="ADAM learning rate")
        p.add_argument("--iterations", type=int, help="search iterations")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--window", type=int, help="satisfaction-rate window size")
        p.add_argument("--batch", type=int, help="samples per policy update")
        p.add_argument("--resume", help="controller checkpoint to continue from")
        p.add_argument("--out", help="output directory (default: out)")

    p_search = sub.add_parser("search", help="run the policy-gradient search")
    add_run_flags(p_search)
    p_search.set_defaults(func=cmd_search)

    p_random = sub.add_parser("random", help="run the uniform random baseline")
    add_run_flags(p_random)
    p_random.set_defaults(func=cmd_random)

    p_mac = sub.add_parser("mac", help="MAC cost report for a macro architecture file")
    p_mac.add_argument("--arch", required=True, help="architecture file (key=value form)")
    p_mac.add_argument("--channels", type=int, default=DEFAULT_CHANNELS)
    p_mac.add_argument("--input-size", dest="input_size", type=int,
                       default=DEFAULT_INPUT_SIZE)
    p_mac.add_argument("--json", action="store_true", help="machine-readable output")
    p_mac.set_defaults(func=cmd_mac)

    p_pareto = sub.add_parser("pareto", help="extract the front from a results file")
    p_pareto.add_argument("--results", required=True, help="results.csv to read")
    p_pareto.add_argument("--space", required=True,
                          choices=("alexnet", "condensenet", "macro"))
    p_pareto.add_argument("--out", default="front.csv", help="front file to write")
    p_pareto.set_defaults(func=cmd_pareto)

    p_sample = sub.add_parser("sample", help="sample architectures from a checkpoint")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, help="evaluator seed")
    p_sample.add_argument("--evaluator", choices=("surrogate", "lookup"))
    p_sample.add_argument("--fixture")
    p_sample.add_argument("--surrogate-config", dest="surrogate_config")
    p_sample.add_argument("--fallback", choices=("on", "off"))
    p_sample.add_argument("--out", default="samples", help="output directory")
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
