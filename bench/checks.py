"""Checks on one run's own output files, through archsearch's public functions.

Search and random runs: results.csv has one row per iteration, the front
rebuilt from it is byte-identical to front.csv, every row's reward is
`compute_reward` of that row's scores, and the windowed satisfaction rates
equal stats.csv. Sample runs: every sampled architecture re-evaluates to the
scores in samples.csv, and the two histogram files match the samples.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from workloads import Workload

# Output files whose bytes are pinned at the default seed. summary.json and
# the checkpoint are left out: they carry config fields and a format version.
DIGEST_FILES = {"search": ("results.csv", "front.csv", "stats.csv"),
                "random": ("results.csv", "front.csv", "stats.csv"),
                "sample": ("samples.csv",)}

REWARD_KEYS = {"reward.kind": ("kind", str), "reward.alpha": ("alpha", float),
               "reward.threshold": ("threshold", float),
               "reward.energy_norm_max": ("energy_norm_max", float),
               "reward.violation": ("violation_reward", float)}


def read_config(path: Path) -> dict[str, str]:
    """The flat `key = value` settings of a config file."""
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def digest(out_dir: Path, command: str) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES[command]:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def check_run(workload: Workload, root: Path, seed: int, out_dir: Path,
              scratch: Path) -> list[str]:
    """Problems found in the outputs of one run; empty when they are correct."""
    values = read_config(root / workload.config)
    if workload.command == "sample":
        return _check_sample(workload, values, seed, out_dir)
    return _check_search(workload, values, out_dir, scratch)


def _check_search(workload: Workload, values: dict[str, str], out_dir: Path,
                  scratch: Path) -> list[str]:
    from archsearch import engine
    from archsearch.rewards import EvaluationResult, RewardSpec, compute_reward
    from archsearch.search_space import build_space

    problems = []
    rows = engine.read_results_csv(out_dir / "results.csv")
    if [r.iteration for r in rows] != list(range(1, workload.iterations + 1)):
        problems.append(f"results.csv holds {len(rows)} rows, not iterations "
                        f"1..{workload.iterations}")

    rebuilt = scratch / "front.rebuilt.csv"
    engine.write_front_csv(rebuilt, engine.rebuild_front(rows, build_space(values["space"])))
    if rebuilt.read_bytes() != (out_dir / "front.csv").read_bytes():
        problems.append("front.csv differs from the front rebuilt from results.csv")

    spec = RewardSpec(**{field: convert(values[key])
                         for key, (field, convert) in REWARD_KEYS.items() if key in values})
    scores = [EvaluationResult(accuracy=r.accuracy, energy_joules=r.energy,
                               peak_power_watts=r.peak_power, mac_normalized=r.mac_normalized)
              for r in rows]
    wrong = [r.iteration for r, ev in zip(rows, scores) if compute_reward(spec, ev) != r.reward]
    if wrong:
        problems.append(f"{len(wrong)} rewards differ from compute_reward, first at "
                        f"iteration {wrong[0]}")

    window = int(values.get("run.window", engine.DEFAULT_WINDOW))
    expected = []
    if spec.is_constraint():
        flags = [spec.satisfies(ev) for ev in scores]
        expected = [sum(flags[s:s + window]) / window
                    for s in range(0, len(flags) - window + 1, window)]
    if engine.read_stats_csv(out_dir / "stats.csv") != expected:
        problems.append("stats.csv windows differ from the satisfaction rates of results.csv")
    return problems


def _check_sample(workload: Workload, values: dict[str, str], seed: int,
                  out_dir: Path) -> list[str]:
    from archsearch import engine

    problems = []
    samples = engine.read_samples_csv(out_dir / "samples.csv")
    if len(samples) != workload.iterations:
        problems.append(f"samples.csv holds {len(samples)} rows, not {workload.iterations}")
    evaluator = engine.make_evaluator(values["space"], seed=seed)
    wrong = sum(evaluator.evaluate(arch) != ev for arch, ev in samples)
    if wrong:
        problems.append(f"{wrong} samples differ from a fresh evaluation")
    ops, layers = engine.histogram_of(arch for arch, _ in samples)
    if engine.read_histogram_csv(out_dir / "ops_histogram.csv") != ops:
        problems.append("ops_histogram.csv differs from the samples")
    if engine.read_layer_histogram_csv(out_dir / "layer_ops.csv") != layers:
        problems.append("layer_ops.csv differs from the samples")
    return problems
