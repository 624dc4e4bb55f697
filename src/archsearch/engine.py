"""The outer search loop and its reporting.

Each iteration samples an architecture from the controller, scores it with
the configured evaluator, turns the score into a reward, applies one
policy-gradient update, and records everything. A uniform random search
shares the same pipeline minus the updates, as the comparison baseline.
Runs are fully deterministic functions of their configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import controller as ctl
from .evaluators import (Evaluator, LookupEvaluator, UnknownArchitectureError,
                         fixture_lookup_path, load_lookup, make_surrogate)
from .pareto import ParetoFront, ParetoPoint, front_of
from .rewards import EvaluationResult, RewardSpec, compute_reward
from .search_space import (ActionSequence, Architecture, MACRO_OPS, MacroArch,
                           SearchSpace, arch_from_compact, arch_to_compact,
                           arch_to_dict, build_space, decode)

DEFAULT_WINDOW = 50

RESULTS_HEADER = ("iteration", "actions", "accuracy", "energy", "peak_power",
                  "mac_normalized", "reward", "grad_norm")


@dataclass(frozen=True)
class RunConfig:
    space_kind: str
    reward: RewardSpec
    n_iterations: int
    seed: int = 0
    evaluator_kind: str = "surrogate"
    lookup_path: str | None = None      # None = shipped table
    surrogate_path: str | None = None   # None = shipped constants
    lookup_fallback: bool = False       # unknown table rows fall back to surrogate
    hidden_dim: int | None = None
    lr: float | None = None
    use_baseline: bool = False
    clip_norm: float | None = ctl.DEFAULT_CLIP_NORM
    window: int = DEFAULT_WINDOW
    batch_n: int = 1  # samples per update; 1 updates after every network
    resume_path: str | None = None  # controller checkpoint to continue from

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.lr is not None and self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError("controller.hidden must be >= 1")
        if self.evaluator_kind not in ("surrogate", "lookup"):
            raise ValueError(f"unknown evaluator kind: {self.evaluator_kind!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.batch_n < 1:
            raise ValueError("batch_n must be >= 1")

    def to_dict(self) -> dict:
        out = {
            "space": self.space_kind,
            "reward": {"kind": self.reward.kind, "alpha": self.reward.alpha,
                       "threshold": self.reward.threshold,
                       "energy_norm_max": self.reward.energy_norm_max,
                       "violation_reward": self.reward.violation_reward},
            "evaluator": {"kind": self.evaluator_kind, "lookup_path": self.lookup_path,
                          "surrogate_path": self.surrogate_path,
                          "lookup_fallback": self.lookup_fallback},
            "n_iterations": self.n_iterations,
            "seed": self.seed,
            "hidden_dim": self.hidden_dim,
            "lr": self.lr,
            "use_baseline": self.use_baseline,
            "clip_norm": self.clip_norm,
            "window": self.window,
            "batch_n": self.batch_n,
            "resume_path": self.resume_path,
        }
        return out


@dataclass
class IterationRecord:
    iteration: int  # 1-based
    seq: ActionSequence
    arch: Architecture
    result: EvaluationResult
    reward: float
    grad_norm: float  # norm of the update this sample fed (shared across a batch)
    best_reward: float  # running maximum up to and including this iteration


@dataclass
class SearchStats:
    """Constraint-satisfaction windows plus macro operation histograms."""

    window_size: int
    windows: list[float] = field(default_factory=list)
    overall_rate: float | None = None
    op_histogram: dict[str, int] | None = None
    layer_histogram: list[list[int]] | None = None  # 12 layers x 6 ops


@dataclass
class SearchResult:
    best: IterationRecord
    records: list[IterationRecord]
    front: ParetoFront
    stats: SearchStats
    controller: ctl.ControllerState | None  # None for random search


def make_evaluator(space_kind: str, evaluator_kind: str = "surrogate", seed: int = 0,
                   lookup_path: str | Path | None = None,
                   surrogate_path: str | Path | None = None,
                   lookup_fallback: bool = False) -> Evaluator:
    if evaluator_kind == "surrogate":
        return make_surrogate(space_kind, seed=seed, config_path=surrogate_path)
    if evaluator_kind != "lookup":
        raise ValueError(f"unknown evaluator kind: {evaluator_kind!r}")
    table = load_lookup(lookup_path or fixture_lookup_path())
    fallback = None
    if lookup_fallback:
        fallback = make_surrogate(space_kind, seed=seed, config_path=surrogate_path)
    return LookupEvaluator(table, fallback=fallback)


def build_evaluator(cfg: RunConfig) -> Evaluator:
    return make_evaluator(cfg.space_kind, cfg.evaluator_kind, seed=cfg.seed,
                          lookup_path=cfg.lookup_path, surrogate_path=cfg.surrogate_path,
                          lookup_fallback=cfg.lookup_fallback)


def _pareto_point(record: IterationRecord) -> ParetoPoint:
    ev = record.result
    if ev.energy_joules is None:
        raise ValueError("evaluator produced no energy; cannot track the front")
    return ParetoPoint(accuracy=ev.accuracy, energy=ev.energy_joules,
                       arch=record.arch, iteration=record.iteration)


def load_resume(cfg: RunConfig) -> ctl.ControllerState:
    """The controller saved at ``cfg.resume_path``, checked against the run's space.

    Raises ValueError on a malformed checkpoint or one of another space.
    """
    state = ctl.load_checkpoint(cfg.resume_path)
    if state.space.kind != cfg.space_kind:
        raise ValueError(
            f"checkpoint holds a {state.space.kind} controller, "
            f"run is configured for {cfg.space_kind}")
    return state


def _run(cfg: RunConfig, sample_random: bool,
         state: ctl.ControllerState | None = None) -> SearchResult:
    space = build_space(cfg.space_kind)
    evaluator = build_evaluator(cfg)
    rng = None
    if sample_random:
        rng = np.random.default_rng(cfg.seed)
    elif state is None and cfg.resume_path is not None:
        state = load_resume(cfg)
    elif state is None:
        state = ctl.create_controller(space, seed=cfg.seed, hidden_dim=cfg.hidden_dim,
                                      lr=cfg.lr, clip_norm=cfg.clip_norm,
                                      use_baseline=cfg.use_baseline)

    records: list[IterationRecord] = []
    front = ParetoFront()
    best: IterationRecord | None = None
    pending: list[tuple[ctl.Rollout, float, IterationRecord]] = []
    for i in range(1, cfg.n_iterations + 1):
        if sample_random:
            actions = tuple(int(rng.integers(len(slot.candidates)))
                            for slot in space.slots)
            log_probs = tuple(-float(np.log(len(slot.candidates)))
                              for slot in space.slots)
            seq = ActionSequence(actions=actions, log_probs=log_probs)
            rollout = None
        else:
            seq, rollout = ctl.sample_sequence(state, space)
        arch = decode(space, seq)
        try:
            result = evaluator.evaluate(arch)
        except UnknownArchitectureError as exc:
            msg = exc.args[0] if exc.args else str(exc)
            raise UnknownArchitectureError(f"iteration {i}: {msg}") from exc
        reward = compute_reward(cfg.reward, result)

        best_reward = reward if best is None else max(best.reward, reward)
        record = IterationRecord(iteration=i, seq=seq, arch=arch, result=result,
                                 reward=reward, grad_norm=0.0,
                                 best_reward=best_reward)
        records.append(record)
        front.insert(_pareto_point(record))
        if best is None or record.reward > best.reward:  # strict: first max wins
            best = record

        if not sample_random:
            pending.append((rollout, reward, record))
            if len(pending) == cfg.batch_n or i == cfg.n_iterations:
                norm = ctl.reinforce_update_batch(
                    state, [p[0] for p in pending], [p[1] for p in pending])
                for _, _, rec in pending:
                    rec.grad_norm = norm
                pending = []

    stats = compute_stats(records, cfg.reward, window=cfg.window)
    return SearchResult(best=best, records=records, front=front, stats=stats,
                        controller=state)


def run_search(cfg: RunConfig, controller: ctl.ControllerState | None = None
               ) -> SearchResult:
    """Policy-gradient search over the configured space (one update per sample).

    ``controller`` is the state to continue from, as `load_resume` returns
    it; without it the run loads ``cfg.resume_path`` if set, else starts a
    fresh controller.
    """
    return _run(cfg, sample_random=False, state=controller)


def run_random(cfg: RunConfig) -> SearchResult:
    """Uniform random search through the identical evaluation pipeline."""
    return _run(cfg, sample_random=True)


def compute_stats(records: list[IterationRecord], spec: RewardSpec,
                  window: int = DEFAULT_WINDOW) -> SearchStats:
    """Satisfaction rate per full window, plus op histograms for macro runs.

    Mixed rewards have no constraint, so their window list stays empty.
    """
    if not records:
        raise ValueError("no records to compute statistics over")
    stats = SearchStats(window_size=window)
    if spec.is_constraint():
        flags = [spec.satisfies(r.result) for r in records]
        stats.overall_rate = sum(flags) / len(flags)
        for start in range(0, len(flags) - window + 1, window):
            chunk = flags[start:start + window]
            stats.windows.append(sum(chunk) / window)

    if isinstance(records[0].arch, MacroArch):
        stats.op_histogram, stats.layer_histogram = histogram_of(
            r.arch for r in records)
    return stats


def sample_trained_controller(state: ctl.ControllerState, space: SearchSpace,
                              evaluator: Evaluator, n: int = 1000
                              ) -> list[tuple[Architecture, EvaluationResult]]:
    """n rollouts without updates, for inspecting what a controller learned."""
    out = []
    for _ in range(n):
        seq, _ = ctl.sample_sequence(state, space)
        arch = decode(space, seq)
        out.append((arch, evaluator.evaluate(arch)))
    return out


def histogram_of(archs: Iterable[MacroArch]) -> tuple[dict[str, int], list[list[int]]]:
    """Operation counts overall and per layer for a batch of macro archs."""
    ops_count = {op: 0 for op in MACRO_OPS}
    layer_count = [[0] * len(MACRO_OPS) for _ in range(12)]
    for arch in archs:
        for layer, op in enumerate(arch.ops):
            ops_count[op] += 1
            layer_count[layer][MACRO_OPS.index(op)] += 1
    return ops_count, layer_count


# ---------------------------------------------------------------------------
# File emission. Every emitted file is re-parseable by the readers below;
# floats are written with repr() so identical runs give identical bytes.


def fmt_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _parse_opt(token: str) -> float | None:
    return None if token == "" else float(token)


def serialize_actions(seq: ActionSequence) -> str:
    return ":".join(str(a) for a in seq.actions)


def parse_actions(token: str) -> tuple[int, ...]:
    # empty is allowed: hand-written analysis rows may carry scores only
    if not token:
        return ()
    return tuple(int(t) for t in token.split(":"))


def write_results_csv(path: str | Path, records: list[IterationRecord]) -> None:
    lines = [",".join(RESULTS_HEADER)]
    for r in records:
        ev = r.result
        lines.append(",".join([
            str(r.iteration),
            serialize_actions(r.seq),
            fmt_float(ev.accuracy),
            fmt_float(ev.energy_joules),
            fmt_float(ev.peak_power_watts),
            fmt_float(ev.mac_normalized),
            fmt_float(r.reward),
            fmt_float(r.grad_norm),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ResultRow:
    iteration: int
    actions: tuple[int, ...]
    accuracy: float
    energy: float | None
    peak_power: float | None
    mac_normalized: float | None
    reward: float
    grad_norm: float


def read_results_csv(path: str | Path) -> list[ResultRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != RESULTS_HEADER:
        raise ValueError(f"{path}: not a results file (bad header)")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(RESULTS_HEADER):
            raise ValueError(f"{path}, line {lineno}: expected {len(RESULTS_HEADER)} fields")
        rows.append(ResultRow(
            iteration=int(parts[0]),
            actions=parse_actions(parts[1]),
            accuracy=float(parts[2]),
            energy=_parse_opt(parts[3]),
            peak_power=_parse_opt(parts[4]),
            mac_normalized=_parse_opt(parts[5]),
            reward=float(parts[6]),
            grad_norm=float(parts[7]),
        ))
    return rows


def write_front_csv(path: str | Path, front: ParetoFront) -> None:
    lines = ["energy,accuracy,arch"]
    for p in front.points:
        token = arch_to_compact(p.arch) if p.arch is not None else ""
        lines.append(f"{fmt_float(p.energy)},{fmt_float(p.accuracy)},{token}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_front_csv(path: str | Path) -> ParetoFront:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "energy,accuracy,arch":
        raise ValueError(f"{path}: not a front file (bad header)")
    points = []
    for raw in lines[1:]:
        if not raw.strip():
            continue
        energy, accuracy, token = raw.split(",")
        arch = arch_from_compact(token) if token else None
        points.append(ParetoPoint(accuracy=float(accuracy), energy=float(energy),
                                  arch=arch))
    front = ParetoFront()
    front.points = points
    return front


def write_stats_csv(path: str | Path, stats: SearchStats) -> None:
    lines = ["window,start_iteration,end_iteration,satisfaction_rate"]
    for w, rate in enumerate(stats.windows):
        start = w * stats.window_size + 1
        lines.append(f"{w},{start},{start + stats.window_size - 1},{fmt_float(rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_stats_csv(path: str | Path) -> list[float]:
    """Window satisfaction rates back out of a stats file."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "window,start_iteration,end_iteration,satisfaction_rate":
        raise ValueError(f"{path}: not a stats file (bad header)")
    return [float(raw.split(",")[3]) for raw in lines[1:] if raw.strip()]


def write_histogram_csv(path: str | Path, op_histogram: dict[str, int]) -> None:
    lines = ["op,count"]
    lines += [f"{op},{op_histogram[op]}" for op in MACRO_OPS]
    Path(path).write_text("\n".join(lines) + "\n")


def read_histogram_csv(path: str | Path) -> dict[str, int]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "op,count":
        raise ValueError(f"{path}: not a histogram file (bad header)")
    out: dict[str, int] = {}
    for raw in lines[1:]:
        if raw.strip():
            op, count = raw.split(",")
            out[op] = int(count)
    return out


def write_layer_histogram_csv(path: str | Path, layer_histogram: list[list[int]]) -> None:
    lines = ["layer," + ",".join(MACRO_OPS)]
    for layer, counts in enumerate(layer_histogram, start=1):
        lines.append(f"{layer}," + ",".join(str(c) for c in counts))
    Path(path).write_text("\n".join(lines) + "\n")


def read_layer_histogram_csv(path: str | Path) -> list[list[int]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "layer," + ",".join(MACRO_OPS):
        raise ValueError(f"{path}: not a layer histogram file (bad header)")
    return [[int(tok) for tok in raw.split(",")[1:]]
            for raw in lines[1:] if raw.strip()]


SAMPLES_HEADER = ("arch", "accuracy", "energy", "peak_power", "mac_normalized")


def write_samples_csv(path: str | Path,
                      samples: list[tuple[Architecture, EvaluationResult]]) -> None:
    lines = [",".join(SAMPLES_HEADER)]
    for arch, ev in samples:
        lines.append(",".join([
            arch_to_compact(arch),
            fmt_float(ev.accuracy),
            fmt_float(ev.energy_joules),
            fmt_float(ev.peak_power_watts),
            fmt_float(ev.mac_normalized),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_samples_csv(path: str | Path) -> list[tuple[Architecture, EvaluationResult]]:
    lines = Path(path).read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != SAMPLES_HEADER:
        raise ValueError(f"{path}: not a samples file (bad header)")
    out = []
    for raw in lines[1:]:
        if not raw.strip():
            continue
        token, acc, energy, power, mac = raw.split(",")
        out.append((arch_from_compact(token),
                    EvaluationResult(accuracy=float(acc),
                                     energy_joules=_parse_opt(energy),
                                     peak_power_watts=_parse_opt(power),
                                     mac_normalized=_parse_opt(mac))))
    return out


def summary_dict(cfg: RunConfig, result: SearchResult) -> dict:
    best = result.best
    return {
        "config": cfg.to_dict(),
        "best": {
            "iteration": best.iteration,
            "actions": list(best.seq.actions),
            "arch": arch_to_dict(best.arch),
            "accuracy": best.result.accuracy,
            "energy": best.result.energy_joules,
            "peak_power": best.result.peak_power_watts,
            "mac_normalized": best.result.mac_normalized,
            "reward": best.reward,
        },
        "front": [
            {"accuracy": p.accuracy, "energy": p.energy, "iteration": p.iteration,
             "arch": arch_to_dict(p.arch) if p.arch is not None else None}
            for p in result.front.points
        ],
        "stats": {
            "window_size": result.stats.window_size,
            "windows": result.stats.windows,
            "overall_rate": result.stats.overall_rate,
            "op_histogram": result.stats.op_histogram,
            "layer_histogram": result.stats.layer_histogram,
        },
    }


def write_summary_json(path: str | Path, cfg: RunConfig, result: SearchResult) -> None:
    Path(path).write_text(json.dumps(summary_dict(cfg, result), indent=2,
                                     sort_keys=True) + "\n")


def rebuild_front(rows: list[ResultRow], space: SearchSpace) -> ParetoFront:
    """Front over a results file's rows, dropping rows without an energy.

    Rows without actions still compete on (accuracy, energy); they just
    carry no architecture annotation.
    """
    points = []
    for row in rows:
        if row.energy is None:
            continue
        arch = None
        if row.actions:
            arch = decode(space, ActionSequence(actions=row.actions))
        points.append(ParetoPoint(accuracy=row.accuracy, energy=row.energy,
                                  arch=arch, iteration=row.iteration))
    return front_of(points)
