"""The outer search loop and its reporting.

Each iteration samples an architecture from the controller, scores it with
the configured evaluator, turns the score into a reward and records it; each
batch of samples feeds one policy-gradient update. Uniform random search runs
the same loop with no updates, as the comparison baseline.
Runs are fully deterministic functions of their configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import controller as ctl
from . import textio
from .evaluators import (Evaluator, LookupEvaluator, fixture_lookup_path, load_lookup,
                         make_surrogate)
from .pareto import ParetoFront, ParetoPoint, front_of
from .rewards import EvaluationResult, RewardSpec, compute_reward
from .search_space import (Architecture, MACRO_LAYERS, MACRO_OPS, SPACE_KINDS, MacroArch,
                           SearchSpace, arch_from_compact, arch_to_compact, arch_to_dict,
                           build_space, decode)

DEFAULT_WINDOW = 50
RANDOM_BLOCK = 256  # iterations of actions `run_random` draws per generator call
RANDOM_RESUME_ERROR = "run.resume is for search only: random search has no controller"

RESULTS_HEADER = ("iteration", "actions", "accuracy", "energy", "peak_power",
                  "mac_normalized", "reward", "grad_norm")
FRONT_HEADER = ("energy", "accuracy", "arch")
STATS_HEADER = ("window", "start_iteration", "end_iteration", "satisfaction_rate")
HISTOGRAM_HEADER = ("op", "count")
LAYER_HISTOGRAM_HEADER = ("layer",) + MACRO_OPS
_OP_COLUMN = {op: column for column, op in enumerate(MACRO_OPS)}
SAMPLES_HEADER = ("arch", "accuracy", "energy", "peak_power", "mac_normalized")


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
    window: int = DEFAULT_WINDOW
    batch_n: int = 1  # samples per update; 1 updates after every network
    resume_path: str | None = None  # controller checkpoint to continue from

    def __post_init__(self) -> None:
        if self.space_kind not in SPACE_KINDS:
            raise ValueError(f"unknown space {self.space_kind!r}: expected one of "
                             f"{', '.join(SPACE_KINDS)}")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"run.seed must be >= 0, got {self.seed}")
        # nan <= 0 is False: a nan rate would turn every parameter into nan
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError("controller.hidden must be >= 1")
        if self.evaluator_kind not in ("surrogate", "lookup"):
            raise ValueError(f"unknown evaluator kind: {self.evaluator_kind!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.batch_n < 1:
            raise ValueError("batch_n must be >= 1")
        if self.reward.kind == "mac_constraint" and self.space_kind != "macro":
            raise ValueError(f"mac_constraint needs the macro space, not {self.space_kind}: "
                             "only macro architectures have a MAC count")
        if self.reward.kind == "power_constraint" and self.evaluator_kind != "surrogate":
            raise ValueError("power_constraint needs the surrogate evaluator: "
                             "lookup rows carry no peak power")

    def to_dict(self) -> dict:
        """The fields as summary.json records them, with the clip norm of every
        new controller."""
        config = asdict(self)
        config["space"] = config.pop("space_kind")
        config["evaluator"] = {name.removeprefix("evaluator_"): config.pop(name) for name in
                               ("evaluator_kind", "lookup_path", "surrogate_path",
                                "lookup_fallback")}
        config["clip_norm"] = ctl.DEFAULT_CLIP_NORM
        return config


@dataclass
class IterationRecord:
    iteration: int  # 1-based
    actions: tuple[int, ...]
    arch: Architecture
    result: EvaluationResult
    reward: float
    grad_norm: float  # norm of the update this sample fed (shared across a batch)


@dataclass
class SearchStats:
    """Constraint-satisfaction windows plus macro operation histograms."""

    window_size: int
    windows: list[float] = field(default_factory=list)
    overall_rate: float | None = None
    op_histogram: dict[str, int] | None = None
    layer_histogram: list[list[int]] | None = None  # MACRO_LAYERS rows of op counts


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
    """The evaluator of a run; refuses a setting it would not read and, with no
    fallback, a table without a row for each architecture of the space."""
    if evaluator_kind == "surrogate":
        if lookup_path is not None or lookup_fallback:
            raise ValueError("evaluator.fixture and evaluator.fallback are for the lookup "
                             "evaluator: the surrogate reads no table")
        return make_surrogate(space_kind, seed=seed, config_path=surrogate_path)
    if evaluator_kind != "lookup":
        raise ValueError(f"unknown evaluator kind: {evaluator_kind!r}")
    if space_kind != "condensenet":
        raise ValueError(f"the lookup evaluator needs the condensenet space, not {space_kind}: "
                         "its table holds condensenet architectures")
    if surrogate_path is not None and not lookup_fallback:
        raise ValueError("evaluator.surrogate is read by the lookup evaluator only with "
                         "evaluator.fallback = on")
    path = fixture_lookup_path() if lookup_path is None else Path(lookup_path)
    rows, space = load_lookup(path), build_space(space_kind)
    # the rows are distinct, so they cover the space when as many lie in it
    inside = sum(all(v in slot.candidates for v, slot in zip(a.stages + a.growths, space.slots))
                 for a in rows)
    if not lookup_fallback and inside < space.size():  # a run would stop at the first miss
        raise ValueError(f"{path} holds {len(rows)} rows, {inside} of the {space.size()} "
                         f"{space_kind} architectures: evaluator.fallback = off needs them all")
    fallback = None
    if lookup_fallback:
        fallback = make_surrogate(space_kind, seed=seed, config_path=surrogate_path)
    return LookupEvaluator(rows, fallback=fallback, source=str(path))


def build_evaluator(cfg: RunConfig) -> Evaluator:
    return make_evaluator(cfg.space_kind, cfg.evaluator_kind, seed=cfg.seed,
                          lookup_path=cfg.lookup_path, surrogate_path=cfg.surrogate_path,
                          lookup_fallback=cfg.lookup_fallback)


def _pareto_point(record: IterationRecord) -> ParetoPoint:
    return ParetoPoint(accuracy=record.result.accuracy, energy=record.result.energy_joules,
                       arch=record.arch, iteration=record.iteration)


def _require_space(state: ctl.ControllerState, cfg: RunConfig) -> ctl.ControllerState:
    if state.space.kind != cfg.space_kind:
        raise ValueError(f"the {state.space.kind} controller does not fit a run "
                         f"configured for {cfg.space_kind}")
    return state


def load_resume(cfg: RunConfig) -> ctl.ControllerState:
    """The controller saved at ``cfg.resume_path``, checked against the run's space.

    Raises ValueError on a malformed checkpoint or one of another space.
    """
    return _require_space(ctl.load_checkpoint(cfg.resume_path), cfg)


def _run(cfg: RunConfig, sample: Callable[[], tuple[tuple[int, ...], ctl.Rollout | None]],
         update: Callable[[list, list[float]], float],
         controller: ctl.ControllerState | None, evaluator: Evaluator | None) -> SearchResult:
    """``sample()`` gives actions and their rollout; after every ``cfg.batch_n``
    samples and the last, ``update(rollouts, rewards)`` gives their grad_norm."""
    space = build_space(cfg.space_kind)
    if evaluator is None:
        evaluator = build_evaluator(cfg)
    records: list[IterationRecord] = []
    front = ParetoFront()
    best: IterationRecord | None = None
    pending: list[tuple[ctl.Rollout | None, float, IterationRecord]] = []
    for i in range(1, cfg.n_iterations + 1):
        actions, rollout = sample()
        arch = decode(space, actions)
        result = evaluator.evaluate(arch)
        reward = compute_reward(cfg.reward, result)

        record = IterationRecord(iteration=i, actions=actions, arch=arch, result=result,
                                 reward=reward, grad_norm=0.0)
        records.append(record)
        front.insert(_pareto_point(record))
        if best is None or record.reward > best.reward:  # strict: first max wins
            best = record

        pending.append((rollout, reward, record))
        if len(pending) == cfg.batch_n or i == cfg.n_iterations:
            norm = update([p[0] for p in pending], [p[1] for p in pending])
            for _, _, rec in pending:
                rec.grad_norm = norm
            pending = []

    stats = compute_stats(records, cfg.reward, window=cfg.window)
    return SearchResult(best=best, records=records, front=front, stats=stats,
                        controller=controller)


def run_search(cfg: RunConfig, controller: ctl.ControllerState | None = None,
               evaluator: Evaluator | None = None) -> SearchResult:
    """Policy-gradient search over the configured space, one update per batch.

    ``controller`` is the state to continue from, as `load_resume` returns
    it; without it the run loads ``cfg.resume_path`` if set, else starts a
    fresh controller. ``evaluator`` defaults to `build_evaluator(cfg)`.
    A run whose last update leaves parameters that overflow the forward pass
    raises FloatingPointError, as would the check of a next update.
    """
    if controller is None and cfg.resume_path is not None:
        controller = load_resume(cfg)
    elif controller is None:
        controller = ctl.create_controller(build_space(cfg.space_kind), seed=cfg.seed,
                                           hidden_dim=cfg.hidden_dim, lr=cfg.lr,
                                           use_baseline=cfg.use_baseline)
    else:
        _require_space(controller, cfg)
    # looked up at call time, so wrappers installed on the controller module apply
    result = _run(cfg, lambda: ctl.sample_sequence(controller),
                  lambda *batch: ctl.reinforce_update_batch(controller, *batch),
                  controller, evaluator)
    # each update checks only its gradient, so the last one's step is checked
    # here: as |h| <= 1 and the input is a column of w, the sum of |parameters|
    # bounds every gate pre-activation and logit of the forward pass
    with np.errstate(over="ignore"):
        bound = np.abs(controller.params.flat).sum()
    if not math.isfinite(bound):
        raise FloatingPointError(f"update {controller.revision} diverged: the parameters "
                                 "overflow the forward pass; "
                                 f"adam.lr = {controller.adam.lr} may be too large")
    return result


def run_random(cfg: RunConfig, evaluator: Evaluator | None = None) -> SearchResult:
    """Uniform random search through the same loop, no updates; refuses ``resume_path``."""
    if cfg.resume_path is not None:
        raise ValueError(RANDOM_RESUME_ERROR)
    rng = np.random.default_rng(cfg.seed)
    arities = np.asarray(build_space(cfg.space_kind).arities)

    def draws():
        # one draw per slot, in slot order, row after row: the stream of one
        # rng.integers(arities) call per architecture
        for start in range(0, cfg.n_iterations, RANDOM_BLOCK):
            block = min(RANDOM_BLOCK, cfg.n_iterations - start)
            yield from map(tuple, rng.integers(
                np.broadcast_to(arities, (block, arities.size))).tolist())

    actions = draws()
    return _run(cfg, lambda: (next(actions), None),
                lambda rollouts, rewards: 0.0, None, evaluator)


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


def sample_trained_controller(state: ctl.ControllerState, evaluator: Evaluator,
                              n: int = 1000) -> list[tuple[Architecture, EvaluationResult]]:
    """n rollouts without updates, for inspecting what a controller learned.

    A rollout whose probabilities are not all finite raises FloatingPointError:
    its actions would be picked from nan, not from the controller's policy.
    """
    out = []
    for k in range(n):
        actions, rollout = ctl.sample_sequence(state)
        if not np.isfinite(rollout.probs).all():
            raise FloatingPointError(
                f"sample {k + 1}: probabilities are not finite; the checkpoint's "
                f"parameters overflow the forward pass")
        arch = decode(state.space, actions)
        out.append((arch, evaluator.evaluate(arch)))
    return out


def histogram_of(archs: Iterable[MacroArch]) -> tuple[dict[str, int], list[list[int]]]:
    """Operation counts overall and per layer for a batch of macro archs."""
    ops_count = {op: 0 for op in MACRO_OPS}
    layer_count = [[0] * len(MACRO_OPS) for _ in range(MACRO_LAYERS)]
    for arch in archs:
        for layer, op in enumerate(arch.ops):
            ops_count[op] += 1
            layer_count[layer][_OP_COLUMN[op]] += 1
    return ops_count, layer_count


# ---------------------------------------------------------------------------
# File emission. Every emitted file is re-parseable by the readers below;
# floats are written with repr() so identical runs give identical bytes.


def fmt_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _parse_opt(token: str) -> float | None:
    return None if token == "" else float(token)


def _score_fields(ev: EvaluationResult) -> list[str]:
    return [fmt_float(ev.accuracy), fmt_float(ev.energy_joules),
            fmt_float(ev.peak_power_watts), fmt_float(ev.mac_normalized)]


def write_results_csv(path: str | Path, records: list[IterationRecord]) -> None:
    textio.write_table(path, RESULTS_HEADER, (
        [str(r.iteration), ("%d:" * len(r.actions) % r.actions)[:-1],
         *_score_fields(r.result), fmt_float(r.reward), fmt_float(r.grad_norm)]
        for r in records))


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


def _result_row(iteration: str, actions: str, accuracy: str, energy: str, peak_power: str,
                mac_normalized: str, reward: str, grad_norm: str) -> ResultRow:
    # empty actions are allowed: hand-written analysis rows may carry scores only
    joules = _parse_opt(energy)
    if joules is not None and not (math.isfinite(joules) and joules >= 0):
        raise ValueError(f"energy must be finite and >= 0, got {energy}")
    return ResultRow(int(iteration), tuple(int(a) for a in actions.split(":") if actions),
                     float(accuracy), joules, _parse_opt(peak_power),
                     _parse_opt(mac_normalized), float(reward), float(grad_norm))


def read_results_csv(path: str | Path) -> list[ResultRow]:
    return textio.read_table(path, RESULTS_HEADER, _result_row)


def write_front_csv(path: str | Path, front: ParetoFront) -> None:
    textio.write_table(path, FRONT_HEADER, (
        (fmt_float(p.energy), fmt_float(p.accuracy),
         arch_to_compact(p.arch) if p.arch is not None else "")
        for p in front.points))


def write_stats_csv(path: str | Path, stats: SearchStats) -> None:
    size = stats.window_size
    textio.write_table(path, STATS_HEADER, (
        (str(w), str(w * size + 1), str(w * size + size), fmt_float(rate))
        for w, rate in enumerate(stats.windows)))


def _window_rate(window: str, start: str, end: str, rate: str) -> float:
    if not window.isdigit() or not start.isdigit() or not end.isdigit():
        raise ValueError(f"window bounds must be integers, got {window}, {start}, {end}")
    return float(rate)


def read_stats_csv(path: str | Path) -> list[float]:
    """Window satisfaction rates back out of a stats file."""
    return textio.read_table(path, STATS_HEADER, _window_rate)


def write_histogram_csv(path: str | Path, op_histogram: dict[str, int]) -> None:
    textio.write_table(path, HISTOGRAM_HEADER,
                       ((op, str(op_histogram[op])) for op in MACRO_OPS))


def _op_count(op: str, count: str) -> tuple[str, int]:
    if op not in MACRO_OPS:
        raise ValueError(f"unknown macro op {op!r}")
    return op, int(count)


def read_histogram_csv(path: str | Path) -> dict[str, int]:
    return dict(textio.read_table(path, HISTOGRAM_HEADER, _op_count))


def write_layer_histogram_csv(path: str | Path, layer_histogram: list[list[int]]) -> None:
    textio.write_table(path, LAYER_HISTOGRAM_HEADER, (
        [str(layer)] + [str(c) for c in counts]
        for layer, counts in enumerate(layer_histogram, start=1)))


def read_layer_histogram_csv(path: str | Path) -> list[list[int]]:
    """Per-layer op counts; the layer number column must be an integer too."""
    return [counts[1:] for counts in textio.read_table(
        path, LAYER_HISTOGRAM_HEADER, lambda *fields: [int(f) for f in fields])]


def write_samples_csv(path: str | Path,
                      samples: list[tuple[Architecture, EvaluationResult]]) -> None:
    textio.write_table(path, SAMPLES_HEADER,
                       ([arch_to_compact(arch), *_score_fields(ev)] for arch, ev in samples))


def _sample(arch: str, accuracy: str, energy: str, peak_power: str,
            mac_normalized: str) -> tuple[Architecture, EvaluationResult]:
    return arch_from_compact(arch), EvaluationResult(
        accuracy=float(accuracy), energy_joules=_parse_opt(energy),
        peak_power_watts=_parse_opt(peak_power), mac_normalized=_parse_opt(mac_normalized))


def read_samples_csv(path: str | Path) -> list[tuple[Architecture, EvaluationResult]]:
    return textio.read_table(path, SAMPLES_HEADER, _sample)


def summary_dict(cfg: RunConfig, result: SearchResult) -> dict:
    best = result.best
    config = cfg.to_dict()
    if cfg.resume_path is not None:  # the checkpoint's controller ran, not cfg's defaults
        state = result.controller
        config.update(hidden_dim=state.hidden_dim, lr=state.adam.lr,
                      use_baseline=state.use_baseline, clip_norm=state.clip_norm)
    return {
        "config": config,
        "best": {
            "iteration": best.iteration,
            "actions": list(best.actions),
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
        "stats": asdict(result.stats),
    }


def write_summary_json(path: str | Path, cfg: RunConfig, result: SearchResult) -> None:
    textio.write_text(path, textio.json_text(summary_dict(cfg, result)) + "\n")


def rebuild_front(rows: list[ResultRow], space: SearchSpace) -> ParetoFront:
    """Front over a results file's rows, dropping rows without an energy.

    Rows without actions still compete on (accuracy, energy); they just
    carry no architecture annotation. A row that is no point of the space
    (actions of another space, an accuracy outside [0, 1]) raises
    ValueError naming its iteration.
    """
    points = []
    for row in rows:
        if row.energy is None:
            continue
        try:
            arch = decode(space, row.actions) if row.actions else None
            points.append(ParetoPoint(accuracy=row.accuracy, energy=row.energy,
                                      arch=arch, iteration=row.iteration))
        except ValueError as exc:
            raise ValueError(f"iteration {row.iteration}: {exc}") from exc
    return front_of(points)
