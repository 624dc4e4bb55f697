"""Architecture-scoring back-ends.

Real runs of this kind of search would train each candidate network and
profile it on hardware. Here that step is a pluggable seam with two
implementations: an analytic surrogate landscape (deterministic, with
optional hash-seeded noise) and a lookup table fed from a measured-results
file. Both are pure functions of (architecture, seed), so searches are
reproducible and evaluation order never matters.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import cost_model, textio
from .cost_model import DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE
from .rewards import EvaluationResult
from .search_space import AlexNetArch, Architecture, CondenseNetArch, MacroArch, arch_to_compact

LOOKUP_FIXTURE = "condensenet_table.csv"
SURROGATE_FIXTURE = "surrogate_defaults.cfg"
LOOKUP_HEADER = ("stage1", "stage2", "stage3", "growth1", "growth2", "growth3",
                 "error_pct", "energy_j")


class UnknownArchitectureError(KeyError):
    """Raised when a lookup table has no row for the requested architecture."""


class Evaluator(ABC):
    @abstractmethod
    def evaluate(self, arch: Architecture) -> EvaluationResult:
        """Score one architecture. Deterministic for a fixed evaluator."""


# ---------------------------------------------------------------------------
# Surrogate landscape


@dataclass(frozen=True)
class SurrogateConfig:
    """Constants of the analytic landscape for one space.

    Accuracy saturates with capacity, ``a_max * (1 - exp(-capacity / kappa))``;
    energy and peak power grow linearly in total and per-layer capacity.
    ``sigma`` adds hash-seeded accuracy noise, mimicking noisy validation.
    """

    space: str
    a_max: float
    kappa: float
    e0: float
    e1: float
    p0: float
    p1: float
    sigma: float = 0.0
    seed: int = 0
    capacity_weight: float = 1.0

    def __post_init__(self) -> None:
        # every message starts with the field name: load_surrogate_config relies on it
        for name in ("a_max", "kappa", "e0", "e1", "p0", "p1", "sigma", "capacity_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # kappa <= 0 divides by zero or inverts the landscape; a negative
        # energy or power constant gives values no reward can take
        if not 0.0 < self.a_max <= 1.0:
            raise ValueError(f"a_max must lie in (0, 1], got {self.a_max}")
        for name in ("kappa", "capacity_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("e0", "e1", "p0", "p1", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def _capacities(arch: Architecture) -> tuple[float, float, float | None]:
    """(total capacity, largest per-unit capacity, normalized MAC or None)."""
    if isinstance(arch, AlexNetArch):
        sizes = [flt * h * w for flt, h, w in arch.layers]
        return float(sum(sizes)), float(max(sizes)), None
    if isinstance(arch, CondenseNetArch):
        sizes = [s * g for s, g in zip(arch.stages, arch.growths)]
        return float(sum(sizes)), float(max(sizes)), None
    if isinstance(arch, MacroArch):
        table = cost_model.mac_table(DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE)
        total, peak = 0, 0.0
        for row, shares, op in zip(table.rows, table.shares, arch.ops):
            total += row[op]
            share = shares[op]
            if share > peak:
                peak = share
        normalized = total / table.space_max
        return normalized, peak, normalized
    raise ValueError(f"unsupported architecture type: {type(arch).__name__}")


def _hash_noise(seed: int, arch_key: str, sigma: float) -> float:
    """Gaussian perturbation seeded by the architecture itself.

    Hashing the architecture (not the draw order) keeps results identical
    no matter when or how often an architecture is evaluated.
    """
    if sigma == 0.0:
        return 0.0
    digest = hashlib.sha256(f"{seed}|{arch_key}".encode()).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
    return float(rng.normal(0.0, sigma))


class SurrogateEvaluator(Evaluator):
    def __init__(self, config: SurrogateConfig):
        self.config = config

    def evaluate(self, arch: Architecture) -> EvaluationResult:
        cfg = self.config
        capacity, peak_capacity, mac_norm = _capacities(arch)
        capacity *= cfg.capacity_weight
        accuracy = cfg.a_max * (1.0 - math.exp(-capacity / cfg.kappa))
        accuracy += _hash_noise(cfg.seed, arch_to_compact(arch), cfg.sigma)
        accuracy = min(max(accuracy, 0.0), 1.0)
        return EvaluationResult(
            accuracy=accuracy,
            energy_joules=cfg.e0 + cfg.e1 * capacity,
            peak_power_watts=cfg.p0 + cfg.p1 * peak_capacity,
            mac_normalized=mac_norm,
        )


def load_surrogate_config(space: str, path: str | Path | None = None,
                          seed: int = 0) -> SurrogateConfig:
    """Surrogate constants for a space, from a config file or the shipped fixture.

    The file is flat key-value with keys like ``condensenet.kappa``; a
    ``version`` key tags the constant set.
    """
    if path is None:
        text = resources.files("archsearch.data").joinpath(SURROGATE_FIXTURE).read_text()
        source = SURROGATE_FIXTURE
    else:
        text = Path(path).read_text()
        source = str(path)
    values = textio.read_key_values(text, source)
    if "version" not in values:
        raise ValueError(f"{source}: missing version key")

    def get(name: str, default: str | None = None) -> float:
        if f"{space}.{name}" not in values and default is None:
            raise ValueError(f"{name} is missing")
        try:
            return float(values.get(f"{space}.{name}", default))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    try:
        return SurrogateConfig(
            space=space, a_max=get("a_max"), kappa=get("kappa"),
            e0=get("e0"), e1=get("e1"), p0=get("p0"), p1=get("p1"),
            sigma=get("sigma"), seed=seed, capacity_weight=get("capacity_weight", "1.0"),
        )
    except ValueError as exc:  # its message starts with the field name
        raise ValueError(f"{source}: {space}.{exc}") from None


def make_surrogate(space: str, seed: int = 0,
                   config_path: str | Path | None = None) -> SurrogateEvaluator:
    return SurrogateEvaluator(load_surrogate_config(space, config_path, seed=seed))


# ---------------------------------------------------------------------------
# Lookup table


def load_lookup(path: str | Path) -> dict[CondenseNetArch, tuple[float, float]]:
    """Parse a lookup file: a header line, then one comma-separated row per
    architecture (stages, growths, error %, energy). Returns its rows as
    architecture -> (error %, energy J)."""
    rows: dict[CondenseNetArch, tuple[float, float]] = {}

    def add_row(*fields: str) -> None:
        arch = CondenseNetArch(stages=tuple(int(v) for v in fields[0:3]),
                               growths=tuple(int(v) for v in fields[3:6]))
        error_pct, energy_j = float(fields[6]), float(fields[7])
        if not 0.0 <= error_pct <= 100.0:
            raise ValueError("error must be in [0, 100]")
        if not (math.isfinite(energy_j) and energy_j >= 0):
            raise ValueError(f"energy must be finite and >= 0, got {fields[7]}")
        if arch in rows:
            raise ValueError(f"duplicate architecture {list(fields[0:6])}")
        rows[arch] = error_pct, energy_j

    textio.read_table(path, LOOKUP_HEADER, add_row)
    return rows


class LookupEvaluator(Evaluator):
    """Measured rows keyed by condensenet architecture, as `load_lookup` gives
    them; an architecture without a row goes to ``fallback``, or raises
    `UnknownArchitectureError` naming ``source``."""

    def __init__(self, rows: dict[CondenseNetArch, tuple[float, float]],
                 fallback: Evaluator | None = None, source: str = "the lookup table"):
        self.rows = rows
        self.fallback = fallback
        self.source = source

    def evaluate(self, arch: Architecture) -> EvaluationResult:
        """Table row as an evaluation: accuracy = 1 - error/100, energy as stored."""
        row = self.rows.get(arch)
        if row is not None:
            return EvaluationResult(accuracy=1.0 - row[0] / 100.0, energy_joules=row[1])
        if self.fallback is None:
            raise UnknownArchitectureError(
                f"no table row for {arch_to_compact(arch)} in {self.source}")
        return self.fallback.evaluate(arch)


def fixture_lookup_path() -> Path:
    """Path of the shipped condensenet results table."""
    return Path(str(resources.files("archsearch.data").joinpath(LOOKUP_FIXTURE)))
