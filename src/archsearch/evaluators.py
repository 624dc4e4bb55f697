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
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import permutations
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import cost_model, textio
from .cost_model import DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE, MacTable
from .rewards import EvaluationResult
from .search_space import (AlexNetArch, Architecture, CondenseNetArch, MacroArch,
                           arch_to_compact, build_space)

LOOKUP_FIXTURE = "condensenet_table.csv"
SURROGATE_FIXTURE = "surrogate_defaults.cfg"
LOOKUP_HEADER = ("stage1", "stage2", "stage3", "growth1", "growth2", "growth3",
                 "error_pct", "energy_j")


class Evaluator(ABC):
    @abstractmethod
    def evaluate_many(self, archs: Sequence[Architecture]) -> list[EvaluationResult]:
        """Score each architecture, in order. Deterministic for a fixed
        evaluator; an architecture scores the same in any batch."""

    def evaluate(self, arch: Architecture) -> EvaluationResult:
        return self.evaluate_many((arch,))[0]


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


def _capacities(arch: Architecture, table: MacTable) -> tuple[float, float, float | None]:
    """(total capacity, largest per-unit capacity, normalized MAC or None);
    ``table`` is the MAC table a macro architecture is costed by."""
    if isinstance(arch, AlexNetArch):
        sizes = [flt * h * w for flt, h, w in arch.layers]
        return float(sum(sizes)), float(max(sizes)), None
    if isinstance(arch, CondenseNetArch):
        sizes = [s * g for s, g in zip(arch.stages, arch.growths)]
        return float(sum(sizes)), float(max(sizes)), None
    if isinstance(arch, MacroArch):
        total, peak = 0, 0.0
        for row, shares, op in zip(table.rows, table.shares, arch.ops):
            total += row[op]
            share = shares[op]
            if share > peak:
                peak = share
        normalized = total / table.space_max
        return normalized, peak, normalized
    raise ValueError(f"unsupported architecture type: {type(arch).__name__}")


# From this many seeds on, `_hash_noise` hashes a batch's seeds in one numpy
# pass: about 140 us a batch against 11.5 us a seed for `PCG64(seed)`; they
# crossed at 12-16 seeds (x86-64, 2 vCPU, numpy 2.4.6, timeit best of 5).
NOISE_PORT_MIN = 16

# The (xor, multiply) constants of the hash steps of numpy's `SeedSequence`,
# fixed by its stream policy (NEP 19): init * mult**k and init * mult**(k+1)
# mod 2**32. One series serves 4 pool fills and 12 mixes, the other 8 output words.
_MIX_STEPS, _OUT_STEPS = ([(a * b ** k % 2**32, a * b ** (k + 1) % 2**32) for k in range(n)]
                          for a, b, n in ((0x43B0_D7E5, 0x931E_8875, 16),
                                          (0x8B51_F9DD, 0x58F3_8DED, 8)))


def _hashmix(word: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    word = (word ^ step[0]) * step[1]
    return word ^ (word >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is `np.random.SeedSequence(int(seeds[i])).generate_state(4, np.uint64)`,
    for uint64 ``seeds``: the same uint32 arithmetic, on every seed at once."""
    steps = iter(_MIX_STEPS)
    # the entropy is the seed's 32-bit words, low first; a pool word
    # without one hashes 0, as a seed below 2**32 has no high word
    low, high = (seeds & 0xFFFF_FFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = [_hashmix(word, next(steps)) for word in (low, high, 0 * low, 0 * low)]
    for src, dst in permutations(range(4), 2):
        mixed = 0xCA01_F9DD * pool[dst] - 0x4973_F715 * _hashmix(pool[src], next(steps))
        pool[dst] = mixed ^ (mixed >> 16)
    words = np.stack([_hashmix(pool[i % 4], step) for i, step in enumerate(_OUT_STEPS)], 1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


@dataclass
class _SeedWords(ISeedSequence):
    """One row of `_seed_words`, as the seed sequence `np.random.PCG64` takes."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


def _hash_noise(seed: int, archs: Sequence[Architecture], sigma: float) -> list[float]:
    """Gaussian perturbations, each seeded by its architecture alone, so an
    architecture scores the same whenever, however often and in whatever
    batch it is evaluated: `normal(0, sigma)` of a PCG64 seeded with the
    first 8 bytes, big-endian, of sha256(f"{seed}|{arch_to_compact(arch)}")."""
    if sigma == 0.0:
        return [0.0] * len(archs)
    heads = (hashlib.sha256(f"{seed}|{arch_to_compact(arch)}".encode()).digest()[:8]
             for arch in archs)
    if len(archs) < NOISE_PORT_MIN:  # one pass: `PCG64(seed)` hashes each seed
        return [float(np.random.Generator(np.random.PCG64(int.from_bytes(head, "big")))
                      .normal(0.0, sigma)) for head in heads]
    words = _seed_words(np.frombuffer(b"".join(heads), ">u8"))
    return [float(np.random.Generator(np.random.PCG64(_SeedWords(row))).normal(0.0, sigma))
            for row in words]


class SurrogateEvaluator(Evaluator):
    def __init__(self, config: SurrogateConfig):
        self.config = config

    def evaluate_many(self, archs: Sequence[Architecture]) -> list[EvaluationResult]:
        cfg = self.config
        table = cost_model.mac_table(DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE)
        out = []
        for arch, noise in zip(archs, _hash_noise(cfg.seed, archs, cfg.sigma)):
            capacity, peak_capacity, mac_norm = _capacities(arch, table)
            capacity *= cfg.capacity_weight
            accuracy = cfg.a_max * (1.0 - math.exp(-capacity / cfg.kappa)) + noise
            out.append(EvaluationResult(
                accuracy=min(max(accuracy, 0.0), 1.0), energy_joules=cfg.e0 + cfg.e1 * capacity,
                peak_power_watts=cfg.p0 + cfg.p1 * peak_capacity, mac_normalized=mac_norm))
        return out


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
    them; an architecture without a row goes to ``fallback``. Without one, rows
    that lack an architecture of the space are refused, naming ``source``."""

    def __init__(self, rows: dict[CondenseNetArch, tuple[float, float]],
                 fallback: Evaluator | None = None, source: str = "the lookup table"):
        if fallback is None:
            space = build_space("condensenet")
            # the rows are distinct, so they cover the space when as many lie in it
            inside = sum(all(v in slot.candidates for v, slot in
                             zip(a.stages + a.growths, space.slots)) for a in rows)
            if inside < space.size():
                raise ValueError(f"{source} holds {len(rows)} rows, {inside} of the "
                                 f"{space.size()} condensenet architectures: "
                                 "evaluator.fallback = off needs them all")
        self.rows = rows
        self.fallback = fallback

    def evaluate_many(self, archs: Sequence[Architecture]) -> list[EvaluationResult]:
        """Table rows as evaluations: accuracy = 1 - error/100, energy as stored.
        The batch's architectures without a row go to the fallback in one call."""
        rows = [self.rows.get(arch) for arch in archs]
        misses = [arch for arch, row in zip(archs, rows) if row is None]
        if misses and self.fallback is None:  # no architecture of the space
            raise KeyError(misses[0])
        scored = iter(self.fallback.evaluate_many(misses) if misses else ())
        return [next(scored) if row is None else
                EvaluationResult(accuracy=1.0 - row[0] / 100.0, energy_joules=row[1])
                for row in rows]


def fixture_lookup_path() -> Path:
    """Path of the shipped condensenet results table."""
    return Path(str(resources.files("archsearch.data").joinpath(LOOKUP_FIXTURE)))
