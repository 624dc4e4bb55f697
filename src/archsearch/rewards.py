"""Reward functions over evaluation results.

Four kinds are supported:

* ``mixed``: alpha * accuracy - (1 - alpha) * normalized energy
* ``power_constraint``: accuracy if peak power < threshold, else 0
* ``accuracy_constraint``: 1 - normalized energy if accuracy > threshold, else 0
* ``mac_constraint``: accuracy if normalized MAC < threshold, else a
  (negative) violation reward

All constraint comparisons are strict and use raw units (watts, accuracy
fraction, normalized MAC). Energy is normalized by a caller-supplied
maximum and clamped into [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

REWARD_KINDS = ("mixed", "power_constraint", "accuracy_constraint", "mac_constraint")

DEFAULT_VIOLATION_REWARD = -1.0
DEFAULT_ENERGY_NORM_MAX = 130.0  # covers the largest energy in the lookup fixture
# the kinds whose reward reads each RewardSpec setting
READ_BY = {"alpha": ("mixed",), "threshold": REWARD_KINDS[1:],
           "energy_norm_max": ("mixed", "accuracy_constraint"),
           "violation_reward": ("mac_constraint",)}


@dataclass(frozen=True)
class EvaluationResult:
    """Scores of one evaluated architecture.

    ``energy_joules`` is energy per 1000 inferences. Fields that a
    particular evaluator cannot produce are None.
    """

    accuracy: float
    energy_joules: float | None = None
    peak_power_watts: float | None = None
    mac_normalized: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        for name, value in (("energy", self.energy_joules),
                            ("peak power", self.peak_power_watts)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.mac_normalized is not None and not 0.0 <= self.mac_normalized <= 1.0:
            raise ValueError("normalized MAC must be in [0, 1]")


@dataclass(frozen=True)
class RewardSpec:
    kind: str
    alpha: float | None = None
    threshold: float | None = None
    energy_norm_max: float = DEFAULT_ENERGY_NORM_MAX
    violation_reward: float = DEFAULT_VIOLATION_REWARD

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind: {self.kind!r}")
        # a nan threshold fails every strict comparison, so a run would
        # report every sample as a violation instead of failing
        for name in ("alpha", "threshold", "energy_norm_max", "violation_reward"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "mixed":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("mixed reward needs alpha in [0, 1]")
        elif self.threshold is None:
            raise ValueError(f"{self.kind} needs a threshold")
        if self.energy_norm_max <= 0:
            raise ValueError("energy_norm_max must be positive")

    def is_constraint(self) -> bool:
        return self.kind != "mixed"

    def satisfies(self, ev: EvaluationResult) -> bool:
        """Raw constraint check, independent of the reward value."""
        if self.kind == "mixed":
            raise ValueError("mixed reward has no constraint to satisfy")
        if self.kind == "power_constraint":
            return _require(ev.peak_power_watts, "peak_power_watts") < self.threshold
        if self.kind == "accuracy_constraint":
            return ev.accuracy > self.threshold
        # construction guarantees the kind, so mac_constraint remains
        return _require(ev.mac_normalized, "mac_normalized") < self.threshold


def _require(value: float | None, name: str) -> float:
    if value is None:
        raise ValueError(f"evaluation result is missing {name}")
    return value


def normalize_energy(energy_joules: float, energy_norm_max: float) -> float:
    """Energy as a fraction of the stated maximum, clamped to [0, 1]."""
    if energy_norm_max <= 0:
        raise ValueError("energy_norm_max must be positive")
    if energy_joules < 0:
        raise ValueError("energy must be >= 0")
    return min(energy_joules / energy_norm_max, 1.0)


def compute_reward(spec: RewardSpec, ev: EvaluationResult) -> float:
    """Scalar reward of an evaluation under the given spec."""
    if spec.kind == "mixed":
        energy_n = normalize_energy(_require(ev.energy_joules, "energy_joules"),
                                    spec.energy_norm_max)
        return spec.alpha * ev.accuracy - (1.0 - spec.alpha) * energy_n
    if spec.kind == "power_constraint":
        return ev.accuracy if spec.satisfies(ev) else 0.0
    if spec.kind == "accuracy_constraint":
        if not spec.satisfies(ev):
            return 0.0
        energy_n = normalize_energy(_require(ev.energy_joules, "energy_joules"),
                                    spec.energy_norm_max)
        return 1.0 - energy_n
    # construction guarantees the kind, so mac_constraint remains
    return ev.accuracy if spec.satisfies(ev) else spec.violation_reward
