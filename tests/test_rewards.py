import math

import pytest

from archsearch.rewards import (EvaluationResult, RewardSpec, compute_reward,
                                normalize_energy)


def ev(accuracy=0.9, energy=None, power=None, mac=None):
    return EvaluationResult(accuracy=accuracy, energy_joules=energy,
                            peak_power_watts=power, mac_normalized=mac)


class TestNormalizeEnergy:
    def test_table_maximum_row(self):
        assert normalize_energy(129.37, 130.0) == pytest.approx(0.99515384615, rel=1e-9)

    def test_zero(self):
        assert normalize_energy(0.0, 130.0) == 0.0

    def test_clamps_above_norm(self):
        assert normalize_energy(200.0, 130.0) == 1.0

    def test_nonpositive_norm_rejected(self):
        with pytest.raises(ValueError):
            normalize_energy(10.0, 0.0)
        with pytest.raises(ValueError):
            normalize_energy(-1.0, 130.0)


class TestMixedReward:
    def test_hand_computed_value(self):
        # alpha 0.25, accuracy 0.9, normalized energy 0.4
        spec = RewardSpec(kind="mixed", alpha=0.25, energy_norm_max=130.0)
        assert compute_reward(spec, ev(0.9, energy=52.0)) == pytest.approx(-0.075)

    def test_monotone_in_accuracy_and_energy(self):
        spec = RewardSpec(kind="mixed", alpha=0.5, energy_norm_max=100.0)
        base = compute_reward(spec, ev(0.8, energy=50.0))
        assert compute_reward(spec, ev(0.9, energy=50.0)) > base
        assert compute_reward(spec, ev(0.8, energy=60.0)) < base

    def test_linear_in_alpha(self):
        result = ev(0.7, energy=39.0)
        rewards = [compute_reward(RewardSpec(kind="mixed", alpha=a, energy_norm_max=130.0),
                                  result)
                   for a in (0.25, 0.5, 0.75)]
        assert rewards[1] == pytest.approx((rewards[0] + rewards[2]) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_range_bounds(self, alpha):
        spec = RewardSpec(kind="mixed", alpha=alpha, energy_norm_max=100.0)
        lo = compute_reward(spec, ev(0.0, energy=100.0))
        hi = compute_reward(spec, ev(1.0, energy=0.0))
        assert lo == pytest.approx(-(1.0 - alpha))
        assert hi == pytest.approx(alpha)

    def test_missing_energy_rejected(self):
        spec = RewardSpec(kind="mixed", alpha=0.25)
        with pytest.raises(ValueError):
            compute_reward(spec, ev(0.9))


class TestPowerConstraint:
    def test_satisfying_returns_accuracy(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        assert compute_reward(spec, ev(0.93, power=69.0)) == 0.93

    def test_violation_returns_zero(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        assert compute_reward(spec, ev(0.93, power=71.0)) == 0.0

    def test_boundary_is_strict(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        assert compute_reward(spec, ev(0.93, power=70.0)) == 0.0

    def test_missing_power_rejected(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        with pytest.raises(ValueError):
            compute_reward(spec, ev(0.93))


class TestAccuracyConstraint:
    def test_satisfying_returns_energy_complement(self):
        spec = RewardSpec(kind="accuracy_constraint", threshold=0.85, energy_norm_max=100.0)
        assert compute_reward(spec, ev(0.9, energy=30.0)) == pytest.approx(0.7)

    def test_boundary_is_strict(self):
        # accuracy exactly at the threshold does not satisfy "accuracy > threshold"
        spec = RewardSpec(kind="accuracy_constraint", threshold=0.85, energy_norm_max=100.0)
        assert compute_reward(spec, ev(0.85, energy=30.0)) == 0.0

    def test_violation_ignores_missing_energy(self):
        spec = RewardSpec(kind="accuracy_constraint", threshold=0.85)
        assert compute_reward(spec, ev(0.2)) == 0.0

    def test_satisfying_without_energy_rejected(self):
        spec = RewardSpec(kind="accuracy_constraint", threshold=0.85)
        with pytest.raises(ValueError):
            compute_reward(spec, ev(0.9))


class TestMacConstraint:
    def test_under_threshold_returns_accuracy(self):
        spec = RewardSpec(kind="mac_constraint", threshold=0.31)
        assert compute_reward(spec, ev(0.8, mac=0.30)) == 0.8

    def test_over_threshold_returns_violation_reward(self):
        spec = RewardSpec(kind="mac_constraint", threshold=0.31)
        assert compute_reward(spec, ev(0.8, mac=0.32)) == -1.0

    def test_boundary_is_strict(self):
        spec = RewardSpec(kind="mac_constraint", threshold=0.31)
        assert compute_reward(spec, ev(0.8, mac=0.31)) == -1.0

    def test_custom_violation_reward(self):
        spec = RewardSpec(kind="mac_constraint", threshold=0.31, violation_reward=-0.5)
        assert compute_reward(spec, ev(0.8, mac=0.5)) == -0.5

    def test_missing_mac_rejected(self):
        spec = RewardSpec(kind="mac_constraint", threshold=0.31)
        with pytest.raises(ValueError):
            compute_reward(spec, ev(0.8))


class TestConstraintSemantics:
    def test_violations_are_never_blends(self):
        # the violating side is exactly 0 (power/accuracy) or the violation reward
        power = RewardSpec(kind="power_constraint", threshold=50.0)
        acc = RewardSpec(kind="accuracy_constraint", threshold=0.9, energy_norm_max=10.0)
        mac = RewardSpec(kind="mac_constraint", threshold=0.2, violation_reward=-2.0)
        assert compute_reward(power, ev(0.99, power=50.01)) == 0.0
        assert compute_reward(acc, ev(0.89, energy=0.1)) == 0.0
        assert compute_reward(mac, ev(0.99, mac=0.95)) == -2.0

    def test_satisfies_reports_raw_constraint(self):
        spec = RewardSpec(kind="power_constraint", threshold=70.0)
        assert spec.satisfies(ev(0.1, power=69.9))
        assert not spec.satisfies(ev(0.99, power=70.0))

    def test_mixed_has_no_constraint(self):
        spec = RewardSpec(kind="mixed", alpha=0.5)
        with pytest.raises(ValueError):
            spec.satisfies(ev(0.5, energy=1.0))


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RewardSpec(kind="bonus")

    def test_mixed_requires_alpha(self):
        with pytest.raises(ValueError):
            RewardSpec(kind="mixed")
        with pytest.raises(ValueError):
            RewardSpec(kind="mixed", alpha=1.5)

    @pytest.mark.parametrize("kind, field", [
        ("mixed", "alpha"), ("power_constraint", "threshold"),
        ("mixed", "energy_norm_max"), ("mac_constraint", "violation_reward"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_rejected(self, kind, field, value):
        settings = {"alpha": 0.5} if kind == "mixed" else {"threshold": 0.5}
        settings[field] = value
        with pytest.raises(ValueError):
            RewardSpec(kind=kind, **settings)

    def test_constraints_require_threshold(self):
        for kind in ("power_constraint", "accuracy_constraint", "mac_constraint"):
            with pytest.raises(ValueError):
                RewardSpec(kind=kind)

    def test_result_field_ranges(self):
        with pytest.raises(ValueError):
            EvaluationResult(accuracy=1.2)
        with pytest.raises(ValueError):
            EvaluationResult(accuracy=0.5, energy_joules=-1.0)
        with pytest.raises(ValueError):
            EvaluationResult(accuracy=0.5, mac_normalized=1.4)
