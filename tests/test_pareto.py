
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch.pareto import (ADDED, DOMINATED, TIE_REPLACED, ParetoFront,
                               ParetoPoint, front_of)

from oracles import brute_force_front, dominates, linear_front_insert

# the shipped results table as (error %, energy) pairs
TABLE = {
    "B122": (4.48, 129.37), "B110": (4.63, 108.74), "B98": (4.83, 88.73),
    "B86": (5.06, 71.98), "B74": (5.28, 56.35), "B50": (6.22, 40.35),
    "M1": (4.34, 92.16), "M2": (4.56, 79.93), "M3": (5.07, 42.46),
    "M4": (5.6, 34.88),
}


def pt(accuracy, energy, iteration=0):
    return ParetoPoint(accuracy=accuracy, energy=energy, iteration=iteration)


def table_points():
    return {name: pt(1.0 - err / 100.0, energy)
            for name, (err, energy) in TABLE.items()}


def random_points(rng, n, grid=False):
    points = []
    for i in range(n):
        if grid:  # coarse grid provokes exact ties and duplicates
            acc = round(float(rng.integers(0, 11)) / 10.0, 1)
            energy = float(rng.integers(0, 11))
        else:
            acc = float(rng.uniform(0.0, 1.0))
            energy = float(rng.uniform(0.0, 100.0))
        points.append(pt(acc, energy, iteration=i))
    return points


class TestPoint:
    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, -1.0])
    def test_energy_must_be_finite_and_nonnegative(self, energy):
        with pytest.raises(ValueError, match="energy must be finite"):
            pt(0.5, energy)

    @pytest.mark.parametrize("accuracy", [math.nan, math.inf, -0.1, 1.1])
    def test_accuracy_must_be_in_unit_interval(self, accuracy):
        with pytest.raises(ValueError, match="accuracy"):
            pt(accuracy, 1.0)


class TestDominates:
    """The dominance relation of `oracles.dominates`, which the front tests
    below check `ParetoFront` against."""

    def test_strictly_better_in_both(self):
        assert dominates(pt(0.9, 50.0), pt(0.8, 60.0))

    def test_no_self_domination(self):
        assert not dominates(pt(0.9, 50.0), pt(0.9, 50.0))

    def test_worse_in_both_does_not_dominate(self):
        assert not dominates(pt(0.9, 50.0), pt(0.95, 40.0))

    def test_tradeoff_pair_has_no_winner(self):
        assert not dominates(pt(0.9, 40.0), pt(0.95, 50.0))
        assert not dominates(pt(0.95, 50.0), pt(0.9, 40.0))

    def test_single_coordinate_tie(self):
        assert dominates(pt(0.9, 50.0), pt(0.9, 60.0))
        assert dominates(pt(0.9, 50.0), pt(0.8, 50.0))


class TestInsert:
    def test_into_empty_front(self):
        front = ParetoFront()
        assert front.insert(pt(0.5, 10.0)) == ADDED
        assert len(front) == 1

    def test_dominated_point_leaves_front_unchanged(self):
        front = ParetoFront()
        front.insert(pt(0.9, 10.0))
        before = list(front.points)
        assert front.insert(pt(0.8, 20.0)) == DOMINATED
        assert front.points == before

    def test_dominating_point_evicts(self):
        front = ParetoFront()
        front.insert(pt(0.5, 50.0, iteration=1))
        front.insert(pt(0.9, 90.0, iteration=2))
        assert front.insert(pt(0.95, 40.0, iteration=3)) == ADDED
        assert front.points == [pt(0.95, 40.0, iteration=3)]

    def test_duplicate_keeps_earlier_iteration(self):
        front = ParetoFront()
        front.insert(pt(0.5, 50.0, iteration=3))
        assert front.insert(pt(0.5, 50.0, iteration=7)) == DOMINATED
        assert front.points[0].iteration == 3
        assert front.insert(pt(0.5, 50.0, iteration=1)) == TIE_REPLACED
        assert front.points[0].iteration == 1
        assert len(front) == 1

    def test_sorted_by_energy_with_rising_accuracy(self):
        rng = np.random.default_rng(0)
        front = ParetoFront()
        for p in random_points(rng, 300):
            front.insert(p)
        energies = [p.energy for p in front.points]
        accuracies = [p.accuracy for p in front.points]
        assert energies == sorted(energies)
        assert accuracies == sorted(accuracies)

    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_brute_force_on_random_streams(self, grid):
        rng = np.random.default_rng(42 if grid else 7)
        points = random_points(rng, 1000, grid=grid)
        front = ParetoFront()
        for p in points:
            front.insert(p)
        expected = brute_force_front(points)
        assert [(p.accuracy, p.energy, p.iteration) for p in front.points] == \
               [(p.accuracy, p.energy, p.iteration) for p in expected]


# a coarse grid: equal energies, equal accuracies, exact duplicates, and
# iterations drawn independently of the insertion order
grid_points = st.lists(
    st.builds(lambda a, e, i: pt(a / 4.0, float(e), iteration=i),
              st.integers(0, 4), st.integers(0, 5), st.integers(0, 6)),
    max_size=40)


class TestAgainstLinearScan:
    @settings(max_examples=400, deadline=None)
    @given(points=grid_points)
    def test_same_outcome_and_points_after_every_insert(self, points):
        front = ParetoFront()
        reference = []
        for p in points:
            assert front.insert(p) == linear_front_insert(reference, p)
            assert front.points == reference

    @settings(max_examples=200, deadline=None)
    @given(points=grid_points, data=st.data())
    def test_front_of_any_permutation_is_brute_force_front(self, points, data):
        perm = data.draw(st.permutations(points))
        assert front_of(perm).points == brute_force_front(points)


class TestFrontOf:
    def test_single_point(self):
        front = front_of([pt(0.4, 5.0)])
        assert front.points == [pt(0.4, 5.0)]

    def test_identical_points_collapse(self):
        front = front_of([pt(0.4, 5.0, iteration=i) for i in range(5)])
        assert len(front) == 1
        assert front.points[0].iteration == 0

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        points = random_points(rng, 200, grid=True)
        reference = front_of(points).points
        for _ in range(10):
            perm = [points[i] for i in rng.permutation(len(points))]
            assert front_of(perm).points == reference

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        front = front_of(random_points(rng, 200))
        assert front_of(front.points).points == front.points

    def test_every_point_on_front_or_dominated(self):
        rng = np.random.default_rng(5)
        points = random_points(rng, 300)
        front = front_of(points)
        for p in points:
            on_front = any(q.accuracy == p.accuracy and q.energy == p.energy
                           for q in front.points)
            assert on_front or any(dominates(q, p) for q in front.points)


class TestResultsTableFront:
    def test_hand_checked_dominance_relations(self):
        p = table_points()
        assert dominates(p["M3"], p["B74"])   # (5.07%, 42.46 J) beats (5.28%, 56.35 J)
        assert dominates(p["M4"], p["B50"])
        assert dominates(p["M1"], p["B122"])
        assert dominates(p["M1"], p["B110"])
        assert dominates(p["M2"], p["B98"])
        assert not dominates(p["M3"], p["B86"])
        assert not dominates(p["B86"], p["M3"])

    def test_front_membership(self):
        p = table_points()
        front = front_of(p.values())
        expected = [p["M4"], p["M3"], p["B86"], p["M2"], p["M1"]]
        assert front.points == expected
