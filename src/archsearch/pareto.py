"""Non-dominated (higher accuracy, lower energy) front tracking.

A point dominates another when it is at least as accurate and at least as
cheap, and strictly better on one of the two. The front keeps every point
no other point dominates; exact duplicates collapse to the earliest
iteration.

The front is a staircase: energy and accuracy both rise strictly from one
point to the next. `ParetoFront.insert` relies on that invariant: one
bisection on (energy, accuracy) places a new point, only its neighbours can
dominate it, and the points it dominates form one contiguous run (the 2-D
maxima problem; Kung, Luccio & Preparata, JACM 22(4), 1975).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from .search_space import Architecture

ADDED = "added"
DOMINATED = "dominated"
TIE_REPLACED = "tie-replaced"
_COORDINATES = attrgetter("energy", "accuracy")  # the sort key of a front


@dataclass(frozen=True)
class ParetoPoint:
    accuracy: float
    energy: float
    arch: Architecture | None = None
    iteration: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if not (math.isfinite(self.energy) and self.energy >= 0):
            raise ValueError(f"energy must be finite and >= 0, got {self.energy}")


@dataclass
class ParetoFront:
    points: list[ParetoPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def insert(self, p: ParetoPoint) -> str:
        """Add p unless an existing point dominates it; evict what p dominates.

        Returns "added", "dominated", or "tie-replaced" (p had the same
        coordinates as a front point but an earlier iteration).
        """
        points = self.points
        i = bisect_left(points, (p.energy, p.accuracy), key=_COORDINATES)
        # points[:i] sort before p: cheaper, or as costly and less accurate
        if i < len(points) and points[i].energy == p.energy:
            # as costly and at least as accurate: p's twin or a point dominating p
            q = points[i]
            if q.accuracy == p.accuracy and p.iteration < q.iteration:
                points[i] = p
                return TIE_REPLACED
            return DOMINATED
        if i > 0 and points[i - 1].accuracy >= p.accuracy:
            return DOMINATED  # cheaper and at least as accurate
        # p dominates an as-costly left neighbour and the no-more-accurate run from i on
        lo = i - 1 if i > 0 and points[i - 1].energy == p.energy else i
        hi = i
        while hi < len(points) and points[hi].accuracy <= p.accuracy:
            hi += 1
        points[lo:hi] = [p]
        return ADDED


def front_of(points: Iterable[ParetoPoint]) -> ParetoFront:
    """Front of a point set; insertion order does not affect the result."""
    front = ParetoFront()
    for p in points:
        front.insert(p)
    return front
