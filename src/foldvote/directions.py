"""Preferences as unit directions and their continuous aggregation.

A utility vector, normalized, is a point on the unit sphere; the
normalized-mean aggregator is continuous wherever the mean is nonzero
but cannot be continuous everywhere: near antipodal inputs a vanishing
input change flips the output to the opposite pole. continuity_probe
constructs that witness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import AntipodalDegenerate, ZeroVector
from .preferences import UtilityVector

UNIT_TOLERANCE = 1e-9
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class DirectionPoint:
    coordinates: tuple[float, ...]

    def __post_init__(self) -> None:
        norm = math.sqrt(math.fsum(x * x for x in self.coordinates))
        if not abs(norm - 1.0) <= UNIT_TOLERANCE:  # NaN fails too
            raise ValueError(f"not a unit vector (norm {norm})")

    @property
    def dimension(self) -> int:
        return len(self.coordinates)


def _direction(vector: tuple[float, ...], fault: Exception) -> DirectionPoint:
    """The vector scaled onto the unit sphere; raises fault below norm 1e-12."""
    try:
        squares = math.fsum(x * x for x in vector)
    except OverflowError:  # finite squares whose sum passes the float range
        squares = math.inf
    if squares == math.inf:
        # divided by its largest |x|, the vector keeps its direction and
        # its squares sum to between 1 and its length
        top = max(map(abs, vector))
        vector = tuple(x / top for x in vector)
        squares = math.fsum(x * x for x in vector)
    norm = math.sqrt(squares)
    if norm < DEGENERATE_NORM:
        raise fault
    return DirectionPoint(tuple(x / norm for x in vector))


def euclidean(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def direction_from_utility(u: UtilityVector) -> DirectionPoint:
    """Normalize a utility vector onto the unit sphere (universe order)."""
    fault = ZeroVector(f"utility vector of {u.protein_id!r} has no direction")
    return _direction(u.values, fault)


def aggregate_directions(directions: list[DirectionPoint]) -> DirectionPoint:
    """Normalized coordinate-wise mean.

    Coordinates are summed with math.fsum, so the output is exactly
    invariant under reordering the inputs. A mean of norm below 1e-12
    (antipodal cancellation) raises AntipodalDegenerate.
    """
    if not directions:
        raise ValueError("no directions to aggregate")
    dim = directions[0].dimension
    if any(d.dimension != dim for d in directions):
        raise ValueError("directions of mixed dimension")
    n = len(directions)
    mean = tuple(
        math.fsum(d.coordinates[i] for d in directions) / n for i in range(dim)
    )
    return _direction(mean, AntipodalDegenerate("mean direction vanishes"))


@dataclass(frozen=True)
class DiscontinuityWitness:
    """Two nearby direction profiles whose aggregates are far apart."""

    dimension: int
    epsilon: float
    seed: int
    profile_a: tuple[DirectionPoint, ...]
    profile_b: tuple[DirectionPoint, ...]
    output_a: DirectionPoint
    output_b: DirectionPoint
    input_distance: float
    output_distance: float

    def verify(self) -> bool:
        """Re-run the aggregator and re-check both distance bounds."""
        out_a = aggregate_directions(list(self.profile_a))
        out_b = aggregate_directions(list(self.profile_b))
        input_distance = math.fsum(
            euclidean(x.coordinates, y.coordinates)
            for x, y in zip(self.profile_a, self.profile_b)
        )
        output_distance = euclidean(out_a.coordinates, out_b.coordinates)
        return (
            out_a == self.output_a
            and out_b == self.output_b
            and input_distance <= 2 * self.epsilon
            and output_distance >= 1.0
        )

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "profile_a": [list(d.coordinates) for d in self.profile_a],
            "profile_b": [list(d.coordinates) for d in self.profile_b],
            "output_a": list(self.output_a.coordinates),
            "output_b": list(self.output_b.coordinates),
            "input_distance": self.input_distance,
            "output_distance": self.output_distance,
        }


def continuity_probe(
    dimension: int, epsilon: float, seed: int = 0
) -> DiscontinuityWitness:
    """Construct a discontinuity witness near an antipodal configuration.

    Two 2-voter profiles share a fixed first direction; the second
    directions sit just above and just below the antipode of the first,
    epsilon apart in angle. Their input distance is at most 2*epsilon
    while the aggregates land near opposite poles, distance >= 1 apart.
    The seed only picks which coordinate plane hosts the construction.
    """
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    if not 0 < epsilon < 0.1:
        raise ValueError("epsilon must lie in (0, 0.1)")
    rng = random.Random(seed)
    i, j = sorted(rng.sample(range(dimension), 2))

    def embed(x: float, y: float) -> tuple[float, ...]:
        coords = [0.0] * dimension
        coords[i], coords[j] = x, y
        return tuple(coords)

    anchor = DirectionPoint(embed(1.0, 0.0))
    above = DirectionPoint(embed(-math.cos(epsilon), math.sin(epsilon)))
    below = DirectionPoint(embed(-math.cos(epsilon), -math.sin(epsilon)))
    profile_a = (anchor, above)
    profile_b = (anchor, below)
    output_a = aggregate_directions(list(profile_a))
    output_b = aggregate_directions(list(profile_b))
    return DiscontinuityWitness(
        dimension=dimension,
        epsilon=epsilon,
        seed=seed,
        profile_a=profile_a,
        profile_b=profile_b,
        output_a=output_a,
        output_b=output_b,
        input_distance=euclidean(above.coordinates, below.coordinates),
        output_distance=euclidean(output_a.coordinates, output_b.coordinates),
    )
