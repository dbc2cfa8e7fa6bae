"""Structured-domain escape checks: single-peakedness and quasi-transitivity.

A profile that is single-peaked on some axis sidesteps majority cycles
(odd panels get a transitive majority relation via the median positions),
and an outcome whose strict part is transitive is still usable for
choice even when indifference chains are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .aminoacids import Universe, slot_index
from .errors import TiesUnsupported, TooLarge
from .profiles import Profile
from .rules import AggregationOutcome, first_intransitive_triple

FIND_AXIS_MAX_CLASSES = 8


@dataclass(frozen=True)
class SinglePeakedReport:
    single_peaked: bool
    # one entry per violating individual: owner plus the witnessing
    # valley (a class less preferred than classes on both of its sides)
    violations: tuple[dict, ...]

    def __bool__(self) -> bool:
        return self.single_peaked


def _strict_slots(profile: Profile, axis: Universe) -> tuple[list, list[int]]:
    """Each individual's slots() and the universe slot of each axis class,
    once the individuals are known to be strict and the axis valid."""
    if profile.mode != "ordinal":
        raise TiesUnsupported("single-peakedness is defined for ordinal profiles")
    if tuple(sorted(axis)) != tuple(sorted(profile.universe)):
        raise ValueError("axis must be a permutation of the profile universe")
    for ind in profile.individuals:
        if not ind.is_strict:
            raise TiesUnsupported(f"individual {ind.owner!r} has tied classes")
    index = slot_index(profile.universe)
    return [ind.slots() for ind in profile.individuals], [index[c] for c in axis]


def _first_valley(ranks: list[int]) -> tuple[int, int, int] | None:
    """First (left, j, right): a place j ranked below a place on each side."""
    m = len(ranks)
    for j in range(1, m - 1):
        left = next((i for i in range(j) if ranks[i] < ranks[j]), None)
        if left is None:
            continue
        right = next((k for k in range(j + 1, m) if ranks[k] < ranks[j]), None)
        if right is not None:
            return left, j, right
    return None


def is_single_peaked_on(profile: Profile, axis: Universe) -> SinglePeakedReport:
    """Check every individual's preference for unimodality along axis.

    Strict orders only. A violation is a valley: some class on the axis
    with a strictly more preferred class on each side of it.
    """
    rows, at = _strict_slots(profile, axis)
    violations = []
    for ind, slots in zip(profile.individuals, rows):
        valley = _first_valley([slots[i] for i in at])
        if valley is not None:
            i, j, k = valley
            violations.append(
                {
                    "owner": ind.owner,
                    "valley": axis[j].render(),
                    "higher_left": axis[i].render(),
                    "higher_right": axis[k].render(),
                }
            )
    return SinglePeakedReport(not violations, tuple(violations))


def find_axis(profile: Profile) -> Universe | None:
    """First axis (lexicographic order) on which the profile is
    single-peaked, or None. Brute force, so the universe is capped."""
    m = profile.m
    if m > FIND_AXIS_MAX_CLASSES:
        raise TooLarge(
            f"axis search enumerates m! arrangements; m={m} exceeds "
            f"{FIND_AXIS_MAX_CLASSES}"
        )
    rows, _ = _strict_slots(profile, profile.universe)
    # slot indices in class order, so permutations come in the order of
    # the class axes they stand for
    for at in permutations(sorted(range(m), key=profile.universe.__getitem__)):
        if all(_first_valley([s[i] for i in at]) is None for s in rows):
            return tuple(profile.universe[i] for i in at)
    return None


def is_quasi_transitive(outcome: AggregationOutcome) -> bool:
    """True iff the strict part of the outcome relation is transitive;
    intransitive indifference is allowed."""
    relation = outcome.relation
    m = len(relation)
    strict = tuple(
        tuple(relation[i][j] and not relation[j][i] for j in range(m))
        for i in range(m)
    )
    return first_intransitive_triple(strict) is None
