"""Per-protein preferences over interaction classes.

A protein's contacts collapse into a utility vector (one real per
class), which in turn collapses into a ranking whose ties arise from
near-equal utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .contacts import InteractionClass, InteractionInstance
from .errors import MixedProteins, NonFiniteUtility, UniverseMismatch

Universe = tuple[InteractionClass, ...]


@dataclass(frozen=True)
class UtilityVector:
    protein_id: str
    universe: Universe
    values: dict[InteractionClass, float]

    def __post_init__(self) -> None:
        if set(self.values) != set(self.universe):
            raise UniverseMismatch("values must cover the universe exactly")
        for cls, value in self.values.items():
            if not math.isfinite(value):
                raise NonFiniteUtility(f"utility of {cls.render()} is {value}")

    def as_list(self) -> list[float]:
        return [self.values[c] for c in self.universe]

    def to_json_dict(self) -> dict:
        return {
            "owner": self.protein_id,
            "universe": [c.render() for c in self.universe],
            "values": {c.render(): self.values[c] for c in self.universe},
        }

    @staticmethod
    def from_json_dict(obj: dict) -> UtilityVector:
        universe = tuple(InteractionClass.parse(c) for c in obj["universe"])
        values = {
            InteractionClass.parse(c): float(v) for c, v in obj["values"].items()
        }
        return UtilityVector(obj["owner"], universe, values)


@dataclass(frozen=True)
class RankingWithTies:
    """Ordered tiers of classes, most preferred first; a total preorder."""

    owner: str
    universe: Universe
    tiers: tuple[tuple[InteractionClass, ...], ...]

    # tier index per class, filled lazily
    _positions: dict = field(default_factory=dict, repr=False, compare=False)
    # tier index per universe slot, filled lazily
    _slots: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: list[InteractionClass] = []
        for tier in self.tiers:
            if not tier:
                raise ValueError("empty tier")
            seen.extend(tier)
        if len(seen) != len(set(seen)) or set(seen) != set(self.universe):
            raise ValueError("tiers must partition the universe")

    def positions(self) -> dict[InteractionClass, int]:
        if not self._positions:
            for idx, tier in enumerate(self.tiers):
                for cls in tier:
                    self._positions[cls] = idx
        return self._positions

    def slots(self) -> tuple[int, ...]:
        """Tier index of each universe slot: slots()[i] is the tier of
        universe[i], so rules can compare classes by integer position."""
        if self._slots is None:
            index = {c: i for i, c in enumerate(self.universe)}
            slots = [0] * len(self.universe)
            for idx, tier in enumerate(self.tiers):
                for cls in tier:
                    slots[index[cls]] = idx
            object.__setattr__(self, "_slots", tuple(slots))
        return self._slots

    def prefers(self, a: InteractionClass, b: InteractionClass) -> bool:
        pos = self.positions()
        return pos[a] < pos[b]

    def indifferent(self, a: InteractionClass, b: InteractionClass) -> bool:
        pos = self.positions()
        return pos[a] == pos[b]

    @property
    def is_strict(self) -> bool:
        return all(len(t) == 1 for t in self.tiers)

    def pair_value(self, a: InteractionClass, b: InteractionClass) -> float:
        """1.0 if a is preferred, 0.0 if b is, 0.5 on a tie."""
        pos = self.positions()
        if pos[a] < pos[b]:
            return 1.0
        if pos[a] > pos[b]:
            return 0.0
        return 0.5

    def to_json_dict(self) -> dict:
        return {
            "owner": self.owner,
            "universe": [c.render() for c in self.universe],
            "tiers": [[c.render() for c in tier] for tier in self.tiers],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> RankingWithTies:
        universe = tuple(InteractionClass.parse(c) for c in obj["universe"])
        tiers = tuple(
            tuple(InteractionClass.parse(c) for c in tier) for tier in obj["tiers"]
        )
        return RankingWithTies(obj["owner"], universe, tiers)

    @staticmethod
    def from_strict_order(
        owner: str, universe: Universe, order: tuple[InteractionClass, ...]
    ) -> RankingWithTies:
        return RankingWithTies(owner, universe, tuple((c,) for c in order))


def utility_from_instances(
    instances: list[InteractionInstance],
    universe: Universe,
    combine: str = "sum",
    protein_id: str | None = None,
) -> UtilityVector:
    """Collapse one protein's instances into a utility vector.

    combine: "sum" of scores, "mean" of scores, or "count" of instances;
    classes with no instance get 0.0.
    """
    if combine not in ("sum", "mean", "count"):
        raise ValueError(f"unknown combine {combine!r}")
    owners = {inst.protein_id for inst in instances}
    if len(owners) > 1:
        raise MixedProteins(f"instances from several proteins: {sorted(owners)}")
    if protein_id is None:
        protein_id = owners.pop() if owners else ""

    allowed = set(universe)
    by_class: dict[InteractionClass, list[float]] = {}
    for inst in instances:
        if inst.interaction_class not in allowed:
            raise UniverseMismatch(
                f"instance class {inst.interaction_class.render()} outside universe"
            )
        by_class.setdefault(inst.interaction_class, []).append(inst.score)

    values = {}
    for cls in universe:
        scores = by_class.get(cls)
        if not scores:
            values[cls] = 0.0
        elif combine == "sum":
            values[cls] = float(sum(scores))
        elif combine == "mean":
            values[cls] = float(sum(scores) / len(scores))
        else:
            values[cls] = float(len(scores))
    return UtilityVector(protein_id, universe, values)


def ordinal_from_utility(
    u: UtilityVector, tie_epsilon: float = 0.0
) -> RankingWithTies:
    """Ranking from utilities, grouping near-equal values into tiers.

    Tiers come from single-linkage chaining: descending values stay in
    one tier while consecutive gaps are <= tie_epsilon (exact equality
    when tie_epsilon is 0). Chaining keeps the grouping independent of
    class iteration order.
    """
    if tie_epsilon < 0:
        raise ValueError("tie_epsilon must be >= 0")
    ordered = sorted(u.universe, key=lambda c: (-u.values[c], c))
    tiers: list[list[InteractionClass]] = []
    prev = None
    for cls in ordered:
        val = u.values[cls]
        if prev is not None and prev - val <= tie_epsilon:
            tiers[-1].append(cls)
        else:
            tiers.append([cls])
        prev = val
    return RankingWithTies(
        owner=u.protein_id,
        universe=u.universe,
        tiers=tuple(tuple(t) for t in tiers),
    )
