"""Per-protein preferences over interaction classes.

A protein's contacts collapse into a utility vector (one real per
class), which in turn collapses into a ranking whose ties arise from
near-equal utilities.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .aminoacids import InteractionClass, Universe, slot_index
from .errors import MalformedProfile, MixedProteins, NonFiniteUtility, UniverseMismatch

if TYPE_CHECKING:
    from .interchange import InteractionInstance


@dataclass(frozen=True)
class UtilityVector:
    """One protein's utilities in universe order (values[i] is that of
    universe[i]), given as a class -> value mapping or in that order."""

    protein_id: str
    universe: Universe
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        index = slot_index(self.universe)
        values = self.values
        if isinstance(values, Mapping):
            # as many keys as classes, and each class among them
            if len(values) != len(index):
                raise UniverseMismatch("values must cover the universe exactly")
            try:
                values = [values[c] for c in self.universe]
            except KeyError:
                raise UniverseMismatch("values must cover the universe exactly") from None
        values = tuple(values)
        if len(values) != len(index):
            raise UniverseMismatch("values must cover the universe exactly")
        for cls, value in zip(self.universe, values):
            if not math.isfinite(value):
                raise NonFiniteUtility(f"utility of {cls.render()} is {value}")
        object.__setattr__(self, "values", values)

    def as_list(self) -> list[float]:
        return list(self.values)

    def to_json_dict(self) -> dict:
        return {
            "owner": self.protein_id,
            "universe": [c.render() for c in self.universe],
            "values": {c.render(): v for c, v in zip(self.universe, self.values)},
        }

    @staticmethod
    def from_json_dict(obj: dict) -> UtilityVector:
        """The vector a JSON object describes, checked as a profile's
        individual is: a missing key, a field of the wrong shape or a bad
        label raise MalformedProfile."""
        with json_faults():
            universe = universe_from_json(shaped(obj, dict, "a utility vector"))
            return utility_from_json(obj, universe)


@dataclass(frozen=True)
class RankingWithTies:
    """Ordered tiers of classes, most preferred first; a total preorder."""

    owner: str
    universe: Universe
    tiers: tuple[tuple[InteractionClass, ...], ...]

    def __post_init__(self) -> None:
        if not all(self.tiers):
            raise ValueError("empty tier")
        # one pass fills the slots and checks that the tiers partition
        # the universe: every class lands in a slot exactly once
        index = slot_index(self.universe)
        slots: list[int | None] = [None] * len(index)
        for idx, tier in enumerate(self.tiers):
            for cls in tier:
                i = index.get(cls)
                if i is None or slots[i] is not None:
                    raise ValueError("tiers must partition the universe")
                slots[i] = idx
        if None in slots:
            raise ValueError("tiers must partition the universe")
        # tier index per universe slot: a plain attribute, not a field, so
        # equality, hashing, repr and JSON read the tiers alone
        object.__setattr__(self, "_slots", tuple(slots))

    def slots(self) -> tuple[int, ...]:
        """Tier index of each universe slot: slots()[i] is the tier of
        universe[i], so rules can compare classes by integer position."""
        return self._slots

    @property
    def is_strict(self) -> bool:
        return all(len(t) == 1 for t in self.tiers)

    def to_json_dict(self) -> dict:
        return {
            "owner": self.owner,
            "universe": [c.render() for c in self.universe],
            "tiers": [[c.render() for c in tier] for tier in self.tiers],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> RankingWithTies:
        """The ranking a JSON object describes, checked as a profile's
        individual is: a missing key, a field of the wrong shape, a bad
        label or tiers that do not partition the universe raise
        MalformedProfile."""
        with json_faults():
            universe = universe_from_json(shaped(obj, dict, "a ranking"))
            return ranking_from_json(obj, universe)

    @staticmethod
    def from_strict_order(
        owner: str, universe: Universe, order: tuple[InteractionClass, ...]
    ) -> RankingWithTies:
        return RankingWithTies(owner, universe, tuple((c,) for c in order))

    @classmethod
    def from_slot_order(
        cls, owner: str, universe: Universe, order: Sequence[int]
    ) -> RankingWithTies:
        """The strict ranking listing universe[order[0]] first, then
        universe[order[1]], and so on: what from_strict_order gives for
        those classes, built without the checked constructor's label
        lookups. `order` must name each index of the universe once (a
        negative index counts from the end, as in indexing); anything else
        raises that constructor's ValueError."""
        slots: list[int | None] = [None] * len(universe)
        try:
            for tier, slot in enumerate(order):
                slots[slot] = tier
        except IndexError:
            slots = [None]  # an index past the universe, refused below
        if len(order) != len(universe) or None in slots:
            raise ValueError("tiers must partition the universe")
        ranking = object.__new__(cls)
        set_field = object.__setattr__
        set_field(ranking, "owner", owner)
        set_field(ranking, "universe", universe)
        set_field(ranking, "tiers", tuple((universe[i],) for i in order))
        set_field(ranking, "_slots", tuple(slots))
        return ranking


# ------------------------------------------------------------- JSON readers
# Shared by the readers above and Profile.from_json_dict, so a ranking or
# a vector is checked alike on its own and inside a profile.

_JSON_KINDS = {
    list: "a list",
    dict: "an object",
    str: "a string",
    (int, float): "a number",
}


def shaped(value, kind, what: str):
    """The JSON value, if it has the expected Python type."""
    # JSON true and false load as bool, which Python counts as an int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedProfile(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


@contextmanager
def json_faults():
    """Raise the KeyError of a missing key and the ValueError or
    OverflowError of a bad field as MalformedProfile."""
    try:
        yield
    except KeyError as exc:
        raise MalformedProfile(f"missing key {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise MalformedProfile(str(exc)) from None


def _labels_from_json(labels, what: str):
    return (
        InteractionClass.parse(shaped(c, str, "a class label"))
        for c in shaped(labels, list, what)
    )


def universe_from_json(obj: dict) -> Universe:
    universe = tuple(_labels_from_json(obj["universe"], "universe"))
    slot_index(universe, MalformedProfile)
    return universe


@json_faults()
def ranking_from_json(obj, universe: Universe) -> RankingWithTies:
    shaped(obj, dict, "an individual")
    owner = shaped(obj["owner"], str, "owner")
    tiers = tuple(
        tuple(_labels_from_json(t, "a tier")) for t in shaped(obj["tiers"], list, "tiers")
    )
    return RankingWithTies(owner, universe, tiers)


@json_faults()
def utility_from_json(obj, universe: Universe) -> UtilityVector:
    """One value per class of the universe, each named once, by either of
    its labels ("C-A" or "A-C"). A missing key, a field of the wrong shape
    or a bad label raise MalformedProfile."""
    shaped(obj, dict, "an individual")
    owner = shaped(obj["owner"], str, "owner")
    values = {}
    for c, v in shaped(obj["values"], dict, "values").items():
        shaped(v, (int, float), f"the value of {c}")
        cls = InteractionClass.parse(c)
        if cls in values:
            raise MalformedProfile(f"values name {cls.render()} twice")
        values[cls] = float(v)
    for cls in universe:
        if cls not in values:
            raise MalformedProfile(f"values miss {cls.render()}")
    if len(values) > len(universe):
        extra = next(c for c in values if c not in universe)
        raise MalformedProfile(f"values name {extra.render()}, outside the universe")
    return UtilityVector(owner, universe, values)


def utility_from_instances(
    instances: list[InteractionInstance],
    universe: Universe,
    combine: str = "sum",
    protein_id: str | None = None,
) -> UtilityVector:
    """Collapse one protein's instances into a utility vector.

    combine: "sum" of scores, "mean" of scores, or "count" of instances;
    classes with no instance get 0.0. Sums are math.fsum, correctly
    rounded on every Python version.
    """
    if combine not in ("sum", "mean", "count"):
        raise ValueError(f"unknown combine {combine!r}")
    owners = {inst.protein_id for inst in instances}
    if len(owners) > 1:
        raise MixedProteins(f"instances from several proteins: {sorted(owners)}")
    if protein_id is None:
        protein_id = owners.pop() if owners else ""

    # one pass into the slots' lists, stopping at the first stray class
    slot = {cls: i for i, cls in enumerate(universe)}
    groups: list[list[float]] = [[] for _ in universe]
    for inst in instances:
        i = slot.get(inst.interaction_class)
        if i is None:
            raise UniverseMismatch(
                f"instance class {inst.interaction_class.render()} outside universe"
            )
        groups[i].append(inst.score)

    values = []
    for scores in groups:
        if not scores or combine == "count":
            values.append(float(len(scores)))
            continue
        try:
            total = math.fsum(scores)
        except (OverflowError, ValueError):
            # no finite sum: sum's inf or nan is left for UtilityVector to reject
            total = sum(scores)
        values.append(total if combine == "sum" else total / len(scores))
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
    if not 0 <= tie_epsilon < math.inf:  # NaN fails too
        raise ValueError("tie_epsilon must be finite and >= 0")
    ordered = sorted(zip(u.universe, u.values), key=lambda cv: (-cv[1], cv[0]))
    tiers: list[list[InteractionClass]] = []
    prev = None
    for cls, val in ordered:
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
