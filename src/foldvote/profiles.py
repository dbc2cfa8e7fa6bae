"""Profiles of per-protein preferences and distances between them.

The ranking distance is Kendall tau generalized to ties: oppositely
ordered pairs count 1, pairs tied in exactly one ranking count 1/2.
Summed over aligned individuals it gives the profile distance.

It is counted, not compared pair by pair, with O(m log m) comparisons
for m classes: in halves it is T_a + T_b - 2 T_ab + 2 D, where T_a and
T_b are the pairs tied in each ranking, T_ab those tied in both, and D
those ordered strictly opposite (Knight 1966).
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass

from .aminoacids import CLASSES, Universe
from .errors import BadSpec, Incompatible, MalformedProfile, UniverseMismatch
from .preferences import (
    RankingWithTies,
    UtilityVector,
    json_faults,
    ranking_from_json,
    shaped,
    universe_from_json,
    utility_from_json,
)

SYNTH_KINDS = ("impartial_culture", "single_peaked", "condorcet_cycle")

# Seeded randomness uses the stdlib Mersenne Twister (random.Random), so
# generated profiles are reproducible across platforms and sessions for a
# fixed seed. Shuffles and index draws read its documented getrandbits
# output directly, drawing what Random.shuffle and Random.choice draw on
# CPython 3.10-3.13; tests/test_preferences.py checks both against them.


def _choice(rng: random.Random, seq):
    """A uniform pick from a non-empty sequence, as Random.choice picks
    it: the index is len(seq).bit_length() random bits, drawn again while
    it reaches len(seq)."""
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return seq[i]


def _shuffled(rng: random.Random, items) -> list:
    """The items in a list shuffled as Random.shuffle shuffles them: a
    Fisher-Yates pass from the end, each swap index over range(i + 1)
    drawn as _choice draws its index (inlined, with getrandbits bound
    once)."""
    out = list(items)
    getrandbits = rng.getrandbits
    for i in range(len(out) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class Profile:
    universe: Universe
    individuals: tuple
    mode: str = "ordinal"  # "ordinal" | "utility"

    def __post_init__(self) -> None:
        if self.mode not in ("ordinal", "utility"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.individuals) < 2:
            raise ValueError("a profile needs at least 2 individuals")
        want = RankingWithTies if self.mode == "ordinal" else UtilityVector
        for ind in self.individuals:
            if not isinstance(ind, want):
                raise ValueError(
                    f"{self.mode} profile holds a {type(ind).__name__}"
                )
            if ind.universe != self.universe:
                raise UniverseMismatch("individual universe differs from profile")

    @property
    def n(self) -> int:
        return len(self.individuals)

    @property
    def m(self) -> int:
        return len(self.universe)

    def to_json_dict(self) -> dict:
        labels = [c.render() for c in self.universe]
        if self.mode == "ordinal":
            individuals = [
                {"owner": r.owner, "tiers": [[c.render() for c in t] for t in r.tiers]}
                for r in self.individuals
            ]
        else:
            individuals = [
                {"owner": u.protein_id, "values": dict(zip(labels, u.values))}
                for u in self.individuals
            ]
        return {"universe": labels, "mode": self.mode, "individuals": individuals}

    @staticmethod
    def from_json_dict(obj: dict) -> Profile:
        """The profile a JSON object describes. A value that is not an
        object, a missing key, a field of the wrong shape, a bad label,
        tiers that do not partition the universe or fewer than 2
        individuals raise MalformedProfile."""
        with json_faults():
            universe = universe_from_json(shaped(obj, dict, "a profile"))
            mode = obj.get("mode", "ordinal")
            if mode not in ("ordinal", "utility"):
                raise MalformedProfile(
                    f'mode must be "ordinal" or "utility", got {mode!r}'
                )
            read = ranking_from_json if mode == "ordinal" else utility_from_json
            individuals = tuple(
                read(ind, universe)
                for ind in shaped(obj["individuals"], list, "individuals")
            )
            return Profile(universe, individuals, mode)


def kendall_distance(a: RankingWithTies, b: RankingWithTies) -> float:
    """Tie-aware Kendall tau distance between two rankings.

    Each unordered class pair contributes |v_a - v_b| where v is 1, 1/2,
    or 0 for preferred / tied / dispreferred; so opposite strict orders
    contribute 1 and a tie against a strict order contributes 1/2.
    Contributions are halves, so float sums stay exact.
    """
    if a.universe != b.universe:
        raise UniverseMismatch("rankings over different universes")
    return _kendall_slots(a.slots(), b.slots())


def _kendall_slots(sa: tuple[int, ...], sb: tuple[int, ...]) -> float:
    """kendall_distance on two rankings given by their slots()."""
    # in halves a pair tied in exactly one ranking adds 1 and an opposite
    # pair adds 2. Sorted by (a, b), a pair tied in a has its b values
    # ascending, so counting the earlier b values above each b counts
    # exactly the pairs ordered strictly opposite. (insort also shifts up
    # to m list entries per insert, but as one memmove.)
    pairs = sorted(zip(sa, sb))
    seen: list[int] = []
    discordant = 0
    for _, b in pairs:
        discordant += len(seen) - bisect_right(seen, b)
        insort(seen, b)
    return (_tied(sa) + _tied(sb) - 2 * _tied(pairs) + 2 * discordant) / 2


def _tied(values) -> int:
    """The number of unordered pairs of equal values."""
    return sum(k * (k - 1) for k in Counter(values).values()) // 2


def _summed_kendall(a, b) -> float:
    """Sum of Kendall distances between aligned rankings given by their
    slots(), both over one universe."""
    return sum(map(_kendall_slots, a, b))


def profile_distance(a: Profile, b: Profile) -> float:
    """Sum of Kendall distances between aligned individuals."""
    if a.mode != "ordinal" or b.mode != "ordinal":
        raise Incompatible("profile distance is defined for ordinal profiles")
    if a.n != b.n:
        raise Incompatible(f"profile sizes differ: {a.n} vs {b.n}")
    if a.universe != b.universe:
        raise Incompatible("profiles over different universes")
    return _summed_kendall(
        [r.slots() for r in a.individuals], [r.slots() for r in b.individuals]
    )


def _integers(**values) -> None:
    """BadSpec naming the first value that is not an integer: what
    operator.index takes (numpy integers too), but not a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise BadSpec(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    m: int
    n: int
    seed: int = 0


def synthetic_universe(m: int) -> Universe:
    """First m interaction classes of the full 210-class universe."""
    if not 1 <= m <= len(CLASSES):
        raise BadSpec(f"m must be in 1..{len(CLASSES)}, got {m}")
    return CLASSES[:m]


def generate(spec: SynthSpec) -> Profile:
    """Deterministically generate a synthetic ordinal profile.

    Kinds: impartial_culture (uniform strict orders), single_peaked
    (strict orders single-peaked on a seeded random axis), and
    condorcet_cycle (the classic 3-template rotation, n must be a
    multiple of 3). Same spec, same profile.
    """
    if spec.kind not in SYNTH_KINDS:
        raise BadSpec(f"unknown kind {spec.kind!r}")
    _integers(m=spec.m, n=spec.n, seed=spec.seed)
    if spec.n < 2:
        raise BadSpec("n must be >= 2")
    universe = synthetic_universe(spec.m)
    rng = random.Random(int(spec.seed))  # random.Random takes Python ints only
    owners = [f"v{i + 1}" for i in range(spec.n)]
    # orders are drawn as class indices: a shuffle consumes the generator
    # the same way whatever it shuffles
    slots = list(range(spec.m))

    if spec.kind == "condorcet_cycle":
        if spec.m < 3:
            raise BadSpec("condorcet_cycle needs m >= 3")
        if spec.n % 3 != 0:
            raise BadSpec("condorcet_cycle needs n divisible by 3")
        rest = slots[3:]
        templates = [[0, 1, 2] + rest, [1, 2, 0] + rest, [2, 0, 1] + rest]
        orders = [templates[i % 3] for i in range(spec.n)]
    elif spec.kind == "impartial_culture":
        orders = [_shuffled(rng, slots) for _ in range(spec.n)]
    else:  # single_peaked
        axis = _shuffled(rng, slots)
        orders = [_single_peaked_order(rng, axis) for _ in range(spec.n)]

    individuals = tuple(
        RankingWithTies.from_slot_order(owner, universe, order)
        for owner, order in zip(owners, orders)
    )
    return Profile(universe, individuals, "ordinal")


def _single_peaked_order(rng: random.Random, axis: list) -> list:
    """A strict order single-peaked on the axis: walk out from a random
    peak, taking the nearer-left or nearer-right frontier at random."""
    m = len(axis)
    peak = rng.randrange(m)
    order = [axis[peak]]
    left, right = peak - 1, peak + 1
    while left >= 0 or right < m:
        if left < 0:
            take_right = True
        elif right >= m:
            take_right = False
        else:
            take_right = rng.randrange(2) == 1
        if take_right:
            order.append(axis[right])
            right += 1
        else:
            order.append(axis[left])
            left -= 1
    return order
