"""Rules that aggregate a profile into one global preference.

Every ordinal rule returns an AggregationOutcome wrapping the complete
pairwise weak relation it decided. The outcome reads from that relation
whether it is transitive, its cycle witness when it is not, and its
ranking when it is. A rule that ranks classes by one number each keeps
those numbers instead, and the outcome builds its relation from them only
when the relation itself is read.
"""

from __future__ import annotations

import math
import operator
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat

from .aminoacids import InteractionClass, Universe
from .errors import BadIndex, NonFiniteUtility, TooLarge, TransformOverflow, WrongMode
from .preferences import RankingWithTies, UtilityVector
from .profiles import Profile

KEMENY_MAX_CLASSES = 8

Relation = tuple[tuple[bool, ...], ...]  # weak preference, row >= column
Counts = tuple[tuple[int, ...], ...]  # counts[i][j] = #{strictly prefer i to j}

# struct format of the unsigned int of each size in bytes
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass(frozen=True)
class AggregationOutcome:
    """The weak relation a rule decided over the universe's classes.

    `transitive`, `cycle_witness` and `ranking` are derived from the
    relation, each worked out once, when first read.

    An outcome made by _by_key holds its key, one number per class, in
    place of the relation. Its relation is built from the key on first
    read, and its derived reads come from the key alone, so they never
    build it. Such an outcome has the same fields, equality, hash, repr and
    JSON as one given the relation at construction.
    """

    rule_name: str
    universe: Universe
    relation: Relation

    _key = None  # set by _by_key only; not a field

    def __getattr__(self, name: str):
        # reached when normal lookup fails: a key-ranked outcome's relation
        # before its first read, or a property that raised AttributeError,
        # whose own error the second lookup raises again
        key = self._key
        if name != "relation" or key is None:
            return object.__getattribute__(self, name)
        relation = tuple(tuple(map(operator.le, key, repeat(ki))) for ki in key)
        object.__setattr__(self, "relation", relation)
        return relation

    @cached_property
    def _dominance(self) -> list[int]:
        """How many classes each class strictly beats. In a total
        preorder these counts are exactly the indifference tiers."""
        if self._key is not None:
            # class i strictly beats the classes with a smaller key
            ordered = sorted(self._key)
            return [bisect_left(ordered, k) for k in self._key]
        relation, m = self.relation, len(self.universe)
        if len(relation) != m or any(len(row) != m for row in relation):
            raise ValueError(
                f"relation must be {m} x {m}, one row and column per class"
            )
        return [
            sum(map(operator.gt, row, col)) for row, col in zip(relation, zip(*relation))
        ]

    @cached_property
    def _triple(self) -> tuple[int, int, int] | None:
        # a key orders the classes in a total preorder. Any other total
        # preorder is the order of its dominance counts, which takes O(m^2)
        # to confirm; only other relations need the triple scan
        if self._key is not None:
            return None
        key = self._dominance
        if all(
            row == tuple(k >= other for other in key)
            for row, k in zip(self.relation, key)
        ):
            return None
        return first_intransitive_triple(self.relation)

    @property
    def transitive(self) -> bool:
        return self._triple is None

    @cached_property
    def cycle_witness(self) -> tuple[InteractionClass, ...] | None:
        """The first (x, y, z) with x >= y >= z but not x >= z; see
        first_intransitive_triple."""
        triple = self._triple
        return None if triple is None else tuple(self.universe[i] for i in triple)

    @cached_property
    def ranking(self) -> RankingWithTies | None:
        """When the relation is transitive, the classes in tiers of equal
        dominance count, most dominant first, each tier in universe order;
        None otherwise."""
        if self._triple is not None:
            return None
        tiers: dict[int, list[InteractionClass]] = {}
        for cls, k in zip(self.universe, self._dominance):
            tiers.setdefault(k, []).append(cls)
        ordered = tuple(tuple(tiers[k]) for k in sorted(tiers, reverse=True))
        return RankingWithTies(self.rule_name, self.universe, ordered)

    def pair_value(self, i: int, j: int) -> float:
        """1.0 if class i beats class j, 0.0 if beaten, 0.5 on a tie."""
        fwd, back = self.relation[i][j], self.relation[j][i]
        if fwd and back:
            return 0.5
        return 1.0 if fwd else 0.0

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule_name,
            "universe": [c.render() for c in self.universe],
            "transitive": self.transitive,
            "tiers": (
                [[c.render() for c in t] for t in self.ranking.tiers]
                if self.ranking is not None
                else None
            ),
            "cycle_witness": (
                [c.render() for c in self.cycle_witness]
                if self.cycle_witness is not None
                else None
            ),
        }


@dataclass(frozen=True)
class UtilityTransform:
    """Shared positive finite rescaling plus finite per-protein offsets."""

    scale_alpha: float
    offsets_beta: dict[str, float]

    def __post_init__(self) -> None:
        alpha = self.scale_alpha
        if not 0 < alpha < math.inf:  # NaN fails too
            raise ValueError(f"scale_alpha must be positive and finite, got {alpha}")
        for protein_id, beta in self.offsets_beta.items():
            if not math.isfinite(beta):
                raise ValueError(f"offset of {protein_id!r} must be finite, got {beta}")


def first_intransitive_triple(relation: Relation) -> tuple[int, int, int] | None:
    """Lexicographically first triple of distinct indices (x, y, z) with
    x >= y and y >= z but not x >= z, or None when the relation is
    transitive. In a complete relation not x >= z means z > x, so the
    triple is a cycle; in an incomplete one x and z may be incomparable."""
    m = len(relation)
    for x in range(m):
        row_x = relation[x]
        for y in range(m):
            if y == x or not row_x[y]:
                continue
            row_y = relation[y]
            for z in range(m):
                if row_y[z] and not row_x[z] and z != x and z != y:
                    return x, y, z
    return None


def _by_key(rule_name: str, universe: Universe, key) -> AggregationOutcome:
    """The total preorder ranking classes by their key, one per slot:
    class i weakly beats class j when key[i] >= key[j].

    Keys are ints or finite floats, never NaN, so they are totally ordered.
    The outcome keeps the key and builds the m x m relation only when the
    relation is read; see AggregationOutcome.
    """
    outcome = object.__new__(AggregationOutcome)
    set_field = object.__setattr__
    set_field(outcome, "rule_name", rule_name)
    set_field(outcome, "universe", universe)
    set_field(outcome, "_key", tuple(key))
    return outcome


def outcome_distance(a: AggregationOutcome, b: AggregationOutcome) -> float:
    """Kendall distance extended to outcome relations, transitive or not."""
    if a.universe != b.universe:
        raise WrongMode("outcomes over different universes")
    m = len(a.universe)
    return sum(
        abs(a.pair_value(i, j) - b.pair_value(i, j))
        for i, j in combinations(range(m), 2)
    )


def _require_mode(profile: Profile, mode: str, rule_name: str) -> None:
    if profile.mode != mode:
        raise WrongMode(f"{rule_name} needs a {mode} profile, got {profile.mode}")


def majority_tournament(profile: Profile) -> Counts:
    """Pairwise strict-preference counts N(a > b) over the profile.

    Each class's row of counts is one Python int with a fixed-width field
    per class, laid out little-endian on every host. The field is the smallest
    of 1, 2, 4 or 8 bytes that holds n, so no count carries into the next
    field. For each individual, each class's field bit goes into the mask
    of its tier, and suffix sums turn each tier's mask into the mask of
    every class in a later tier; each class's row then adds the mask
    below its own tier. So the work is m big-int row adds per individual,
    however many pairs it orders. Each row is decoded once, by unpacking
    its little-endian bytes as unsigned ints of the field's size.
    """
    _require_mode(profile, "ordinal", "majority_tournament")
    individuals = profile.individuals
    m, n = profile.m, len(individuals)
    size = 1 if n < 1 << 8 else 2 if n < 1 << 16 else 4 if n < 1 << 32 else 8
    width = 8 * size
    bits = [1 << shift for shift in range(0, width * m, width)]
    rows = [0] * m
    for ind in individuals:
        slots = ind.slots()
        masks = [0] * ind._tier_count
        for bit, tier in zip(bits, slots):
            masks[tier] += bit
        # below[t]: the mask of every class in a tier after t
        below, rest = [0], 0
        for mask in masks[:0:-1]:
            rest += mask
            below.append(rest)
        below.reverse()
        rows = list(map(operator.add, rows, map(below.__getitem__, slots)))
    unpack = struct.Struct(f"<{m}{_UNSIGNED[size]}").unpack
    return tuple(unpack(row.to_bytes(m * size, "little")) for row in rows)


def may_rule(profile: Profile) -> AggregationOutcome:
    """Simple pairwise majority: a weakly beats b when at least as many
    individuals strictly prefer a to b as prefer b to a."""
    counts = majority_tournament(profile)
    # row i holds N(i > j) and column i holds N(j > i); the diagonal is 0 >= 0
    relation = tuple(
        tuple(map(operator.ge, row, col)) for row, col in zip(counts, zip(*counts))
    )
    return AggregationOutcome("may", profile.universe, relation)


def _borda_scores(profile: Profile) -> list[float]:
    """Borda score per universe slot.

    A strict individual scores each class m - 1 - its slot, so the strict
    individuals' slots are summed by column and each class gets
    (m - 1) * (their count) - (its column sum). Tied individuals are added
    up one at a time. Every score is a half, so the float sums are exact
    whatever order they are added in.
    """
    m = profile.m
    scores = [0.0] * m
    strict = []
    for ind in profile.individuals:
        if ind._tier_count == m:
            strict.append(ind.slots())
            continue
        below, tier_scores = m, []
        for tier in ind.tiers:
            below -= len(tier)
            # ties share the midpoint of the positions the tier spans
            tier_scores.append(below + (len(tier) - 1) / 2.0)
        for i, tier in enumerate(ind.slots()):
            scores[i] += tier_scores[tier]
    if strict:
        top = (m - 1) * len(strict)
        columns = map(sum, zip(*strict))
        scores = [score + (top - column) for score, column in zip(scores, columns)]
    return scores


def borda(profile: Profile) -> AggregationOutcome:
    """Positional scoring: each class earns the count of classes strictly
    below it per individual, ties sharing the midpoint; sums rank."""
    _require_mode(profile, "ordinal", "borda")
    return _by_key("borda", profile.universe, _borda_scores(profile))


def kemeny(profile: Profile) -> AggregationOutcome:
    """Strict order minimizing total Kendall distance to the profile.

    Dynamic programming over subsets of classes on the majority
    tournament (Betzler et al. 2009): O(2^m * m) once the tournament is
    counted, so the search does not grow with the number of individuals
    (class count capped at 8). Among distance ties the lexicographically
    first order wins, as if all m! orders were scanned in permutation
    order, so the result is deterministic but deliberately not neutral on
    tie profiles.
    """
    _require_mode(profile, "ordinal", "kemeny")
    universe = profile.universe
    m = len(universe)
    if m > KEMENY_MAX_CLASSES:
        raise TooLarge(f"kemeny supports at most {KEMENY_MAX_CLASSES} classes")
    counts = majority_tournament(profile)
    n = profile.n
    size = 1 << m
    # lead[c][s]: distance, in halves, paid on the pairs {c, j} for j in bit
    # set s when c is ranked above all of them; per pair that is 2 for each
    # individual preferring j and 1 for each indifferent one
    lead = []
    for c, column in enumerate(zip(*counts)):
        cost = [beats_c + n - beaten for beats_c, beaten in zip(column, counts[c])]
        cost[c] = 0
        row = [0] * size
        for s in range(1, size):
            low = s & -s
            row[s] = row[s ^ low] + cost[low.bit_length() - 1]
        lead.append(row)
    # best[s]: least cost of ordering the classes of bit set s among
    # themselves; first[s]: the smallest class leading such an order, as
    # the loops walk the set bits of s lowest first
    best = [0] * size
    first = [0] * size
    for s in range(1, size):
        rest, least = s, None
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            cand = lead[c][s] + best[s ^ low]
            if least is None or cand < least:
                least, first[s] = cand, c
        best[s] = least
    # following first from the full set rebuilds the lexicographically
    # first optimal order; each class is keyed by how many classes it is
    # placed above
    key = [0] * m
    left = size - 1
    while left:
        c = first[left]
        left ^= 1 << c
        key[c] = left.bit_count()
    return _by_key("kemeny", universe, key)


def dictator(profile: Profile, k: int) -> AggregationOutcome:
    """Copy individual k's ranking (1-based); a negative control rule."""
    _require_mode(profile, "ordinal", "dictator")
    check_dictator_index(k, profile.n)
    slots = profile.individuals[k - 1].slots()
    return _by_key(f"dictator[{k}]", profile.universe, [-tier for tier in slots])


def check_dictator_index(k: int, n: int) -> None:
    """Raise BadIndex unless k, an int (not a bool), names one of n
    individuals, counting from 1."""
    if type(k) is bool or not isinstance(k, int):
        raise BadIndex(f"dictator index must be an int, got {k!r}")
    if not 1 <= k <= n:
        raise BadIndex(f"dictator index {k} outside 1..{n}")


def utilitarian(profile: Profile) -> AggregationOutcome:
    """Rank classes by the sum of individual utilities.

    Sums use math.fsum, so the outcome is exactly invariant under
    individual reordering. A sum past the float range raises
    NonFiniteUtility naming its class.
    """
    _require_mode(profile, "utility", "utilitarian")
    totals: list[float] = []
    try:
        for column in zip(*(ind.values for ind in profile.individuals)):
            totals.append(math.fsum(column))
    except OverflowError:
        cls = profile.universe[len(totals)].render()
        raise NonFiniteUtility(f"summed utility of {cls} overflows") from None
    return _by_key("utilitarian", profile.universe, totals)


def apply_transform(profile: Profile, transform: UtilityTransform) -> Profile:
    """Rescale every utility by the shared alpha and shift each protein
    by its own beta; such transforms must not change the utilitarian
    outcome. A moved utility that overflows raises TransformOverflow,
    naming the protein, the class and the transform's parameters."""
    _require_mode(profile, "utility", "apply_transform")
    alpha = transform.scale_alpha
    individuals = []
    for ind in profile.individuals:
        beta = transform.offsets_beta.get(ind.protein_id, 0.0)
        values = tuple(alpha * v + beta for v in ind.values)
        for cls, v, moved in zip(ind.universe, ind.values, values):
            if not math.isfinite(moved):
                raise TransformOverflow(
                    f"scale_alpha {alpha!r} and offset {beta!r} of protein "
                    f"{ind.protein_id!r} send utility {v!r} of {cls.render()} to {moved!r}"
                )
        individuals.append(UtilityVector(ind.protein_id, ind.universe, values))
    return Profile(profile.universe, tuple(individuals), "utility")


@dataclass(frozen=True)
class Rule:
    """In-process rule interface: a name, a callable, and its input mode.

    A rule whose outcome depends only on the pairwise counts N(a > b) and
    n (a C2 rule, as may, Borda and Kemeny are) may set `pairwise`;
    exhaustive audits then run it once per count matrix and give its
    outcome to every profile with that matrix.
    """

    name: str
    fn: object  # Profile -> AggregationOutcome
    mode: str = "ordinal"
    pairwise: bool = False

    def __call__(self, profile: Profile) -> AggregationOutcome:
        return self.fn(profile)


def standard_rules(dictator_index: int = 1) -> dict[str, Rule]:
    return {
        "may": Rule("may", may_rule, pairwise=True),
        "borda": Rule("borda", borda, pairwise=True),
        "kemeny": Rule("kemeny", kemeny, pairwise=True),
        "dictator": Rule(
            f"dictator[{dictator_index}]",
            lambda p, _k=dictator_index: dictator(p, _k),
        ),
        "utilitarian": Rule("utilitarian", utilitarian, mode="utility"),
    }
