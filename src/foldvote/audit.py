"""Mechanical axiom audits for aggregation rules.

Rules are treated as black boxes: the engine enumerates (or samples)
profile spaces, applies each axiom's defining transformation, and hands
back a pass-within-search verdict or a fail with a minimal witness that
re-verifies by re-running the rule on the embedded profiles.

Exhaustive ordinal spaces enumerate all strict-order profiles over the
first m classes of the standard universe; exhaustive utility spaces
enumerate vectors over the rational grid {0, 0.5, 1} per class. Sampled
spaces draw from a seeded Mersenne Twister, so passes are always
qualified by the space actually searched. Witness minimality: searches
enumerate profiles lexicographically and report the first violation
under (profile, partner profile, class pair) ordering.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .errors import BadSpec, BudgetExceeded, InapplicableAxiom
from .preferences import RankingWithTies, Universe, UtilityVector
from .profiles import Profile, _fisher_yates, synthetic_universe
from .rules import (
    AggregationOutcome,
    borda,
    dictator,
    kemeny,
    may_rule,
    utilitarian,
)


class AxiomId(str, Enum):
    AGREEMENT = "agreement"
    TRANSITIVITY = "transitivity"
    UNRESTRICTED_DOMAIN = "unrestricted_domain"
    UNANIMITY = "unanimity"
    ANONYMITY = "anonymity"
    NON_DICTATORSHIP = "non_dictatorship"
    NEUTRALITY = "neutrality"
    IIA = "iia"
    PROXIMITY_PRESERVATION = "proximity_preservation"
    POSITIVE_RESPONSIVENESS = "positive_responsiveness"
    MONOTONIC_RESPONSIVENESS = "monotonic_responsiveness"
    UTILITY_IIA = "utility_iia"
    STRICT_UNANIMITY = "strict_unanimity"
    # operational labels for the two dedicated checks
    MAY_COINCIDENCE = "may_coincidence"
    CONTINUITY = "continuity"


ORDINAL_AXIOMS = frozenset(
    {
        AxiomId.AGREEMENT,
        AxiomId.TRANSITIVITY,
        AxiomId.UNRESTRICTED_DOMAIN,
        AxiomId.UNANIMITY,
        AxiomId.ANONYMITY,
        AxiomId.NON_DICTATORSHIP,
        AxiomId.NEUTRALITY,
        AxiomId.IIA,
        AxiomId.PROXIMITY_PRESERVATION,
        AxiomId.POSITIVE_RESPONSIVENESS,
        AxiomId.MONOTONIC_RESPONSIVENESS,
    }
)
UTILITY_AXIOMS = frozenset({AxiomId.UTILITY_IIA, AxiomId.STRICT_UNANIMITY})

ARROW_AXIOMS = (
    AxiomId.AGREEMENT,
    AxiomId.TRANSITIVITY,
    AxiomId.UNRESTRICTED_DOMAIN,
    AxiomId.UNANIMITY,
    AxiomId.NON_DICTATORSHIP,
    AxiomId.IIA,
)

# the classical simple-majority characterization premises
MAY_PREMISES = (
    AxiomId.UNANIMITY,
    AxiomId.ANONYMITY,
    AxiomId.NEUTRALITY,
    AxiomId.POSITIVE_RESPONSIVENESS,
)

BUDGET_LIMIT = 10_000_000
UTILITY_GRID = (0.0, 0.5, 1.0)

PROXIMITY_NOTE = (
    "distance instantiation fixed to Kendall tau with half-weight ties at "
    "both profile and outcome level; the underlying impossibility is "
    "existential over distance pairs, so this verdict speaks only for the "
    "fixed instantiation"
)

PASS = "pass_within_search"
FAIL = "fail"


@dataclass(frozen=True)
class SearchSpace:
    mode: str  # "exhaustive" | "sampled"
    m: int
    n: int
    trials: int | None = None
    seed: int | None = None


def exhaustive(m: int, n: int) -> SearchSpace:
    return SearchSpace("exhaustive", m, n)


def sampled(m: int, n: int, trials: int, seed: int) -> SearchSpace:
    _require_trials(trials)
    return SearchSpace("sampled", m, n, trials, seed)


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise BadSpec(f"trials must be >= 1, got {trials}")


@dataclass(frozen=True)
class Rule:
    """In-process rule interface: a name, a callable, and its input mode."""

    name: str
    fn: object  # Profile -> AggregationOutcome
    mode: str = "ordinal"

    def __call__(self, profile: Profile) -> AggregationOutcome:
        return self.fn(profile)


def standard_rules(dictator_index: int = 1) -> dict[str, Rule]:
    return {
        "may": Rule("may", may_rule),
        "borda": Rule("borda", borda),
        "kemeny": Rule("kemeny", kemeny),
        "dictator": Rule(
            f"dictator[{dictator_index}]",
            lambda p, _k=dictator_index: dictator(p, _k),
        ),
        "utilitarian": Rule("utilitarian", utilitarian, mode="utility"),
    }


@dataclass(frozen=True)
class AuditResult:
    rule_name: str
    axiom: AxiomId
    verdict: str
    witness: dict | None
    search_budget: str
    seed: int | None = None
    notes: str | None = None

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_json_dict(self) -> dict:
        return {
            "rule_name": self.rule_name,
            "axiom": self.axiom.value,
            "verdict": self.verdict,
            "witness": self.witness,
            "search_budget": self.search_budget,
            "seed": self.seed,
            "notes": self.notes,
        }


# --------------------------------------------------------------------------
# enumeration backends


class _StrictSpace:
    """All strict-order profiles over the first m standard classes,
    enumerated lexicographically (itertools.product order)."""

    def __init__(self, m: int, n: int):
        self.universe: Universe = synthetic_universe(m)
        self.m = m
        self.n = n
        self.orders = list(permutations(range(m)))
        self.P = len(self.orders)
        self.count = self.P**n
        self.positions = []
        for order in self.orders:
            pos = [0] * m
            for rank, cls in enumerate(order):
                pos[cls] = rank
            self.positions.append(tuple(pos))
        self.pairs = list(combinations(range(m), 2))
        self._rankings: dict[tuple[int, int], RankingWithTies] = {}
        self._profiles: dict[int, Profile] = {}

    def combo_at(self, idx: int) -> tuple[int, ...]:
        out = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            idx, out[i] = divmod(idx, self.P)
        return tuple(out)

    def index_of(self, combo: tuple[int, ...]) -> int:
        idx = 0
        for digit in combo:
            idx = idx * self.P + digit
        return idx

    def strict_bit(self, order_idx: int, i: int, j: int) -> bool:
        pos = self.positions[order_idx]
        return pos[i] < pos[j]

    def ranking(self, position: int, order_idx: int) -> RankingWithTies:
        key = (position, order_idx)
        ranking = self._rankings.get(key)
        if ranking is None:
            order = self.orders[order_idx]
            ranking = RankingWithTies.from_strict_order(
                f"v{position + 1}",
                self.universe,
                tuple(self.universe[c] for c in order),
            )
            self._rankings[key] = ranking
        return ranking

    def profile_at(self, idx: int) -> Profile:
        profile = self._profiles.get(idx)
        if profile is None:
            combo = self.combo_at(idx)
            profile = Profile(
                self.universe,
                tuple(self.ranking(i, k) for i, k in enumerate(combo)),
                "ordinal",
            )
            if len(self._profiles) < 100_000:
                self._profiles[idx] = profile
        return profile


class _GridSpace:
    """All utility profiles over the rational grid, enumerated
    lexicographically by (individual, class) digit."""

    def __init__(self, m: int, n: int):
        self.universe: Universe = synthetic_universe(m)
        self.m = m
        self.n = n
        self.V = len(UTILITY_GRID) ** m
        self.count = self.V**n
        self.pairs = list(combinations(range(m), 2))
        self._profiles: dict[int, Profile] = {}

    def values_at(self, vec_idx: int) -> tuple[float, ...]:
        base = len(UTILITY_GRID)
        out = [0.0] * self.m
        for i in range(self.m - 1, -1, -1):
            vec_idx, digit = divmod(vec_idx, base)
            out[i] = UTILITY_GRID[digit]
        return tuple(out)

    def combo_at(self, idx: int) -> tuple[int, ...]:
        out = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            idx, out[i] = divmod(idx, self.V)
        return tuple(out)

    def profile_at(self, idx: int) -> Profile:
        profile = self._profiles.get(idx)
        if profile is None:
            combo = self.combo_at(idx)
            individuals = tuple(
                UtilityVector(
                    f"v{i + 1}",
                    self.universe,
                    dict(zip(self.universe, self.values_at(v))),
                )
                for i, v in enumerate(combo)
            )
            profile = Profile(self.universe, individuals, "utility")
            if len(self._profiles) < 100_000:
                self._profiles[idx] = profile
        return profile


class _Evaluator:
    """Caches rule outcomes per profile index."""

    def __init__(self, space, rule: Rule):
        self.space = space
        self.rule = rule
        self._cache: dict[int, AggregationOutcome] = {}

    def outcome(self, idx: int) -> AggregationOutcome:
        out = self._cache.get(idx)
        if out is None:
            out = self.rule(self.space.profile_at(idx))
            if len(self._cache) < 100_000:
                self._cache[idx] = out
        return out

    def value(self, idx: int, i: int, j: int) -> float:
        return self.outcome(idx).pair_value(i, j)


def _profile_json(profile: Profile) -> dict:
    return profile.to_json_dict()


def _pair_label(universe: Universe, i: int, j: int) -> list[str]:
    return [universe[i].render(), universe[j].render()]


# --------------------------------------------------------------------------
# exhaustive ordinal audits


def _audit_agreement(space: _StrictSpace, ev: _Evaluator):
    for idx in range(space.count):
        relation = ev.outcome(idx).relation
        for i, j in space.pairs:
            if not (relation[i][j] or relation[j][i]):
                return FAIL, {
                    "profile": _profile_json(space.profile_at(idx)),
                    "incomparable_pair": _pair_label(space.universe, i, j),
                }
    return PASS, None


def _find_intransitive_triple(relation) -> tuple[int, int, int] | None:
    m = len(relation)
    for i in range(m):
        for j in range(m):
            if i == j or not relation[i][j]:
                continue
            for k in range(m):
                if k not in (i, j) and relation[j][k] and not relation[i][k]:
                    return i, j, k
    return None


def _audit_transitivity(space: _StrictSpace, ev: _Evaluator):
    for idx in range(space.count):
        triple = _find_intransitive_triple(ev.outcome(idx).relation)
        if triple is not None:
            i, j, k = triple
            return FAIL, {
                "profile": _profile_json(space.profile_at(idx)),
                "violating_triple": [
                    space.universe[i].render(),
                    space.universe[j].render(),
                    space.universe[k].render(),
                ],
            }
    return PASS, None


def _audit_unrestricted_domain(space, ev: _Evaluator):
    for idx in range(space.count):
        try:
            ev.outcome(idx)
        except Exception as exc:  # any failure to produce an outcome
            return FAIL, {
                "profile": _profile_json(space.profile_at(idx)),
                "error": f"{type(exc).__name__}: {exc}",
            }
    return PASS, None


def _audit_unanimity(space: _StrictSpace, ev: _Evaluator):
    for idx in range(space.count):
        combo = space.combo_at(idx)
        for i, j in space.pairs:
            bits = [space.strict_bit(o, i, j) for o in combo]
            if all(bits):
                a, b = i, j
            elif not any(bits):
                a, b = j, i
            else:
                continue
            got = ev.value(idx, a, b)
            if got != 1.0:
                return FAIL, {
                    "profile": _profile_json(space.profile_at(idx)),
                    "pair": _pair_label(space.universe, a, b),
                    "unanimous_value": 1.0,
                    "outcome_value": got,
                }
    return PASS, None


def _audit_anonymity(space: _StrictSpace, ev: _Evaluator):
    for idx in range(space.count):
        combo = space.combo_at(idx)
        base_relation = ev.outcome(idx).relation
        for sigma in permutations(range(space.n)):
            permuted = tuple(combo[s] for s in sigma)
            if permuted == combo:
                continue
            other_idx = space.index_of(permuted)
            if ev.outcome(other_idx).relation != base_relation:
                return FAIL, {
                    "profile": _profile_json(space.profile_at(idx)),
                    "individual_permutation": list(sigma),
                    "permuted_profile": _profile_json(space.profile_at(other_idx)),
                }
    return PASS, None


def _audit_neutrality(space: _StrictSpace, ev: _Evaluator):
    order_index = {order: k for k, order in enumerate(space.orders)}
    m = space.m
    identity = tuple(range(m))
    for idx in range(space.count):
        combo = space.combo_at(idx)
        relation = ev.outcome(idx).relation
        for pi in permutations(range(m)):
            if pi == identity:
                continue
            inv = [0] * m
            for old, new in enumerate(pi):
                inv[new] = old
            relabeled = tuple(
                order_index[tuple(pi[c] for c in space.orders[o])] for o in combo
            )
            expected = tuple(
                tuple(relation[inv[x]][inv[y]] for y in range(m)) for x in range(m)
            )
            relabeled_idx = space.index_of(relabeled)
            got = ev.outcome(relabeled_idx).relation
            if got != expected:
                return FAIL, {
                    "profile": _profile_json(space.profile_at(idx)),
                    "class_permutation": list(pi),
                    "relabeled_profile": _profile_json(
                        space.profile_at(relabeled_idx)
                    ),
                    "expected_relation": [list(map(bool, r)) for r in expected],
                    "actual_relation": [list(map(bool, r)) for r in got],
                }
    return PASS, None


def _audit_non_dictatorship(space: _StrictSpace, ev: _Evaluator):
    overruled = [False] * space.n
    for idx in range(space.count):
        combo = space.combo_at(idx)
        for k in range(space.n):
            if overruled[k]:
                continue
            for i, j in space.pairs:
                a, b = (i, j) if space.strict_bit(combo[k], i, j) else (j, i)
                if ev.value(idx, a, b) != 1.0:
                    overruled[k] = True
                    break
        if all(overruled):
            return PASS, None
    k0 = overruled.index(False)
    demo_idx = _dictator_demo(space, k0)
    outcome = ev.outcome(demo_idx)
    return FAIL, {
        "dictator_index": k0 + 1,
        "demo_profile": _profile_json(space.profile_at(demo_idx)),
        "demo_outcome_tiers": (
            [[c.render() for c in t] for t in outcome.ranking.tiers]
            if outcome.ranking is not None
            else None
        ),
    }


def _dictator_demo(space: _StrictSpace, k0: int) -> int:
    # the never-overruled individual gets the lexicographic order,
    # everyone else its reverse, so the outcome visibly follows k0
    reverse = space.orders.index(tuple(reversed(space.orders[0])))
    combo = tuple(0 if i == k0 else reverse for i in range(space.n))
    return space.index_of(combo)


def _audit_iia(space: _StrictSpace, ev: _Evaluator):
    # Group profiles by the per-individual relation on each pair; any two
    # profiles of a group satisfy the premise, so their outcomes must
    # agree on that pair.
    mixed_min: list[int] = []
    groups_by_pair: list[dict[tuple[bool, ...], list[int]]] = []
    for i, j in space.pairs:
        groups: dict[tuple[bool, ...], list[int]] = {}
        for idx in range(space.count):
            combo = space.combo_at(idx)
            key = tuple(space.strict_bit(o, i, j) for o in combo)
            groups.setdefault(key, []).append(idx)
        groups_by_pair.append(groups)
        for members in groups.values():
            if len({ev.value(idx, i, j) for idx in members}) > 1:
                mixed_min.append(members[0])
    if not mixed_min:
        return PASS, None
    first = min(mixed_min)
    combo = space.combo_at(first)
    candidates = []
    for p_idx, (i, j) in enumerate(space.pairs):
        key = tuple(space.strict_bit(o, i, j) for o in combo)
        base_value = ev.value(first, i, j)
        for other in groups_by_pair[p_idx][key]:
            if other != first and ev.value(other, i, j) != base_value:
                candidates.append((other, p_idx, i, j))
                break
    other, _, i, j = min(candidates)
    return FAIL, {
        "profile_a": _profile_json(space.profile_at(first)),
        "profile_b": _profile_json(space.profile_at(other)),
        "pair": _pair_label(space.universe, i, j),
        "value_a": ev.value(first, i, j),
        "value_b": ev.value(other, i, j),
    }


def _audit_responsiveness(space: _StrictSpace, ev: _Evaluator, positive: bool):
    # Premise: exactly one individual's (a, b) relation moves, strictly
    # upward for a; everyone else keeps their (a, b) relation while their
    # other pairs may move freely. Conclusion: a weakly on top before
    # implies a strictly (positive) or still weakly (monotonic) on top
    # after the uplift.
    ordered_pairs = sorted(
        [(i, j) for i, j in space.pairs] + [(j, i) for i, j in space.pairs]
    )
    group_cache: dict[tuple[int, int], dict[tuple[bool, ...], list[int]]] = {}

    def groups_for(a: int, b: int):
        got = group_cache.get((a, b))
        if got is None:
            got = {}
            for idx in range(space.count):
                combo = space.combo_at(idx)
                key = tuple(space.strict_bit(o, a, b) for o in combo)
                got.setdefault(key, []).append(idx)
            group_cache[(a, b)] = got
        return got

    for idx in range(space.count):
        candidates = []
        combo = space.combo_at(idx)
        for p_rank, (a, b) in enumerate(ordered_pairs):
            if ev.value(idx, a, b) < 0.5:
                continue  # conclusion unarmed
            key = tuple(space.strict_bit(o, a, b) for o in combo)
            groups = groups_for(a, b)
            for uplift_j in range(space.n):
                if key[uplift_j]:
                    continue  # already prefers a; no strict uplift
                lifted = key[:uplift_j] + (True,) + key[uplift_j + 1 :]
                for other in groups.get(lifted, ()):
                    after = ev.value(other, a, b)
                    bad = (after != 1.0) if positive else (after < 0.5)
                    if bad:
                        candidates.append((other, p_rank, uplift_j, a, b, after))
                        break
        if candidates:
            other, _, uplift_j, a, b, after = min(candidates)
            return FAIL, {
                "profile_before": _profile_json(space.profile_at(idx)),
                "profile_after": _profile_json(space.profile_at(other)),
                "uplifted_individual": uplift_j + 1,
                "pair": _pair_label(space.universe, a, b),
                "value_before": ev.value(idx, a, b),
                "value_after": after,
            }
    return PASS, None


def _audit_proximity(space: _StrictSpace, ev: _Evaluator):
    # Tables first: per-individual order distances and outcome pair
    # values; then per base profile ask whether input-closer ever maps
    # to output-farther.
    P = space.P
    order_dist = [[0.0] * P for _ in range(P)]
    for o1 in range(P):
        for o2 in range(o1 + 1, P):
            d = sum(
                abs(
                    float(space.strict_bit(o1, i, j))
                    - float(space.strict_bit(o2, i, j))
                )
                for i, j in space.pairs
            )
            order_dist[o1][o2] = order_dist[o2][o1] = d

    count = space.count
    combos = [space.combo_at(idx) for idx in range(count)]
    out_values = [
        [ev.value(idx, i, j) for i, j in space.pairs] for idx in range(count)
    ]

    def profile_d(x: int, y: int) -> float:
        return sum(order_dist[a][b] for a, b in zip(combos[x], combos[y]))

    def outcome_d(x: int, y: int) -> float:
        return sum(abs(u - v) for u, v in zip(out_values[x], out_values[y]))

    def base_violated(base: int) -> bool:
        by_D: dict[float, list[float]] = {}
        for other in range(count):
            by_D.setdefault(profile_d(base, other), []).append(
                outcome_d(base, other)
            )
        running_max = None
        for D in sorted(by_D):
            ds = by_D[D]
            if max(ds) != min(ds):
                return True  # equal input distance, unequal output distance
            if running_max is not None and running_max > ds[0]:
                return True  # closer input, farther output
            running_max = ds[0] if running_max is None else max(running_max, ds[0])
        return False

    for base in range(count):
        if not base_violated(base):
            continue
        for j in range(count):
            Dj, dj = profile_d(base, j), outcome_d(base, j)
            for k in range(count):
                if Dj <= profile_d(base, k) and dj > outcome_d(base, k):
                    return FAIL, {
                        "profile_base": _profile_json(space.profile_at(base)),
                        "profile_near_input": _profile_json(space.profile_at(j)),
                        "profile_far_input": _profile_json(space.profile_at(k)),
                        "D_near": Dj,
                        "D_far": profile_d(base, k),
                        "d_near": dj,
                        "d_far": outcome_d(base, k),
                    }
    return PASS, None


# --------------------------------------------------------------------------
# exhaustive utility audits


def _audit_strict_unanimity(space: _GridSpace, ev: _Evaluator):
    for idx in range(space.count):
        combo = space.combo_at(idx)
        vectors = [space.values_at(v) for v in combo]
        for i, j in space.pairs:
            ge = all(vec[i] >= vec[j] for vec in vectors)
            le = all(vec[i] <= vec[j] for vec in vectors)
            if ge and le:  # exact unanimity of values
                expected = 0.5
                a, b = i, j
            elif ge:
                expected = 1.0
                a, b = i, j
            elif le:
                expected = 1.0
                a, b = j, i
            else:
                continue
            got = ev.value(idx, a, b)
            if got != expected:
                return FAIL, {
                    "profile": _profile_json(space.profile_at(idx)),
                    "pair": _pair_label(space.universe, a, b),
                    "expected_value": expected,
                    "outcome_value": got,
                }
    return PASS, None


def _audit_utility_iia(space: _GridSpace, ev: _Evaluator):
    mixed_min: list[int] = []
    groups_by_pair: list[dict[tuple, list[int]]] = []
    for i, j in space.pairs:
        groups: dict[tuple, list[int]] = {}
        for idx in range(space.count):
            combo = space.combo_at(idx)
            key = tuple(
                (space.values_at(v)[i], space.values_at(v)[j]) for v in combo
            )
            groups.setdefault(key, []).append(idx)
        groups_by_pair.append(groups)
        for members in groups.values():
            if len({ev.value(idx, i, j) for idx in members}) > 1:
                mixed_min.append(members[0])
    if not mixed_min:
        return PASS, None
    first = min(mixed_min)
    combo = space.combo_at(first)
    candidates = []
    for p_idx, (i, j) in enumerate(space.pairs):
        key = tuple((space.values_at(v)[i], space.values_at(v)[j]) for v in combo)
        base_value = ev.value(first, i, j)
        for other in groups_by_pair[p_idx][key]:
            if other != first and ev.value(other, i, j) != base_value:
                candidates.append((other, p_idx, i, j))
                break
    other, _, i, j = min(candidates)
    return FAIL, {
        "profile_a": _profile_json(space.profile_at(first)),
        "profile_b": _profile_json(space.profile_at(other)),
        "pair": _pair_label(space.universe, i, j),
        "value_a": ev.value(first, i, j),
        "value_b": ev.value(other, i, j),
    }


# --------------------------------------------------------------------------
# sampled audits

# Sampled semantics per axiom: each trial draws the base object(s) the
# axiom quantifies over (profile, profile pair with the premise imposed,
# or triple) from the seeded generator and tests the implication once.


def _random_order(rng: random.Random, universe: Universe) -> tuple:
    return tuple(_fisher_yates(rng, list(universe)))


def _random_profile(rng: random.Random, universe: Universe, n: int) -> Profile:
    individuals = tuple(
        RankingWithTies.from_strict_order(
            f"v{i + 1}", universe, _random_order(rng, universe)
        )
        for i in range(n)
    )
    return Profile(universe, individuals, "ordinal")


def _random_order_with_bit(
    rng: random.Random, universe: Universe, a, b, bit: bool
) -> tuple:
    while True:
        order = _random_order(rng, universe)
        if (order.index(a) < order.index(b)) == bit:
            return order


def _replace_individual(profile: Profile, position: int, order: tuple) -> Profile:
    individuals = list(profile.individuals)
    individuals[position] = RankingWithTies.from_strict_order(
        f"v{position + 1}", profile.universe, order
    )
    return Profile(profile.universe, tuple(individuals), "ordinal")


def _sampled_ordinal(rule: Rule, axiom: AxiomId, space: SearchSpace):
    rng = random.Random(space.seed)
    universe = synthetic_universe(space.m)
    n = space.n
    trials = space.trials or 0
    class_pairs = list(combinations(universe, 2))

    def out_value(outcome: AggregationOutcome, a, b) -> float:
        i = universe.index(a)
        j = universe.index(b)
        return outcome.pair_value(i, j)

    overruled = [False] * n
    opposed_demo = [None] * n

    for _ in range(trials):
        profile = _random_profile(rng, universe, n)
        outcome = rule(profile)

        if axiom == AxiomId.AGREEMENT:
            for i, j in combinations(range(space.m), 2):
                if not (outcome.relation[i][j] or outcome.relation[j][i]):
                    return FAIL, {
                        "profile": _profile_json(profile),
                        "incomparable_pair": _pair_label(universe, i, j),
                    }
        elif axiom == AxiomId.TRANSITIVITY:
            triple = _find_intransitive_triple(outcome.relation)
            if triple is not None:
                i, j, k = triple
                return FAIL, {
                    "profile": _profile_json(profile),
                    "violating_triple": [
                        universe[i].render(),
                        universe[j].render(),
                        universe[k].render(),
                    ],
                }
        elif axiom == AxiomId.UNRESTRICTED_DOMAIN:
            pass  # reaching here means the rule returned an outcome
        elif axiom == AxiomId.UNANIMITY:
            for a, b in class_pairs:
                values = [ind.pair_value(a, b) for ind in profile.individuals]
                if all(v == 1.0 for v in values) and out_value(outcome, a, b) != 1.0:
                    return FAIL, {
                        "profile": _profile_json(profile),
                        "pair": [a.render(), b.render()],
                        "unanimous_value": 1.0,
                        "outcome_value": out_value(outcome, a, b),
                    }
                if all(v == 0.0 for v in values) and out_value(outcome, b, a) != 1.0:
                    return FAIL, {
                        "profile": _profile_json(profile),
                        "pair": [b.render(), a.render()],
                        "unanimous_value": 1.0,
                        "outcome_value": out_value(outcome, b, a),
                    }
        elif axiom == AxiomId.ANONYMITY:
            sigma = _fisher_yates(rng, list(range(n)))
            permuted = Profile(
                universe,
                tuple(
                    RankingWithTies.from_strict_order(
                        f"v{i + 1}",
                        universe,
                        tuple(
                            t[0]
                            for t in profile.individuals[sigma[i]].tiers
                        ),
                    )
                    for i in range(n)
                ),
                "ordinal",
            )
            if rule(permuted).relation != outcome.relation:
                return FAIL, {
                    "profile": _profile_json(profile),
                    "individual_permutation": list(sigma),
                    "permuted_profile": _profile_json(permuted),
                }
        elif axiom == AxiomId.NEUTRALITY:
            pi = _fisher_yates(rng, list(range(space.m)))
            mapping = {universe[old]: universe[pi[old]] for old in range(space.m)}
            relabeled = Profile(
                universe,
                tuple(
                    RankingWithTies.from_strict_order(
                        ind.owner,
                        universe,
                        tuple(mapping[t[0]] for t in ind.tiers),
                    )
                    for ind in profile.individuals
                ),
                "ordinal",
            )
            inv = [0] * space.m
            for old, new in enumerate(pi):
                inv[new] = old
            expected = tuple(
                tuple(outcome.relation[inv[x]][inv[y]] for y in range(space.m))
                for x in range(space.m)
            )
            got = rule(relabeled).relation
            if got != expected:
                return FAIL, {
                    "profile": _profile_json(profile),
                    "class_permutation": list(pi),
                    "relabeled_profile": _profile_json(relabeled),
                    "expected_relation": [list(map(bool, r)) for r in expected],
                    "actual_relation": [list(map(bool, r)) for r in got],
                }
        elif axiom == AxiomId.NON_DICTATORSHIP:
            for k in range(n):
                ind = profile.individuals[k]
                for a, b in class_pairs:
                    if ind.pair_value(a, b) == 1.0:
                        x, y = a, b
                    else:
                        x, y = b, a
                    if out_value(outcome, x, y) != 1.0:
                        overruled[k] = True
                    opposed = any(
                        other.pair_value(x, y) == 0.0
                        for idx2, other in enumerate(profile.individuals)
                        if idx2 != k
                    )
                    if (
                        opposed
                        and opposed_demo[k] is None
                        and out_value(outcome, x, y) == 1.0
                    ):
                        opposed_demo[k] = profile
        elif axiom == AxiomId.IIA:
            a, b = class_pairs[rng.randrange(len(class_pairs))]
            partner = profile
            for pos in range(n):
                bit = profile.individuals[pos].pair_value(a, b) == 1.0
                partner = _replace_individual(
                    partner,
                    pos,
                    _random_order_with_bit(rng, universe, a, b, bit),
                )
            got_a = out_value(outcome, a, b)
            got_b = out_value(rule(partner), a, b)
            if got_a != got_b:
                return FAIL, {
                    "profile_a": _profile_json(profile),
                    "profile_b": _profile_json(partner),
                    "pair": [a.render(), b.render()],
                    "value_a": got_a,
                    "value_b": got_b,
                }
        elif axiom in (
            AxiomId.POSITIVE_RESPONSIVENESS,
            AxiomId.MONOTONIC_RESPONSIVENESS,
        ):
            a, b = class_pairs[rng.randrange(len(class_pairs))]
            if rng.randrange(2):
                a, b = b, a
            if out_value(outcome, a, b) < 0.5:
                continue
            losers = [
                pos
                for pos in range(n)
                if profile.individuals[pos].pair_value(a, b) == 0.0
            ]
            if not losers:
                continue
            uplift_j = losers[rng.randrange(len(losers))]
            partner = profile
            for pos in range(n):
                if pos == uplift_j:
                    order = _random_order_with_bit(rng, universe, a, b, True)
                else:
                    bit = profile.individuals[pos].pair_value(a, b) == 1.0
                    order = _random_order_with_bit(rng, universe, a, b, bit)
                partner = _replace_individual(partner, pos, order)
            after = out_value(rule(partner), a, b)
            positive = axiom == AxiomId.POSITIVE_RESPONSIVENESS
            bad = (after != 1.0) if positive else (after < 0.5)
            if bad:
                return FAIL, {
                    "profile_before": _profile_json(profile),
                    "profile_after": _profile_json(partner),
                    "uplifted_individual": uplift_j + 1,
                    "pair": [a.render(), b.render()],
                    "value_before": out_value(outcome, a, b),
                    "value_after": after,
                }
        elif axiom == AxiomId.PROXIMITY_PRESERVATION:
            near = _random_profile(rng, universe, n)
            far = _random_profile(rng, universe, n)
            from .profiles import profile_distance as _pd

            D_near, D_far = _pd(profile, near), _pd(profile, far)
            if D_near > D_far:
                near, far = far, near
                D_near, D_far = D_far, D_near
            from .rules import outcome_distance as _od

            d_near = _od(outcome, rule(near))
            d_far = _od(outcome, rule(far))
            if d_near > d_far:
                return FAIL, {
                    "profile_base": _profile_json(profile),
                    "profile_near_input": _profile_json(near),
                    "profile_far_input": _profile_json(far),
                    "D_near": D_near,
                    "D_far": D_far,
                    "d_near": d_near,
                    "d_far": d_far,
                }
        else:  # pragma: no cover
            raise InapplicableAxiom(f"no sampled semantics for {axiom}")

    if axiom == AxiomId.NON_DICTATORSHIP:
        for k in range(n):
            if not overruled[k] and opposed_demo[k] is not None:
                demo = opposed_demo[k]
                return FAIL, {
                    "dictator_index": k + 1,
                    "demo_profile": _profile_json(demo),
                    "demo_outcome_tiers": None,
                }
    return PASS, None


def _random_grid_vector(rng: random.Random, m: int) -> list[float]:
    return [UTILITY_GRID[rng.randrange(len(UTILITY_GRID))] for _ in range(m)]


def _sampled_utility(rule: Rule, axiom: AxiomId, space: SearchSpace):
    rng = random.Random(space.seed)
    universe = synthetic_universe(space.m)
    m, n = space.m, space.n
    trials = space.trials or 0

    def profile_from(vectors: list[list[float]]) -> Profile:
        return Profile(
            universe,
            tuple(
                UtilityVector(f"v{i + 1}", universe, dict(zip(universe, vec)))
                for i, vec in enumerate(vectors)
            ),
            "utility",
        )

    for _ in range(trials):
        if axiom == AxiomId.STRICT_UNANIMITY:
            i, j = sorted(rng.sample(range(m), 2))
            vectors = []
            deltas = []
            for _k in range(n):
                vec = _random_grid_vector(rng, m)
                delta = UTILITY_GRID[rng.randrange(len(UTILITY_GRID))]
                vec[i] = min(vec[j] + delta, max(UTILITY_GRID))
                deltas.append(vec[i] - vec[j])
                vectors.append(vec)
            profile = profile_from(vectors)
            outcome = rule(profile)
            got = outcome.pair_value(i, j)
            if all(d == 0 for d in deltas):
                expected = 0.5
            else:
                expected = 1.0
            if got != expected:
                return FAIL, {
                    "profile": _profile_json(profile),
                    "pair": _pair_label(universe, i, j),
                    "expected_value": expected,
                    "outcome_value": got,
                }
        elif axiom == AxiomId.UTILITY_IIA:
            i, j = sorted(rng.sample(range(m), 2))
            vectors = [_random_grid_vector(rng, m) for _ in range(n)]
            partner = []
            for vec in vectors:
                redraw = _random_grid_vector(rng, m)
                redraw[i], redraw[j] = vec[i], vec[j]
                partner.append(redraw)
            profile_a = profile_from(vectors)
            profile_b = profile_from(partner)
            got_a = rule(profile_a).pair_value(i, j)
            got_b = rule(profile_b).pair_value(i, j)
            if got_a != got_b:
                return FAIL, {
                    "profile_a": _profile_json(profile_a),
                    "profile_b": _profile_json(profile_b),
                    "pair": _pair_label(universe, i, j),
                    "value_a": got_a,
                    "value_b": got_b,
                }
        else:  # pragma: no cover
            raise InapplicableAxiom(f"no sampled semantics for {axiom}")
    return PASS, None


# --------------------------------------------------------------------------
# budget, dispatch, verification


def _notional_cost(axiom: AxiomId, space: SearchSpace) -> int:
    if space.mode == "sampled":
        return int(space.trials or 0)
    if axiom in UTILITY_AXIOMS:
        base = (len(UTILITY_GRID) ** space.m) ** space.n
    else:
        base = math.factorial(space.m) ** space.n
    if axiom in (
        AxiomId.IIA,
        AxiomId.POSITIVE_RESPONSIVENESS,
        AxiomId.MONOTONIC_RESPONSIVENESS,
        AxiomId.PROXIMITY_PRESERVATION,
        AxiomId.UTILITY_IIA,
    ):
        return base * base
    if axiom == AxiomId.ANONYMITY:
        return base * math.factorial(space.n)
    if axiom == AxiomId.NEUTRALITY:
        return base * math.factorial(space.m)
    return base


_EXHAUSTIVE_ORDINAL = {
    AxiomId.AGREEMENT: _audit_agreement,
    AxiomId.TRANSITIVITY: _audit_transitivity,
    AxiomId.UNRESTRICTED_DOMAIN: _audit_unrestricted_domain,
    AxiomId.UNANIMITY: _audit_unanimity,
    AxiomId.ANONYMITY: _audit_anonymity,
    AxiomId.NEUTRALITY: _audit_neutrality,
    AxiomId.NON_DICTATORSHIP: _audit_non_dictatorship,
    AxiomId.IIA: _audit_iia,
    AxiomId.PROXIMITY_PRESERVATION: _audit_proximity,
}


def audit(rule: Rule, axiom: AxiomId, space: SearchSpace) -> AuditResult:
    """Audit one rule against one axiom over one search space.

    Fail verdicts carry a witness that re-verifies by re-running the
    rule (checked before returning); passes are claims about the
    searched space only, never theorems.
    """
    axiom = AxiomId(axiom)
    if axiom in ORDINAL_AXIOMS and rule.mode != "ordinal":
        raise InapplicableAxiom(f"{axiom.value} needs an ordinal rule")
    if axiom in UTILITY_AXIOMS and rule.mode != "utility":
        raise InapplicableAxiom(f"{axiom.value} needs a utility rule")
    if axiom not in ORDINAL_AXIOMS and axiom not in UTILITY_AXIOMS:
        raise InapplicableAxiom(
            f"{axiom.value} is checked by its dedicated operation, not audit()"
        )
    cost = _notional_cost(axiom, space)
    if cost > BUDGET_LIMIT:
        raise BudgetExceeded(
            f"{axiom.value} over m={space.m} n={space.n} needs {cost} "
            f"enumerations (limit {BUDGET_LIMIT})"
        )

    if space.mode == "exhaustive":
        if axiom in UTILITY_AXIOMS:
            grid = _GridSpace(space.m, space.n)
            ev = _Evaluator(grid, rule)
            fn = (
                _audit_strict_unanimity
                if axiom == AxiomId.STRICT_UNANIMITY
                else _audit_utility_iia
            )
            verdict, witness = fn(grid, ev)
            budget = (
                f"exhaustive grid-utility profiles m={space.m} n={space.n} "
                f"(grid {UTILITY_GRID}, {grid.count} profiles)"
            )
        else:
            strict = _StrictSpace(space.m, space.n)
            ev = _Evaluator(strict, rule)
            if axiom == AxiomId.POSITIVE_RESPONSIVENESS:
                verdict, witness = _audit_responsiveness(strict, ev, True)
            elif axiom == AxiomId.MONOTONIC_RESPONSIVENESS:
                verdict, witness = _audit_responsiveness(strict, ev, False)
            else:
                verdict, witness = _EXHAUSTIVE_ORDINAL[axiom](strict, ev)
            budget = (
                f"exhaustive strict-order profiles m={space.m} n={space.n} "
                f"({strict.count} profiles)"
            )
    else:
        if space.trials is None or space.seed is None:
            raise ValueError("sampled spaces need trials and seed")
        if axiom in UTILITY_AXIOMS:
            verdict, witness = _sampled_utility(rule, axiom, space)
        else:
            verdict, witness = _sampled_ordinal(rule, axiom, space)
        budget = (
            f"sampled {space.trials} trials m={space.m} n={space.n} "
            f"seed={space.seed}"
        )

    notes = PROXIMITY_NOTE if axiom == AxiomId.PROXIMITY_PRESERVATION else None
    result = AuditResult(
        rule_name=rule.name,
        axiom=axiom,
        verdict=verdict,
        witness=witness,
        search_budget=budget,
        seed=space.seed,
        notes=notes,
    )
    if result.failed and not verify_result(rule, result):
        raise AssertionError(
            f"internal error: {axiom.value} witness failed re-verification"
        )
    return result


def arrow_audit(rule: Rule, m: int, n: int) -> list[AuditResult]:
    """Exhaustively audit the classical impossibility set; every rule is
    expected to fail at least one member, and an all-pass is a
    contradiction demanding investigation (see arrow_contradiction)."""
    space = exhaustive(m, n)
    return [audit(rule, axiom, space) for axiom in ARROW_AXIOMS]


def arrow_contradiction(results: list[AuditResult]) -> bool:
    return not any(r.failed for r in results)


def may_coincidence_check(
    rule: Rule, m: int, n: int, trials: int, seed: int
) -> AuditResult:
    """Premise audit plus pairwise coincidence with the majority formula.

    Audits unanimity, anonymity, neutrality, and positive responsiveness
    exhaustively at (m, n); a failing premise is reported directly. When
    all premises hold, the rule must coincide with the strict-count
    formula on every sampled profile, any divergence being the witness
    that a premise failure exists somewhere.
    """
    _require_trials(trials)
    space = exhaustive(m, n)
    for premise in MAY_PREMISES:
        result = audit(rule, premise, space)
        if result.failed:
            return result

    rng = random.Random(seed)
    universe = synthetic_universe(m)
    pair_indices = list(combinations(range(m), 2))
    for _ in range(trials):
        profile = _random_profile(rng, universe, n)
        outcome = rule(profile)
        for i, j in pair_indices:
            wins_i = sum(
                1
                for ind in profile.individuals
                if ind.pair_value(universe[i], universe[j]) == 1.0
            )
            wins_j = sum(
                1
                for ind in profile.individuals
                if ind.pair_value(universe[i], universe[j]) == 0.0
            )
            if wins_i > wins_j:
                formula = 1.0
            elif wins_j > wins_i:
                formula = 0.0
            else:
                formula = 0.5
            got = outcome.pair_value(i, j)
            if got != formula:
                result = AuditResult(
                    rule_name=rule.name,
                    axiom=AxiomId.MAY_COINCIDENCE,
                    verdict=FAIL,
                    witness={
                        "profile": _profile_json(profile),
                        "pair": _pair_label(universe, i, j),
                        "rule_value": got,
                        "formula_value": formula,
                    },
                    search_budget=(
                        f"premises exhaustive m={m} n={n}; coincidence sampled "
                        f"{trials} trials seed={seed}"
                    ),
                    seed=seed,
                )
                if not verify_result(rule, result):
                    raise AssertionError(
                        "internal error: coincidence witness failed re-verification"
                    )
                return result
    return AuditResult(
        rule_name=rule.name,
        axiom=AxiomId.MAY_COINCIDENCE,
        verdict=PASS,
        witness=None,
        search_budget=(
            f"premises exhaustive m={m} n={n}; coincidence sampled "
            f"{trials} trials seed={seed}"
        ),
        seed=seed,
    )


# --------------------------------------------------------------------------
# witness re-verification


def _value_of(outcome: AggregationOutcome, universe: Universe, pair: list) -> float:
    from .contacts import InteractionClass

    a = universe.index(InteractionClass.parse(pair[0]))
    b = universe.index(InteractionClass.parse(pair[1]))
    return outcome.pair_value(a, b)


def verify_result(rule: Rule, result: AuditResult) -> bool:
    """Re-run the rule on a fail witness's embedded profiles and re-check
    the claimed violation; pass verdicts verify vacuously."""
    if not result.failed:
        return True
    w = result.witness
    if w is None:
        return False
    axiom = result.axiom

    if axiom in (AxiomId.AGREEMENT, AxiomId.TRANSITIVITY):
        profile = Profile.from_json_dict(w["profile"])
        relation = rule(profile).relation
        universe = profile.universe
        if axiom == AxiomId.AGREEMENT:
            from .contacts import InteractionClass

            i = universe.index(InteractionClass.parse(w["incomparable_pair"][0]))
            j = universe.index(InteractionClass.parse(w["incomparable_pair"][1]))
            return not (relation[i][j] or relation[j][i])
        from .contacts import InteractionClass

        x, y, z = (
            universe.index(InteractionClass.parse(c)) for c in w["violating_triple"]
        )
        return relation[x][y] and relation[y][z] and not relation[x][z]

    if axiom == AxiomId.UNRESTRICTED_DOMAIN:
        profile = Profile.from_json_dict(w["profile"])
        try:
            rule(profile)
        except Exception:
            return True
        return False

    if axiom in (AxiomId.UNANIMITY, AxiomId.STRICT_UNANIMITY):
        profile = Profile.from_json_dict(w["profile"])
        outcome = rule(profile)
        expected = w.get("unanimous_value", w.get("expected_value"))
        return _value_of(outcome, profile.universe, w["pair"]) != expected

    if axiom == AxiomId.ANONYMITY:
        profile = Profile.from_json_dict(w["profile"])
        permuted = Profile.from_json_dict(w["permuted_profile"])
        return rule(profile).relation != rule(permuted).relation

    if axiom == AxiomId.NEUTRALITY:
        profile = Profile.from_json_dict(w["profile"])
        relabeled = Profile.from_json_dict(w["relabeled_profile"])
        pi = w["class_permutation"]
        m = len(profile.universe)
        inv = [0] * m
        for old, new in enumerate(pi):
            inv[new] = old
        relation = rule(profile).relation
        expected = tuple(
            tuple(relation[inv[x]][inv[y]] for y in range(m)) for x in range(m)
        )
        return rule(relabeled).relation != expected

    if axiom == AxiomId.NON_DICTATORSHIP:
        profile = Profile.from_json_dict(w["demo_profile"])
        outcome = rule(profile)
        k = w["dictator_index"] - 1
        ind = profile.individuals[k]
        followed = all(
            outcome.pair_value(i, j)
            == ind.pair_value(profile.universe[i], profile.universe[j])
            for i, j in combinations(range(len(profile.universe)), 2)
        )
        opposed = any(
            other.pair_value(a, b) != ind.pair_value(a, b)
            for pos, other in enumerate(profile.individuals)
            if pos != k
            for a, b in combinations(profile.universe, 2)
        )
        return followed and opposed

    if axiom in (AxiomId.IIA, AxiomId.UTILITY_IIA):
        profile_a = Profile.from_json_dict(w["profile_a"])
        profile_b = Profile.from_json_dict(w["profile_b"])
        value_a = _value_of(rule(profile_a), profile_a.universe, w["pair"])
        value_b = _value_of(rule(profile_b), profile_b.universe, w["pair"])
        return value_a != value_b and value_a == w["value_a"] and value_b == w["value_b"]

    if axiom in (
        AxiomId.POSITIVE_RESPONSIVENESS,
        AxiomId.MONOTONIC_RESPONSIVENESS,
    ):
        before = Profile.from_json_dict(w["profile_before"])
        after = Profile.from_json_dict(w["profile_after"])
        value_before = _value_of(rule(before), before.universe, w["pair"])
        value_after = _value_of(rule(after), after.universe, w["pair"])
        if value_before < 0.5:
            return False
        if axiom == AxiomId.POSITIVE_RESPONSIVENESS:
            return value_after != 1.0
        return value_after < 0.5

    if axiom == AxiomId.PROXIMITY_PRESERVATION:
        from .profiles import profile_distance
        from .rules import outcome_distance

        base = Profile.from_json_dict(w["profile_base"])
        near = Profile.from_json_dict(w["profile_near_input"])
        far = Profile.from_json_dict(w["profile_far_input"])
        D_near = profile_distance(base, near)
        D_far = profile_distance(base, far)
        out_base = rule(base)
        d_near = outcome_distance(out_base, rule(near))
        d_far = outcome_distance(out_base, rule(far))
        return (
            D_near == w["D_near"]
            and D_far == w["D_far"]
            and d_near == w["d_near"]
            and d_far == w["d_far"]
            and D_near <= D_far
            and d_near > d_far
        )

    if axiom == AxiomId.MAY_COINCIDENCE:
        profile = Profile.from_json_dict(w["profile"])
        got = _value_of(rule(profile), profile.universe, w["pair"])
        return got == w["rule_value"] and got != w["formula_value"]

    return False
