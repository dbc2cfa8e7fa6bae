"""Mechanical axiom audits for aggregation rules.

Rules are treated as black boxes: the engine enumerates (or samples)
profile spaces, applies each axiom's defining transformation, and hands
back a pass-within-search verdict or a fail with a minimal witness that
re-verifies by re-running the rule on the embedded profiles.

Each axiom is defined once, as an ``_Axiom`` subclass: its witness schema
(the report keys in order) and its check, which reads one view per
profile the axiom relates (each individual's slot positions or grid
values, and the rule's outcome) plus the axiom's parameters (a class
pair, a permutation, an individual), and returns the witness fields
proving a violation, or None. Three callers share the check: the
exhaustive driver, over every strict-order profile of the first m
standard classes (or every utility profile over the grid {0, 0.5, 1})
in lexicographic mixed-radix order; the sampled driver, drawing from a
seeded Mersenne Twister in a fixed call order; and ``verify_result``,
which re-runs the rule on the witness profiles and accepts the witness
only if they meet the axiom's premise (a partner keeping the stances,
a permuted or relabeled copy) and the check reproduces every field it
claims.

Witness minimality: exhaustive searches report the first profile with a
violation, then the first class pair (anonymity and neutrality: the
first permutation in itertools order; IIA and responsiveness: the
smallest partner profile, then pair and uplifted individual; proximity:
the smallest near, then far, profile). For a rule marked `pairwise` the
single-profile searches visit one profile per orbit of the individual
permutations, C(m! + n - 1, n) of the (m!)^n; the first violation is
one of those, because sorting a profile's digits keeps its count matrix,
so its outcome and its check, and does not make it larger. The verdict
still speaks for the whole space. Anonymity of such a rule passes by
declaration: every permuted copy reads the same kept outcome. Sampled
passes are qualified by the space actually searched.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations, combinations_with_replacement, islice
from itertools import permutations, product
from typing import NamedTuple

from .aminoacids import CLASSES, InteractionClass, Universe
from .errors import BadSpec, BudgetExceeded, InapplicableAxiom, MalformedProfile
from .errors import NonFiniteUtility
from .preferences import RankingWithTies, UtilityVector
from .profiles import Profile, _choice, _integers, _kendall_slots, _shuffled
from .profiles import _summed_kendall, synthetic_universe
# Rule and standard_rules are imported from here as well as from rules
from .rules import Rule, outcome_distance, standard_rules


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


UTILITY_AXIOMS = frozenset({AxiomId.UTILITY_IIA, AxiomId.STRICT_UNANIMITY})
ORDINAL_AXIOMS = frozenset(AxiomId) - UTILITY_AXIOMS - {
    AxiomId.MAY_COINCIDENCE,
    AxiomId.CONTINUITY,
}

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

    def __post_init__(self):
        trials = 1 if self.trials is None else self.trials  # None is checked below
        seed = 0 if self.seed is None else self.seed
        _integers(m=self.m, n=self.n, trials=trials, seed=seed)
        if self.seed is not None:  # random.Random and JSON take Python ints only
            object.__setattr__(self, "seed", int(self.seed))
        if self.mode == "sampled":
            if self.trials is None or self.trials < 1:
                raise BadSpec(f"trials must be >= 1, got {self.trials}")
            if self.seed is None:
                raise BadSpec("a sampled space needs a seed, got None")
        elif self.mode != "exhaustive":
            raise BadSpec(f"mode must be exhaustive or sampled, got {self.mode!r}")
        if self.n < 2:
            raise BadSpec(f"n must be >= 2, got {self.n}")
        if not 2 <= self.m <= len(CLASSES):
            raise BadSpec(f"m must be in 2..{len(CLASSES)}, got {self.m}")


def exhaustive(m: int, n: int) -> SearchSpace:
    return SearchSpace("exhaustive", m, n)


def sampled(m: int, n: int, trials: int, seed: int) -> SearchSpace:
    return SearchSpace("sampled", m, n, trials, seed)


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
# views: what a check reads of one profile


class _View(NamedTuple):
    """Each individual's prefs (slot positions of a strict order, or
    utility values per slot) and the rule's outcome, read at once."""

    prefs: tuple
    outcome: object


def _prefs(individuals) -> tuple:
    """What a check reads of each individual: its slot positions, or its
    utility values in universe order."""
    return tuple(
        ind.values if isinstance(ind, UtilityVector) else ind.slots()
        for ind in individuals
    )


def _outcome(rule: Rule, profile: Profile, catches: bool):
    """The rule's outcome; with catches set, the exception it raised
    instead, which is what unrestricted domain looks for."""
    if not catches:
        return rule(profile)
    try:
        return rule(profile)
    except Exception as exc:  # any failure to produce an outcome
        return exc


def _relation(prefs: tuple, i: int, j: int) -> int:
    """1 if i is above j, -1 if below, 0 on a tie."""
    return (prefs[i] < prefs[j]) - (prefs[j] < prefs[i])


def _kept(views: list[_View], stance, pair, lifted: int | None = None) -> bool:
    """Every individual takes the same stance on the pair in both
    profiles, except that individual `lifted` (0-based) moves it up."""
    return all(
        stance(b, *pair) > stance(a, *pair)
        if k == lifted
        else stance(b, *pair) == stance(a, *pair)
        for k, (a, b) in enumerate(zip(views[0].prefs, views[1].prefs))
    )


def _labels(universe: Universe, indices) -> list[str]:
    return [universe[i].render() for i in indices]


# --------------------------------------------------------------------------
# exhaustive spaces and sampled trials


class _Profiles:
    """Profiles of n individuals over the first m standard classes, as
    one rule sees them: individual k, owned by v{k+1}, holds an item, a
    strict order of class indices (best first), built into a ranking by
    `RankingWithTies.from_slot_order`, or a utility vector."""

    def __init__(self, m: int, n: int, rule: Rule, catches: bool):
        self.universe: Universe = synthetic_universe(m)
        self.m, self.n = m, n
        self.rule, self.catches = rule, catches
        self.pairs = list(combinations(range(m), 2))

    def individual(self, position: int, item):
        owner = f"v{position + 1}"
        if self.rule.mode == "utility":
            return UtilityVector(owner, self.universe, item)
        return RankingWithTies.from_slot_order(owner, self.universe, item)


class _Space(_Profiles):
    """Every profile, named by its digits: each individual's index into
    the space's items (all strict orders, or all vectors over the utility
    grid). Individual 1 is the most significant digit, so digit tuples
    compare in enumeration order. Searches read each profile's outcome
    once (the symmetries also read each moved copy); the count memo below
    is the one cache a space keeps.

    An ordinal rule marked `pairwise` is run once per pairwise count
    matrix: a profile's matrix is the sum of its items' pairwise 0/1
    matrices, and the outcome is kept by that sum. Any other rule runs
    each time an outcome is read. Permuting the individuals keeps the
    matrix, so such a space is `anonymous`: the single-profile searches
    and anonymity walk only `orbits`, C(len(items) + n - 1, n) profiles
    of the len(items) ** n (126 of 1296 at m=3, n=4). A rule wrongly
    marked `pairwise` is made anonymous by the memo, so it passes
    anonymity whatever it does."""

    def __init__(self, m: int, n: int, rule: Rule, catches: bool):
        super().__init__(m, n, rule, catches)
        if rule.mode == "utility":
            self.items = list(product(UTILITY_GRID, repeat=m))
        else:
            self.items = list(permutations(range(m)))
        self.number = {item: d for d, item in enumerate(self.items)}
        # each position's individual for every item, by digit
        self.individuals = [
            [self.individual(position, item) for item in self.items]
            for position in range(n)
        ]
        self.prefs = _prefs(self.individuals[0])
        self._by_counts: dict[int, object] | None = None
        if rule.pairwise and rule.mode == "ordinal":
            # each item's flattened m x m matrix (1 where class i is above
            # class j) as the digits of one base n + 1 number; no count
            # exceeds n, so adding the numbers adds the matrices digit-wise
            cells = list(product(range(m), repeat=2))
            self.matrices = [
                sum((n + 1) ** (i * m + j) for i, j in cells if p[i] < p[j])
                for p in self.prefs
            ]
            self._by_counts = {}
        self.count = len(self.items) ** n

    def combos(self):
        """Each profile's digits, in enumeration order."""
        return product(range(len(self.items)), repeat=self.n)

    def orbits(self):
        """Each orbit's first profile under permutations of the
        individuals, in enumeration order: the digits in non-decreasing
        order, C(len(items) + n - 1, n) of them."""
        return combinations_with_replacement(range(len(self.items)), self.n)

    @property
    def anonymous(self) -> bool:
        """Outcomes are kept by count matrix, so every profile of an orbit
        reads one outcome: the one of its first profile."""
        return self._by_counts is not None

    def profile(self, combo: tuple[int, ...]) -> Profile:
        individuals = tuple(map(list.__getitem__, self.individuals, combo))
        return Profile(self.universe, individuals, self.rule.mode)

    def outcome(self, combo: tuple[int, ...]):
        if self._by_counts is None:
            return _outcome(self.rule, self.profile(combo), self.catches)
        summed = sum(map(self.matrices.__getitem__, combo))
        outcome = self._by_counts.get(summed)
        if outcome is None:
            outcome = _outcome(self.rule, self.profile(combo), self.catches)
            self._by_counts[summed] = outcome
        return outcome

    def view(self, combo: tuple[int, ...]) -> _View:
        return _View(tuple(map(self.prefs.__getitem__, combo)), self.outcome(combo))


class _Trials(_Profiles):
    """The seeded draws of one sampled audit. Orders are drawn as class
    indices by profiles._shuffled, and pairs, grid values and individuals
    are picked by profiles._choice: both read the generator's getrandbits
    output and draw what Random.shuffle and Random.choice draw. Each
    profile drawn is evaluated at once: a trial runs the rule on
    everything it draws."""

    def __init__(self, rule: Rule, space: SearchSpace, catches: bool):
        super().__init__(space.m, space.n, rule, catches)
        self.count = space.trials
        self.rng = random.Random(space.seed)

    def order(self) -> tuple[int, ...]:
        return tuple(_shuffled(self.rng, range(self.m)))

    def pair(self) -> tuple[int, int]:
        return _choice(self.rng, self.pairs)

    def grid_vector(self) -> list[float]:
        return [_choice(self.rng, UTILITY_GRID) for _ in range(self.m)]

    def profile(self, items) -> tuple[Profile, _View]:
        individuals = tuple(self.individual(k, item) for k, item in enumerate(items))
        profile = Profile(self.universe, individuals, self.rule.mode)
        view = _View(_prefs(individuals), _outcome(self.rule, profile, self.catches))
        return profile, view

    def base(self) -> tuple[list, tuple[Profile, _View]]:
        """n uniform strict orders, and their profile."""
        orders = [self.order() for _ in range(self.n)]
        return orders, self.profile(orders)


# --------------------------------------------------------------------------
# the axioms

_AXIOMS: dict[AxiomId, _Axiom] = {}


class _Axiom:
    """One axiom: its witness schema, its check, and the way the
    exhaustive and sampled drivers reach the check. Defining a subclass
    with an `axiom` registers it; `run` is the one way an audit runs."""

    axiom: AxiomId
    fields: str  # witness keys in report order; keys naming a profile hold one
    params: tuple[str, ...] = ()  # witness keys holding the check's parameters
    catches = False  # the check reads the rule's exceptions
    notes: str | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "axiom"):
            cls.keys = cls.fields.split()
            cls.profile_keys = [key for key in cls.keys if "profile" in key]
            _AXIOMS[cls.axiom] = cls()

    def check(self, universe: Universe, views: list[_View], *params) -> dict | None:
        """The witness fields proving a violation, or None."""
        raise NotImplementedError

    def premise(self, universe: Universe, views: list[_View], *params) -> bool:
        """Whether the profiles relate as the axiom requires (a partner
        keeping stances, a permuted copy). The drivers build them so;
        verification has to check it."""
        return True

    def cost(self, m: int, n: int, count: int) -> int:
        """Enumerations per profile of an exhaustive space."""
        return 1

    def price(self, space: SearchSpace) -> str:
        """The request's search budget text; BudgetExceeded past BUDGET_LIMIT
        enumerations (its trials, or its profiles times `cost`)."""
        m, n = space.m, space.n
        if space.mode == "sampled":
            cost = space.trials
            budget = f"sampled {cost} trials m={m} n={n} seed={space.seed}"
        else:
            utility = self.axiom in UTILITY_AXIOMS
            count = (len(UTILITY_GRID) ** m if utility else math.factorial(m)) ** n
            cost = count * self.cost(m, n, count)
            kind = "grid-utility" if utility else "strict-order"
            note = f"grid {UTILITY_GRID}, " if utility else ""
            budget = f"exhaustive {kind} profiles m={m} n={n} ({note}{count} profiles)"
        if cost > BUDGET_LIMIT:
            raise BudgetExceeded(
                f"{self.axiom.value} over m={m} n={n} needs {cost} "
                f"enumerations (limit {BUDGET_LIMIT})"
            )
        return budget

    def run(self, rule: Rule, space: SearchSpace) -> AuditResult:
        """Price the request, build the driver, search or sample, build
        the witness, and re-verify a fail before returning it."""
        budget = self.price(space)
        if space.mode == "exhaustive":
            grid = _Space(space.m, space.n, rule, self.catches)
            found = self.search(grid)
            if found is not None:
                found = [grid.profile(combo) for combo in found[0]], found[1]
        else:
            found = self.sample(_Trials(rule, space, self.catches))
        witness = None
        if found is not None:
            profiles, detail = found
            detail.update(zip(self.profile_keys, [p.to_json_dict() for p in profiles]))
            witness = {key: detail[key] for key in self.keys}
        result = AuditResult(
            rule_name=rule.name,
            axiom=self.axiom,
            verdict=PASS if witness is None else FAIL,
            witness=witness,
            search_budget=budget,
            seed=space.seed,
            notes=self.notes,
        )
        if result.failed and not verify_result(rule, result):
            raise AssertionError(
                f"internal error: {self.axiom.value} witness failed re-verification"
            )
        return result

    def search(self, space: _Space):
        """The first profile, in enumeration order, that the check flags:
        (profile digits, witness fields) or None.

        The checks searched so (agreement, transitivity, unrestricted
        domain, the unanimities) read the individuals' prefs in any order.
        On an anonymous space the sorted digits of a flagged profile share
        its outcome, so they are flagged too, with the same fields, and are
        no larger: the first flagged profile is an orbit's first, and the
        walk visits only those. The count memo's first profile per matrix
        is sorted as well, so each matrix runs the rule on the profile it
        would have run on in a full walk (and an error keeps its text)."""
        for combo in space.orbits() if space.anonymous else space.combos():
            detail = self.check(space.universe, [space.view(combo)])
            if detail is not None:
                return (combo,), detail
        return None

    def draw(self, trials: _Trials):
        """One trial's ((profile, view) pairs, params), or None."""
        return [trials.base()[1]], ()

    def sample(self, trials: _Trials):
        """Each trial draws what the axiom quantifies over (a profile, a
        profile pair with the premise imposed, or a triple) and checks it:
        (profiles, witness fields) of the first violation, or None."""
        for _ in range(trials.count):
            drawn = self.draw(trials)
            if drawn is None:
                continue
            profiles, params = drawn
            detail = self.check(trials.universe, [v for _, v in profiles], *params)
            if detail is not None:
                return [profile for profile, _ in profiles], detail
        return None


class _Agreement(_Axiom):
    axiom = AxiomId.AGREEMENT
    fields = "profile incomparable_pair"

    def check(self, universe, views):
        relation = views[0].outcome.relation
        for i, j in combinations(range(len(universe)), 2):
            if not (relation[i][j] or relation[j][i]):
                return {"incomparable_pair": _labels(universe, (i, j))}
        return None


class _Transitivity(_Axiom):
    axiom = AxiomId.TRANSITIVITY
    fields = "profile violating_triple"

    def check(self, universe, views):
        witness = views[0].outcome.cycle_witness
        if witness is None:
            return None
        return {"violating_triple": [c.render() for c in witness]}


class _UnrestrictedDomain(_Axiom):
    axiom = AxiomId.UNRESTRICTED_DOMAIN
    fields = "profile error"
    catches = True

    def check(self, universe, views):
        outcome = views[0].outcome
        if isinstance(outcome, Exception):
            return {"error": f"{type(outcome).__name__}: {outcome}"}
        return None


class _Unanimity(_Axiom):
    """The axioms that fix the outcome on a pair from the individuals'
    stances alone (unanimity, strict unanimity, May's majority formula).
    The check walks its pairs (all, unless given) for the first outcome
    that differs; a witness names one pair, which verification re-checks."""

    axiom = AxiomId.UNANIMITY
    fields = "profile pair unanimous_value outcome_value"
    params = ("pair",)
    expected_key, got_key = "unanimous_value", "outcome_value"

    def check(self, universe, views, *pairs):
        for i, j in pairs or combinations(range(len(universe)), 2):
            found = self.expect(views[0].prefs, i, j)
            if found is not None:
                a, b, expected = found
                got = views[0].outcome.pair_value(a, b)
                if got != expected:
                    return {
                        "pair": _labels(universe, (a, b)),
                        self.expected_key: expected,
                        self.got_key: got,
                    }
        return None

    def expect(self, prefs, i, j) -> tuple[int, int, float] | None:
        """(a, b, the outcome value a must get against b), or None."""
        if all(p[i] < p[j] for p in prefs):
            return i, j, 1.0
        if all(p[j] < p[i] for p in prefs):
            return j, i, 1.0
        return None


class _StrictUnanimity(_Unanimity):
    axiom = AxiomId.STRICT_UNANIMITY
    fields = "profile pair expected_value outcome_value"
    expected_key = "expected_value"

    def expect(self, values, i, j):
        ge = all(v[i] >= v[j] for v in values)
        le = all(v[i] <= v[j] for v in values)
        if ge and le:  # exact unanimity of values
            return i, j, 0.5
        if ge:
            return i, j, 1.0
        if le:
            return j, i, 1.0
        return None

    def draw(self, trials):
        # a sampled trial checks one pair, every individual valuing its
        # first class at least as much as its second
        i, j = sorted(trials.rng.sample(range(trials.m), 2))
        grid = UTILITY_GRID
        vectors = []
        for _ in range(trials.n):
            vec = trials.grid_vector()
            delta = _choice(trials.rng, grid)
            vec[i] = min(vec[j] + delta, max(grid))
            vectors.append(vec)
        return [trials.profile(vectors)], [(i, j)]


class _MayCoincidence(_Unanimity):
    axiom = AxiomId.MAY_COINCIDENCE
    fields = "profile pair rule_value formula_value"
    expected_key, got_key = "formula_value", "rule_value"

    def expect(self, prefs, i, j):
        margin = sum(p[i] < p[j] for p in prefs) - sum(p[j] < p[i] for p in prefs)
        return i, j, 1.0 if margin > 0 else 0.0 if margin < 0 else 0.5


class _Symmetry(_Axiom):
    """Anonymity and neutrality: moving a profile by a permutation, of
    its individuals or of the class labels, must move the outcome alike.
    Subclasses give size(m, n), how many things are permuted, and
    move(orders, perm), the orders of the moved profile. Permutations
    form a group, so checking a profile against all of them covers its
    whole orbit; only the first profile of each orbit can be the first
    violation, and subclasses give those, firsts(space), in enumeration
    order, read off the digits."""

    def moved(self, space: _Space, combo: tuple, perm: tuple) -> tuple:
        """The digits of the moved profile."""
        orders = self.move([space.items[d] for d in combo], perm)
        return tuple(space.number[order] for order in orders)

    def cost(self, m, n, count):
        return math.factorial(self.size(m, n))

    def search(self, space):
        perms = list(permutations(range(self.size(space.m, space.n))))
        for combo in self.firsts(space):
            base = space.view(combo)
            for perm in perms:
                other = self.moved(space, combo, perm)
                view = base if other == combo else space.view(other)
                detail = self.check(space.universe, (base, view), perm)
                if detail is not None:
                    return (combo, other), detail
        return None

    def draw(self, trials):
        orders, base = trials.base()
        perm = _shuffled(trials.rng, range(self.size(trials.m, trials.n)))
        return [base, trials.profile(self.move(orders, perm))], (perm,)


class _Anonymity(_Symmetry):
    axiom = AxiomId.ANONYMITY
    fields = "profile individual_permutation permuted_profile"
    params = ("individual_permutation",)

    def size(self, m, n):
        return n

    def move(self, orders, sigma):
        return [orders[s] for s in sigma]

    def firsts(self, space):
        return space.orbits()

    def search(self, space):
        # On an anonymous space every moved copy reads its base's outcome,
        # so the check cannot fire: a rule marked pairwise passes by its
        # declaration. Each base is still read, so a raising rule raises.
        if not space.anonymous:
            return super().search(space)
        for combo in space.orbits():
            space.view(combo)
        return None

    def premise(self, universe, views, sigma):
        base, permuted = views[0].prefs, views[1].prefs
        if sorted(sigma) != list(range(len(base))):
            return False
        return list(permuted) == self.move(base, sigma)

    def check(self, universe, views, sigma):
        if views[1].outcome.relation == views[0].outcome.relation:
            return None
        return {"individual_permutation": list(sigma)}


class _Neutrality(_Symmetry):
    axiom = AxiomId.NEUTRALITY
    fields = (
        "profile class_permutation relabeled_profile expected_relation "
        "actual_relation"
    )
    params = ("class_permutation",)

    def size(self, m, n):
        return m

    def move(self, orders, pi):
        return [tuple(pi[c] for c in order) for order in orders]

    def firsts(self, space):
        # exactly one relabeling sends individual 1's order to the identity
        # order, item 0, so an orbit's first profile is the one with digit
        # 0 first, and those are the first len(items) ** (n - 1) profiles
        return islice(space.combos(), len(space.items) ** (space.n - 1))

    def premise(self, universe, views, pi):
        if sorted(pi) != list(range(len(universe))):
            return False
        # class c's place in an individual's order passes to class pi[c]
        return all(
            b[new] == a[old]
            for a, b in zip(views[0].prefs, views[1].prefs)
            for old, new in enumerate(pi)
        )

    def check(self, universe, views, pi):
        relation = views[0].outcome.relation
        m = len(relation)
        inv = [0] * m
        for old, new in enumerate(pi):
            inv[new] = old
        expected = tuple(
            tuple(relation[inv[x]][inv[y]] for y in range(m)) for x in range(m)
        )
        got = views[1].outcome.relation
        if got == expected:
            return None
        return {
            "class_permutation": list(pi),
            "expected_relation": [list(map(bool, r)) for r in expected],
            "actual_relation": [list(map(bool, r)) for r in got],
        }


class _NonDictatorship(_Axiom):
    """A search finds an individual k whom no profile overrules; the
    demo profile shows it, k being followed there against opposition."""

    axiom = AxiomId.NON_DICTATORSHIP
    fields = "dictator_index demo_profile demo_outcome_tiers"
    params = ("dictator_index",)

    def check(self, universe, views, index):
        k, prefs = index - 1, views[0].prefs
        pairs = combinations(range(len(universe)), 2)
        if _follows(views[0], k, pairs) and any(p != prefs[k] for p in prefs):
            return {"dictator_index": index}
        return None

    def search(self, space):
        overruled = [False] * space.n
        for combo in space.combos():
            _overrule(space.view(combo), overruled, space.pairs)
            if all(overruled):
                return None
        # the never-overruled individual gets the lexicographic order,
        # everyone else its reverse, so the outcome visibly follows k0
        k0 = overruled.index(False)
        reverse = space.items.index(tuple(reversed(space.items[0])))
        demo = tuple(0 if i == k0 else reverse for i in range(space.n))
        tiers = space.outcome(demo).to_json_dict()["tiers"]
        return (demo,), {"dictator_index": k0 + 1, "demo_outcome_tiers": tiers}

    def sample(self, trials):
        overruled = [False] * trials.n
        demo = [None] * trials.n  # first profile where someone differs from k
        for _ in range(trials.count):
            profile, view = trials.base()[1]
            _overrule(view, overruled, trials.pairs)
            if all(overruled):
                return None  # no later trial can change the verdict
            for k, mine in enumerate(view.prefs):
                if demo[k] is None and any(p != mine for p in view.prefs):
                    demo[k] = profile
        for k in range(trials.n):
            if not overruled[k] and demo[k] is not None:
                return [demo[k]], {"dictator_index": k + 1, "demo_outcome_tiers": None}
        return None


def _follows(view: _View, k: int, pairs) -> bool:
    """The outcome strictly agrees with individual k on every pair, so
    the profile does not overrule k."""
    mine, outcome = view.prefs[k], view.outcome
    return all(
        outcome.pair_value(*((i, j) if mine[i] < mine[j] else (j, i))) == 1.0
        for i, j in pairs
    )


def _overrule(view: _View, overruled: list[bool], pairs) -> None:
    for k, done in enumerate(overruled):
        if not done and not _follows(view, k, pairs):
            overruled[k] = True


class _IIA(_Axiom):
    """Profiles sharing every individual's stance on a pair must get the
    same outcome on it. Responsiveness shares its search, giving its own
    pairs, partner keys and flagged values."""

    axiom = AxiomId.IIA
    fields = "profile_a profile_b pair value_a value_b"
    params = ("pair",)
    stance = staticmethod(_relation)  # what keys profiles and the premise keeps

    def premise(self, universe, views, pair):
        return _kept(views, self.stance, pair)

    def check(self, universe, views, pair):
        value_a = views[0].outcome.pair_value(*pair)
        value_b = views[1].outcome.pair_value(*pair)
        if value_a == value_b:
            return None
        return {"pair": _labels(universe, pair), "value_a": value_a, "value_b": value_b}

    def cost(self, m, n, count):
        return count

    def pairs(self, space: _Space) -> list[tuple[int, int]]:
        return space.pairs

    def partners(self, key: tuple, pair, value: float) -> list[tuple[tuple, tuple]]:
        """(partner key, check parameters) of a base's partners on the pair."""
        return [(key, (pair,))]

    def flagged(self, value: float, firsts: dict) -> list[tuple]:
        """The first profiles of a partner key that the check flags."""
        return [combo for v, combo in firsts.items() if v != value]

    def search(self, space):
        # Whether a base has a flagged partner on a pair depends only on
        # its key and its value there, so the first violating base is the
        # smallest first entry of the tables that has one. Each of its
        # pairs with a flagged partner holds such an entry, so the least
        # (base, partner, pair, parameters) over the entries' hits is the
        # witness.
        pairs = self.pairs(space)
        # per pair, the stance of every item, by digit
        stances = [[self.stance(p, *pair) for p in space.prefs] for pair in pairs]
        # per pair, each key's first profile, in enumeration order, taking
        # each outcome value on the pair (at most three per key)
        tables: list[dict[tuple, dict[float, tuple]]] = [{} for _ in pairs]
        for combo in space.combos():
            outcome = space.outcome(combo)
            for pair, stance, table in zip(pairs, stances, tables):
                key = tuple(map(stance.__getitem__, combo))
                table.setdefault(key, {}).setdefault(outcome.pair_value(*pair), combo)
        found = min(
            (
                (first, min(hits), rank, params)
                for rank, (pair, table) in enumerate(zip(pairs, tables))
                for key, firsts in table.items()
                for value, first in firsts.items()
                for other, params in self.partners(key, pair, value)
                if (hits := self.flagged(value, table.get(other, {})))
            ),
            default=None,
        )
        if found is None:
            return None
        base, other, _, params = found
        views = (space.view(base), space.view(other))
        return (base, other), self.check(space.universe, views, *params)

    def draw(self, trials):
        orders, base = trials.base()
        a, b = trials.pair()
        return [base, _partner(trials, orders, a, b)], ((a, b),)


class _UtilityIIA(_IIA):
    axiom = AxiomId.UTILITY_IIA

    @staticmethod
    def stance(values: tuple, i: int, j: int) -> tuple:
        return values[i], values[j]

    def draw(self, trials):
        i, j = sorted(trials.rng.sample(range(trials.m), 2))
        vectors = [trials.grid_vector() for _ in range(trials.n)]
        partner = [trials.grid_vector() for _ in vectors]
        for vec, redraw in zip(vectors, partner):
            redraw[i], redraw[j] = vec[i], vec[j]
        return [trials.profile(vectors), trials.profile(partner)], ((i, j),)


def _partner(trials: _Trials, orders: list, a: int, b: int, lifted=None):
    """Fresh orders, each drawn until it keeps its individual's stance on
    (a, b), except that individual `lifted` comes to prefer a."""
    partner = []
    for pos, order in enumerate(orders):
        bit = pos == lifted or order.index(a) < order.index(b)
        while True:
            fresh = trials.order()
            if (fresh.index(a) < fresh.index(b)) == bit:
                break
        partner.append(fresh)
    return trials.profile(partner)


class _PositiveResponsiveness(_IIA):
    """Premise: exactly one individual's (a, b) relation moves, strictly
    upward for a; everyone else keeps their (a, b) relation while their
    other pairs may move freely. Conclusion: a weakly on top before
    implies a strictly on top after (monotonic: still weakly)."""

    axiom = AxiomId.POSITIVE_RESPONSIVENESS
    fields = (
        "profile_before profile_after uplifted_individual pair value_before "
        "value_after"
    )
    params = ("uplifted_individual", "pair")
    required = 1.0  # the least outcome value for a after the uplift

    def premise(self, universe, views, uplifted, pair):
        return _kept(views, self.stance, pair, uplifted - 1)

    def check(self, universe, views, uplifted, pair):
        before = views[0].outcome.pair_value(*pair)
        after = views[1].outcome.pair_value(*pair)
        if not (_armed(before) and after < self.required):
            return None
        return {
            "uplifted_individual": uplifted,
            "pair": _labels(universe, pair),
            "value_before": before,
            "value_after": after,
        }

    def pairs(self, space):
        return sorted(space.pairs + [(j, i) for i, j in space.pairs])

    def partners(self, key, pair, value):
        # once the base is armed, any one individual not preferring a yet
        # may flip to prefer it, everyone else keeping their stance
        ups = [u for u, s in enumerate(key) if s != 1] if _armed(value) else []
        return [(key[:u] + (1,) + key[u + 1 :], (u + 1, pair)) for u in ups]

    def flagged(self, value, firsts):
        return [combo for v, combo in firsts.items() if v < self.required]

    def draw(self, trials):
        orders, base = trials.base()
        a, b = trials.pair()
        if trials.rng.randrange(2):
            a, b = b, a
        if not _armed(base[1].outcome.pair_value(a, b)):
            return None
        losers = [pos for pos, o in enumerate(orders) if o.index(b) < o.index(a)]
        if not losers:
            return None
        uplifted = _choice(trials.rng, losers)
        partner = _partner(trials, orders, a, b, lifted=uplifted)
        return [base, partner], (uplifted + 1, (a, b))


class _MonotonicResponsiveness(_PositiveResponsiveness):
    axiom = AxiomId.MONOTONIC_RESPONSIVENESS
    required = 0.5


def _armed(before: float) -> bool:
    """Responsiveness speaks only when a is weakly on top before."""
    return before >= 0.5


class _ProximityPreservation(_Axiom):
    axiom = AxiomId.PROXIMITY_PRESERVATION
    fields = "profile_base profile_near_input profile_far_input D_near D_far d_near d_far"
    notes = PROXIMITY_NOTE

    def check(self, universe, views):
        base, near, far = views
        return _proximity_violation(
            _summed_kendall(base.prefs, near.prefs),
            _summed_kendall(base.prefs, far.prefs),
            outcome_distance(base.outcome, near.outcome),
            outcome_distance(base.outcome, far.outcome),
        )

    def cost(self, m, n, count):
        return count

    def search(self, space):
        # Tables first: per-individual order distances, and the distance
        # between every two distinct outcome rows (values on the pairs),
        # named by id. All values are halves, so every sum is exact. Per
        # base, a profile's floor is the least outcome distance over input
        # distances at least its own: the near profile is the first above
        # its floor, the far one the first at least as far in input with a
        # smaller outcome distance.
        order_dist = [[_kendall_slots(a, b) for b in space.prefs] for a in space.prefs]
        combos = list(space.combos())
        row_ids: dict[tuple, int] = {}
        ids = []
        for combo in combos:
            outcome = space.outcome(combo)
            row = tuple(outcome.pair_value(*pair) for pair in space.pairs)
            ids.append(row_ids.setdefault(row, len(row_ids)))
        row_dist = [
            [sum(abs(u - v) for u, v in zip(a, b)) for b in row_ids] for a in row_ids
        ]
        for base, combo in enumerate(combos):
            D = list(map(sum, product(*(order_dist[b] for b in combo))))
            d = list(map(row_dist[ids[base]].__getitem__, ids))
            floor, least = {}, math.inf
            for D_value, d_value in sorted(set(zip(D, d)), reverse=True):
                least = floor[D_value] = min(least, d_value)
            near = next((i for i, D_i in enumerate(D) if d[i] > floor[D_i]), None)
            if near is None:
                continue
            far = next(
                j for j, D_j in enumerate(D) if D_j >= D[near] and d[j] < d[near]
            )
            detail = _proximity_violation(D[near], D[far], d[near], d[far])
            return (combo, combos[near], combos[far]), detail
        return None

    def draw(self, trials):
        base = trials.base()[1]
        near, far = trials.base()[1], trials.base()[1]
        prefs = base[1].prefs
        if _summed_kendall(prefs, near[1].prefs) > _summed_kendall(prefs, far[1].prefs):
            near, far = far, near
        return [base, near, far], ()


def _proximity_violation(D_near, D_far, d_near, d_far):
    """A profile closer to the base has an outcome farther from it."""
    if D_near <= D_far and d_near > d_far:
        return {"D_near": D_near, "D_far": D_far, "d_near": d_near, "d_far": d_far}
    return None


# --------------------------------------------------------------------------
# entry points


def audit(rule: Rule, axiom: AxiomId, space: SearchSpace) -> AuditResult:
    """Audit one rule against one axiom over one search space.

    Fail verdicts carry a witness that re-verifies by re-running the
    rule (checked before returning); passes are claims about the
    searched space only, never theorems.
    """
    try:
        axiom = AxiomId(axiom)
    except ValueError:
        raise InapplicableAxiom(f"no axiom named {axiom!r}") from None
    if axiom in ORDINAL_AXIOMS and rule.mode != "ordinal":
        raise InapplicableAxiom(f"{axiom.value} needs an ordinal rule")
    if axiom in UTILITY_AXIOMS and rule.mode != "utility":
        raise InapplicableAxiom(f"{axiom.value} needs a utility rule")
    if axiom not in ORDINAL_AXIOMS and axiom not in UTILITY_AXIOMS:
        raise InapplicableAxiom(
            f"{axiom.value} is checked by its dedicated operation, not audit()"
        )
    return _AXIOMS[axiom].run(rule, space)


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
    spec, coincidence = _AXIOMS[AxiomId.MAY_COINCIDENCE], sampled(m, n, trials, seed)
    spec.price(coincidence)  # refuses the request before any premise audit runs
    for premise in MAY_PREMISES:
        result = audit(rule, premise, exhaustive(m, n))
        if result.failed:
            return result
    budget = (
        f"premises exhaustive m={m} n={n}; coincidence sampled "
        f"{trials} trials seed={seed}"
    )
    return replace(spec.run(rule, coincidence), search_budget=budget)


def continuity_check(dimension: int, epsilon: float, seed: int) -> AuditResult:
    """The mean-direction aggregator fails continuity: a constructive probe
    gives two profiles within 2*epsilon whose aggregates lie at least 1
    apart, re-verified by re-running the aggregator. The probe raises
    ValueError for a dimension below 2 or epsilon outside (0, 0.1)."""
    from .directions import continuity_probe  # not needed by the other audits

    witness = continuity_probe(dimension, epsilon, seed)
    if not witness.verify():
        raise AssertionError(
            "internal error: continuity witness failed re-verification"
        )
    return AuditResult(
        rule_name="mean-direction",
        axiom=AxiomId.CONTINUITY,
        verdict=FAIL,
        witness=witness.to_json_dict(),
        search_budget=(
            f"constructive probe dimension={dimension} epsilon={epsilon} seed={seed}"
        ),
        seed=seed,
        notes="witness verified by re-running the aggregator",
    )


def verify_result(rule: Rule, result: AuditResult) -> bool:
    """Re-run the rule on a fail witness's embedded profiles and re-check
    the claimed violation, after checking that the profiles meet the
    axiom's premise; pass verdicts verify vacuously. A malformed witness
    (a missing field, a profile that does not parse, holds a non-finite
    utility or is not in the rule's mode, a parameter of the wrong shape)
    verifies as False; the rule's own exceptions propagate. What no rule
    reads is not checked, as `Profile.from_json_dict` does not check it:
    extra witness or profile keys, owner names (renamed or repeated), and
    a missing profile `mode`, which reads as ordinal.

    A non-dictatorship witness re-checks only its demo profile, and the
    demo outcome tiers when it gives them (sampled witnesses give None),
    so it proves no dictator: kemeny, which passes non-dictatorship over
    exhaustive (3, 2), re-verifies dictator's (3, 2) witness."""
    if not result.failed:
        return True
    axiom = _AXIOMS.get(result.axiom)
    w = result.witness
    if axiom is None or not isinstance(w, dict) or not set(axiom.keys) <= set(w):
        return False
    try:
        profiles = [Profile.from_json_dict(w[key]) for key in axiom.profile_keys]
    except (MalformedProfile, NonFiniteUtility):
        return False
    universe, n = profiles[0].universe, profiles[0].n
    for p in profiles:
        if p.universe != universe or p.n != n or p.mode != rule.mode:
            return False
    params = [_param(key, w[key], universe, n) for key in axiom.params]
    if None in params:
        return False
    views = [
        _View(_prefs(p.individuals), _outcome(rule, p, axiom.catches)) for p in profiles
    ]
    if not axiom.premise(universe, views, *params):
        return False
    detail = axiom.check(universe, views, *params)
    if detail is None or any(w.get(k) != v for k, v in detail.items()):
        return False
    tiers = w.get("demo_outcome_tiers") if "demo_outcome_tiers" in axiom.keys else None
    return tiers is None or tiers == views[0].outcome.to_json_dict()["tiers"]


def _param(key: str, value, universe: Universe, n: int):
    """A witness parameter as the check reads it, or None if malformed:
    a pair of two distinct labels of the universe (as class indices), an
    individual in 1..n, or a permutation given as a list of ints."""
    if key == "pair":
        if not (isinstance(value, list) and len(value) == 2):
            return None
        if not all(isinstance(label, str) for label in value):
            return None
        try:
            pair = tuple(universe.index(InteractionClass.parse(c)) for c in value)
        except ValueError:  # not a label, or not one of the universe's
            return None
        return pair if pair[0] != pair[1] else None
    if key.endswith("permutation"):
        ints = isinstance(value, list) and all(type(x) is int for x in value)
        return value if ints else None
    return value if type(value) is int and 1 <= value <= n else None
