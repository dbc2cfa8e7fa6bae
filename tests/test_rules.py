"""Aggregation rules against spec'd examples plus independent oracles."""

import math
import pickle
import random
import struct
from dataclasses import dataclass, fields
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import foldvote.rules
from foldvote.errors import (
    BadIndex,
    NonFiniteUtility,
    TooLarge,
    TransformOverflow,
    WrongMode,
)
from foldvote.preferences import RankingWithTies, UtilityVector
from foldvote.profiles import (
    Profile,
    SynthSpec,
    generate,
    kendall_distance,
    profile_distance,
    synthetic_universe,
)
from foldvote.restrictions import is_quasi_transitive
from foldvote.rules import (
    KEMENY_MAX_CLASSES,
    AggregationOutcome,
    UtilityTransform,
    _borda_scores,
    _by_key,
    apply_transform,
    borda,
    dictator,
    first_intransitive_triple,
    kemeny,
    majority_tournament,
    may_rule,
    outcome_distance,
    standard_rules,
    utilitarian,
)
from test_profiles import all_weak_orders

U3 = synthetic_universe(3)
X, Y, Z = U3


def strict(order, owner="p", universe=U3):
    return RankingWithTies.from_strict_order(owner, universe, order)


def condorcet():
    return generate(SynthSpec("condorcet_cycle", 3, 3, seed=0))


def unanimous(order=(X, Y, Z), n=3):
    return Profile(U3, tuple(strict(order, f"v{i}") for i in range(n)))


def utility_profile(rows, universe=None):
    universe = universe or synthetic_universe(len(rows[0]))
    return Profile(
        universe,
        tuple(
            UtilityVector(f"v{i}", universe, dict(zip(universe, row)))
            for i, row in enumerate(rows)
        ),
        "utility",
    )


def relation_is_transitive(relation):
    m = len(relation)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if relation[i][j] and relation[j][k] and not relation[i][k]:
                    return False
    return True


class TestTournament:
    def test_condorcet_counts(self):
        counts = majority_tournament(condorcet())
        assert counts[0][1] == 2 and counts[1][0] == 1
        assert counts[1][2] == 2 and counts[2][1] == 1
        assert counts[2][0] == 2 and counts[0][2] == 1

    def test_unanimous_counts(self):
        counts = majority_tournament(unanimous())
        assert counts[0][1] == counts[0][2] == counts[1][2] == 3
        assert counts[1][0] == counts[2][0] == counts[2][1] == 0

    def test_all_indifferent(self):
        flat = RankingWithTies("a", U3, (tuple(U3),))
        p = Profile(U3, (flat, RankingWithTies("b", U3, (tuple(U3),))))
        counts = majority_tournament(p)
        assert all(c == 0 for row in counts for c in row)

    def test_counts_bounded_by_n(self):
        p = generate(SynthSpec("impartial_culture", 4, 7, seed=5))
        counts = majority_tournament(p)
        m = len(p.universe)
        for a in range(m):
            assert counts[a][a] == 0
            for b in range(m):
                if a != b:
                    assert counts[a][b] + counts[b][a] <= p.n

    def test_wrong_mode(self):
        with pytest.raises(WrongMode):
            majority_tournament(utility_profile([[1, 0], [0, 1]]))


class TestMay:
    def test_condorcet_cycle(self):
        out = may_rule(condorcet())
        assert out.transitive is False
        assert out.ranking is None
        assert out.cycle_witness == (X, Y, Z)
        # witness verifies against the relation: X>=Y, Y>=Z, Z>X
        i, j, k = (U3.index(c) for c in out.cycle_witness)
        assert out.relation[i][j] and out.relation[j][k]
        assert out.relation[k][i] and not out.relation[i][k]

    def test_unanimous(self):
        out = may_rule(unanimous())
        assert out.transitive is True
        assert out.ranking.tiers == ((X,), (Y,), (Z,))

    def test_matches_count_formula(self):
        for seed in range(40):
            p = generate(SynthSpec("impartial_culture", 4, 5, seed=seed))
            out = may_rule(p)
            counts = majority_tournament(p)
            m = len(p.universe)
            for a in range(m):
                for b in range(m):
                    assert out.relation[a][b] == (counts[a][b] >= counts[b][a])

    def test_transitive_flag_honest(self):
        for seed in range(60):
            p = generate(SynthSpec("impartial_culture", 3, 3, seed=seed))
            out = may_rule(p)
            assert out.transitive == relation_is_transitive(out.relation)
            if not out.transitive:
                assert out.cycle_witness is not None


class TestBorda:
    def test_condorcet_three_way_tie(self):
        out = borda(condorcet())
        assert out.transitive is True
        assert len(out.ranking.tiers) == 1
        assert set(out.ranking.tiers[0]) == {X, Y, Z}

    def test_unanimous(self):
        out = borda(unanimous())
        assert out.ranking.tiers == ((X,), (Y,), (Z,))

    def test_two_voter_scores(self):
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((Y, X, Z), "b")))
        out = borda(p)
        assert set(out.ranking.tiers[0]) == {X, Y}
        assert out.ranking.tiers[1] == (Z,)

    def test_midpoint_tie_scoring(self):
        # a ties X,Y above Z: each gets (1 + 2/2) ... below=1, within-tier bonus 0.5
        tied = RankingWithTies("a", U3, ((X, Y), (Z,)))
        p = Profile(U3, (tied, strict((Z, X, Y), "b")))
        out = borda(p)
        # scores: X: 1.5 + 1 = 2.5, Y: 1.5 + 0 = 1.5, Z: 0 + 2 = 2.0
        assert out.ranking.tiers == ((X,), (Z,), (Y,))

    def test_always_transitive(self):
        for seed in range(40):
            p = generate(SynthSpec("impartial_culture", 4, 4, seed=seed))
            assert borda(p).transitive


class TestKemeny:
    def test_unanimous(self):
        out = kemeny(unanimous())
        assert out.ranking.tiers == ((X,), (Y,), (Z,))

    def test_condorcet_against_exhaustive_oracle(self):
        p = condorcet()
        best = None
        for perm in permutations(U3):
            cand = RankingWithTies.from_strict_order("o", U3, perm)
            total = sum(kendall_distance(cand, ind) for ind in p.individuals)
            if best is None or total < best[0]:
                best = (total, perm)
        out = kemeny(p)
        # rotational symmetry: minimum total is 4, achieved by each rotation;
        # the rule must break the tie to the lexicographically first optimum
        assert best[0] == 4.0
        assert best[1] == (X, Y, Z)
        assert out.ranking.tiers == ((X,), (Y,), (Z,))
        assert out.transitive

    def test_matches_oracle_on_random_profiles(self):
        for seed in range(25):
            p = generate(SynthSpec("impartial_culture", 4, 3, seed=seed))
            u = p.universe
            best = None
            for perm in permutations(u):
                cand = RankingWithTies.from_strict_order("o", u, perm)
                total = sum(kendall_distance(cand, ind) for ind in p.individuals)
                if best is None or total < best[0]:
                    best = (total, perm)
            out = kemeny(p)
            got_total = sum(
                kendall_distance(out.ranking, ind) for ind in p.individuals
            )
            assert got_total == best[0]

    def test_too_large(self):
        u9 = synthetic_universe(9)
        p = Profile(
            u9,
            (
                RankingWithTies.from_strict_order("a", u9, u9),
                RankingWithTies.from_strict_order("b", u9, u9),
            ),
        )
        with pytest.raises(TooLarge):
            kemeny(p)


class TestDictator:
    def test_copies_k1(self):
        out = dictator(condorcet(), 1)
        assert out.ranking.tiers == ((X,), (Y,), (Z,))

    def test_copies_k2(self):
        out = dictator(condorcet(), 2)
        assert out.ranking.tiers == ((Y,), (Z,), (X,))

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            dictator(condorcet(), 4)
        with pytest.raises(BadIndex):
            dictator(condorcet(), 0)

    @pytest.mark.parametrize("k", [1.0, True, "1", None])
    def test_an_index_that_is_not_an_int_is_refused(self, k):
        # 1.0 raised a bare TypeError and True ran as dictator[True]
        with pytest.raises(BadIndex, match="^dictator index must be an int, got "):
            dictator(condorcet(), k)


class TestUtilitarian:
    def test_sum_example(self):
        p = utility_profile([[1.0, 0.0], [0.0, 2.0]])
        out = utilitarian(p)
        u2 = p.universe
        assert out.ranking.tiers == ((u2[1],), (u2[0],))

    def test_identical_vectors(self):
        p = utility_profile([[3.0, 1.0, 2.0], [3.0, 1.0, 2.0]])
        out = utilitarian(p)
        assert out.ranking.tiers == ((X,), (Z,), (Y,))

    def test_transform_invariance_example(self):
        p = utility_profile([[1.0, 0.0], [0.0, 2.0]])
        t = UtilityTransform(2.0, {"v0": 5.0, "v1": -3.0})
        assert utilitarian(apply_transform(p, t)).ranking.tiers == (
            utilitarian(p).ranking.tiers
        )

    def test_always_transitive(self):
        rng = random.Random(0)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            out = utilitarian(utility_profile(rows))
            assert out.transitive

    def test_sum_past_the_float_range_names_its_class(self):
        # math.fsum raises OverflowError; the rule names the class instead
        p = utility_profile([[0.0, 1e308, -1e308], [1.0, 1e308, -1e308]])
        message = f"^summed utility of {Y.render()} overflows$"
        with pytest.raises(NonFiniteUtility, match=message):
            utilitarian(p)

    def test_wrong_mode(self):
        with pytest.raises(WrongMode):
            utilitarian(condorcet())
        with pytest.raises(WrongMode):
            may_rule(utility_profile([[1, 0], [0, 1]]))

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            UtilityTransform(0.0, {})
        with pytest.raises(ValueError):
            UtilityTransform(-1.0, {})

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_transform_scale_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="^scale_alpha must be positive and finite"):
            UtilityTransform(alpha, {})

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_transform_offsets_must_be_finite(self, beta):
        with pytest.raises(ValueError, match=f"^offset of 'v1' must be finite, got {beta}$"):
            UtilityTransform(2.0, {"v0": 1.0, "v1": beta})


    def test_transform_overflow_names_protein_class_and_transform(self):
        # the transform, not the utility, is at fault: 1e308 * 10 overflows
        p = utility_profile([[1.0, 0.0], [0.0, 10.0]])
        with pytest.raises(
            TransformOverflow,
            match=(
                r"^scale_alpha 1e\+308 and offset 0.0 of protein 'v1' "
                r"send utility 10.0 of A-C to inf$"
            ),
        ):
            apply_transform(p, UtilityTransform(1e308, {}))
        p = utility_profile([[-1e308, 0.0], [0.0, 1.0]])
        with pytest.raises(
            TransformOverflow,
            match=(
                r"^scale_alpha 1.0 and offset -1.7e\+308 of protein 'v0' "
                r"send utility -1e\+308 of A-A to -inf$"
            ),
        ):
            apply_transform(p, UtilityTransform(1.0, {"v0": -1.7e308}))


class TestOutcomeDistance:
    def test_matches_kendall_on_rankings(self):
        a = may_rule(unanimous((X, Y, Z)))
        b = may_rule(unanimous((Z, Y, X)))
        assert outcome_distance(a, b) == 3.0

    def test_zero_on_self(self):
        out = may_rule(condorcet())
        assert outcome_distance(out, out) == 0.0

    def test_different_universes(self):
        u4 = synthetic_universe(4)
        wide = Profile(u4, tuple(strict(tuple(u4), f"v{i}", u4) for i in range(3)))
        with pytest.raises(WrongMode, match="^outcomes over different universes$"):
            outcome_distance(may_rule(unanimous()), may_rule(wide))


# shared properties every ordinal rule is expected to satisfy
ORDINAL_RULES = [
    ("may", may_rule),
    ("borda", borda),
    ("kemeny", kemeny),
]


@pytest.mark.parametrize("name,rule", ORDINAL_RULES)
def test_anonymity_random(name, rule):
    rng = random.Random(7)
    for seed in range(25):
        p = generate(SynthSpec("impartial_culture", 3, 4, seed=seed))
        order = list(range(p.n))
        rng.shuffle(order)
        q = Profile(
            p.universe,
            tuple(
                RankingWithTies(
                    f"v{i + 1}",
                    p.universe,
                    p.individuals[order[i]].tiers,
                )
                for i in range(p.n)
            ),
        )
        assert rule(p).relation == rule(q).relation


@pytest.mark.parametrize("name,rule", ORDINAL_RULES[:2])
def test_neutrality_random(name, rule):
    # kemeny is deliberately excluded: its lexicographic tie-break picks a
    # label-dependent optimum on tie profiles, so it is not neutral
    rng = random.Random(11)
    m = 3
    for seed in range(25):
        p = generate(SynthSpec("impartial_culture", m, 3, seed=seed))
        u = p.universe
        pi = list(range(m))
        rng.shuffle(pi)
        mapping = {u[old]: u[pi[old]] for old in range(m)}
        q = Profile(
            u,
            tuple(
                RankingWithTies.from_strict_order(
                    ind.owner, u, tuple(mapping[t[0]] for t in ind.tiers)
                )
                for ind in p.individuals
            ),
        )
        rel_p = rule(p).relation
        rel_q = rule(q).relation
        for i in range(m):
            for j in range(m):
                assert rel_q[pi[i]][pi[j]] == rel_p[i][j]


@pytest.mark.parametrize(
    "name,rule",
    ORDINAL_RULES + [("dictator1", lambda p: dictator(p, 1))],
)
def test_unanimity_random(name, rule):
    for seed in range(25):
        p = generate(SynthSpec("impartial_culture", 3, 3, seed=seed))
        out = rule(p)
        for a, b in combinations(range(3), 2):
            votes = [pair_value(ind, a, b) for ind in p.individuals]
            if all(v == 1.0 for v in votes):
                assert out.pair_value(a, b) == 1.0
            if all(v == 0.0 for v in votes):
                assert out.pair_value(b, a) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_utilitarian_anonymity(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
    p = utility_profile(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    q = utility_profile(shuffled)
    assert utilitarian(p).relation == utilitarian(q).relation


# ---------------------------------------------------------------------------
# differential tests: the slot-indexed kernels against the class-keyed code
# they replaced, kept here as references. Every count and pair value is an
# integer or a half, so all comparisons are exact.


def pair_value(ranking, i, j):
    """1.0 if slot i is preferred to slot j, 0.0 if j is, 0.5 on a tie."""
    si, sj = ranking.slots()[i], ranking.slots()[j]
    return 1.0 if si < sj else 0.0 if si > sj else 0.5


def ref_tournament(profile):
    m = profile.m
    counts = [[0] * m for _ in range(m)]
    for ind in profile.individuals:
        pos = ind.slots()
        for i in range(m):
            for j in range(m):
                if i != j and pos[i] < pos[j]:
                    counts[i][j] += 1
    return tuple(tuple(row) for row in counts)


def ref_kemeny_order(profile):
    """First order in permutations() order whose total distance is least."""
    universe = profile.universe
    m = len(universe)
    pairs = list(combinations(range(m), 2))
    ind_values = [
        [pair_value(ind, i, j) for i, j in pairs] for ind in profile.individuals
    ]
    best_order, best_total = None, float("inf")
    for cand in permutations(range(m)):
        pos = [0] * m
        for rank, cls_idx in enumerate(cand):
            pos[cls_idx] = rank
        total = 0.0
        for values in ind_values:
            for (i, j), v in zip(pairs, values):
                total += abs((1.0 if pos[i] < pos[j] else 0.0) - v)
        if total < best_total:
            best_total, best_order = total, cand
    return tuple(universe[i] for i in best_order)


def ref_ranking_relation(ranking):
    pos = ranking.slots()
    return tuple(tuple(a <= b for b in pos) for a in pos)


def ordinal_outcomes(profile):
    """Each standard ordinal rule's outcome on the profile, run once, so
    that both reference checks below can read the same outcome (Kemeny's
    only up to its class cap)."""
    outcomes = {
        "may": may_rule(profile),
        "borda": borda(profile),
        "dictator[1]": dictator(profile, 1),
        f"dictator[{profile.n}]": dictator(profile, profile.n),
    }
    if profile.m <= KEMENY_MAX_CLASSES:
        outcomes["kemeny"] = kemeny(profile)
    return outcomes


def assert_rules_match_reference(profile, kemeny_order=None, outcomes=None):
    m = profile.m
    outcomes = outcomes or ordinal_outcomes(profile)
    counts = ref_tournament(profile)
    assert majority_tournament(profile) == counts
    assert outcomes["may"].relation == tuple(
        tuple(i == j or counts[i][j] >= counts[j][i] for j in range(m))
        for i in range(m)
    )
    for outcome in (outcomes["borda"], outcomes[f"dictator[{profile.n}]"]):
        assert outcome.relation == ref_ranking_relation(outcome.ranking)
    out = outcomes["kemeny"]
    want = kemeny_order or ref_kemeny_order(profile)
    assert out.ranking.tiers == tuple((c,) for c in want)
    assert out.relation == ref_ranking_relation(out.ranking)


def random_weak_order(rng, universe, owner):
    labels = [rng.randrange(len(universe)) for _ in universe]
    ranks = sorted(set(labels))
    return RankingWithTies(
        owner,
        universe,
        tuple(
            tuple(c for c, lab in zip(universe, labels) if lab == r) for r in ranks
        ),
    )


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_slot_kernels_match_reference_on_strict_space(m, n):
    universe = synthetic_universe(m)
    orders = list(permutations(universe))
    rankings = [
        [strict(order, f"v{v + 1}", universe) for order in orders] for v in range(n)
    ]
    # the reference Kemeny sums over individuals, so its order depends only
    # on the multiset of orders; computing it once per multiset keeps the
    # 13824 profiles of (4, 3) affordable
    kemeny_orders = {}
    for combo in product(range(len(orders)), repeat=n):
        profile = Profile(
            universe, tuple(rankings[v][k] for v, k in enumerate(combo))
        )
        key = tuple(sorted(combo))
        if key not in kemeny_orders:
            kemeny_orders[key] = ref_kemeny_order(profile)
        outcomes = ordinal_outcomes(profile)
        assert_rules_match_reference(profile, kemeny_orders[key], outcomes)
        assert_per_slot_rules_match_reference(profile, kemeny_orders[key], outcomes)


def test_slot_kernels_match_reference_on_tied_profiles():
    rng = random.Random(2009)
    # the reference Kemeny is O(m! n m^2), so fewer profiles at larger m
    for m, count in ((2, 20), (3, 40), (4, 40), (5, 30), (6, 20), (7, 5)):
        universe = synthetic_universe(m)
        for k in range(count):
            n = 2 + k % 7
            profile = Profile(
                universe,
                tuple(random_weak_order(rng, universe, f"v{v}") for v in range(n)),
            )
            assert_rules_match_reference(profile)


# The packed tournament against ref_tournament, and the relation rows built
# with map against the generator expressions they replaced. Every count
# must be exact and a Python int, whatever field width n selects.


def old_may_relation(counts):
    m = len(counts)
    return tuple(
        tuple(i != j and counts[i][j] >= counts[j][i] or i == j for j in range(m))
        for i in range(m)
    )


def old_by_key_relation(key):
    return tuple(tuple(ki >= kj for kj in key) for ki in key)


def assert_tournament_matches_reference(profile):
    counts = ref_tournament(profile)
    got = majority_tournament(profile)
    assert got == counts
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert all(type(c) is int for row in got for c in row)
    relation = may_rule(profile).relation
    assert relation == old_may_relation(counts)
    assert all(type(v) is bool for row in relation for v in row)


@pytest.mark.parametrize("n", [255, 256, 65535, 65536])
def test_tournament_at_field_width_edges(n):
    # fields are 1, 2 or 4 bytes around these n: one strict order held by
    # n - 1 individuals and one tying its last two classes put n and n - 1
    # in the fields, the largest counts a width must hold
    u4 = synthetic_universe(4)
    order = strict(u4, "v", u4)
    tied = RankingWithTies("t", u4, ((u4[0],), (u4[1],), (u4[2], u4[3])))
    profile = Profile(u4, (order,) * (n - 1) + (tied,))
    counts = majority_tournament(profile)
    assert counts[0][1] == counts[1][2] == n and counts[2][3] == n - 1
    assert counts[3][2] == counts[1][0] == 0
    assert_tournament_matches_reference(profile)


def test_tournament_matches_reference_on_the_full_universe():
    rng = random.Random(210)
    universe = synthetic_universe(210)
    # labels drawn from fewer values give fewer, larger tiers
    for n, values in ((2, 210), (9, 3), (17, 20), (30, 210)):
        individuals = []
        for v in range(n):
            labels = [rng.randrange(values) for _ in universe]
            individuals.append(
                RankingWithTies(
                    f"v{v}",
                    universe,
                    tuple(
                        tuple(c for c, lab in zip(universe, labels) if lab == t)
                        for t in sorted(set(labels))
                    ),
                )
            )
        assert_tournament_matches_reference(Profile(universe, tuple(individuals)))


@pytest.mark.parametrize("m", [2, 3])
def test_tournament_matches_reference_on_all_weak_order_spaces(m):
    rankings = all_weak_orders(m)
    universe = rankings[0].universe
    for n in (2, 3):
        for combo in product(rankings, repeat=n):
            assert_tournament_matches_reference(Profile(universe, combo))


@pytest.mark.parametrize(
    "key",
    [
        [3, 1, 3, 0, -2, 1],
        [0.0, -0.0, 1.5, -1.5, 0.0, 2.5, 1.5],
        [0, 0.0, -0.0, 1, 1.0, -1],
        [2**70, 2**70 + 1, -(2**70), 2**70],
        [-0.0, -0.0],
    ],
)
def test_by_key_relation_matches_the_generator_expression(key):
    outcome = _by_key("k", synthetic_universe(len(key)), key)
    assert outcome.relation == old_by_key_relation(key)
    assert all(type(v) is bool for row in outcome.relation for v in row)
    assert outcome.transitive


def test_by_key_relation_matches_on_seeded_keys():
    rng = random.Random(17)
    pool = [0.0, -0.0, 0, 1, -1, 0.5, -0.5, 1.0]
    for m in range(2, 12):
        for _ in range(20):
            key = [rng.choice(pool) for _ in range(m)]
            outcome = _by_key("k", synthetic_universe(m), key)
            assert outcome.relation == old_by_key_relation(key)
            assert outcome.transitive


# A key-ranked outcome keeps its key and builds its relation on first read.
# It must be indistinguishable from an outcome given the relation the old
# _by_key built, and its derived reads must not build the relation.


def assert_key_outcome_matches_eager(key):
    universe = synthetic_universe(len(key))
    eager = AggregationOutcome("k", universe, old_by_key_relation(key))
    # derived reads first, on an outcome whose relation is still unbuilt
    lazy = _by_key("k", universe, key)
    assert lazy.transitive == eager.transitive
    assert lazy.cycle_witness == eager.cycle_witness
    assert lazy.ranking == eager.ranking
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert lazy._dominance == eager._dominance
    assert "relation" not in vars(lazy)
    # then the reads that show the relation, each on a fresh outcome

    def fresh():
        return _by_key("k", universe, key)

    assert fresh() == eager
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    assert type(fresh()) is AggregationOutcome and fields(fresh()) == fields(eager)
    thawed = pickle.loads(pickle.dumps(fresh()))
    assert thawed == eager and thawed.to_json_dict() == eager.to_json_dict()
    assert pickle.loads(pickle.dumps(lazy)) == eager
    m = len(key)
    pairs = [(i, j) for i in range(m) for j in range(m)]
    outcome = fresh()
    assert [outcome.pair_value(*p) for p in pairs] == [
        eager.pair_value(*p) for p in pairs
    ]
    assert outcome.relation is outcome.relation


KEY_POOL = [0, 1, -1, 2, 0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2**70, -(2**70), 2**70 + 1]


def test_key_outcome_matches_eager_outcome_on_seeded_keys():
    rng = random.Random(25)
    for m in (1, 2, 3, 4, 5, 8, 13, 40, 210):
        for _ in range(8):
            # a few distinct values give many ties
            pool = rng.sample(KEY_POOL, rng.randint(1, len(KEY_POOL)))
            assert_key_outcome_matches_eager([rng.choice(pool) for _ in range(m)])


@given(
    st.lists(
        st.one_of(
            st.integers(-3, 3),
            st.integers(-(2**72), 2**72),
            st.integers(-8, 8).map(lambda h: h / 2),
            st.sampled_from([0.0, -0.0, float(2**70)]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_key_outcome_matches_eager_outcome_on_drawn_keys(key):
    assert_key_outcome_matches_eager(key)


def test_standard_rules_leave_the_relation_unbuilt_until_read():
    ordinal = generate(SynthSpec("impartial_culture", 8, 7, seed=25))
    utility = utility_profile([[1.0, 0.0, 2.0, 2.0], [0.5, 2.0, 2.0, -1.0]])
    for name, rule in standard_rules(3).items():
        if name == "may":
            continue
        out = rule(utility if rule.mode == "utility" else ordinal)
        out.transitive, out.cycle_witness, out.ranking, out.to_json_dict()
        assert "relation" not in vars(out), name
        assert out.relation == ref_ranking_relation(out.ranking), name


class UnlistableUniverse(tuple):
    """A universe that raises AttributeError when its classes are listed."""

    def __iter__(self):
        raise AttributeError("this universe cannot be listed")


def test_an_attribute_error_in_a_derived_read_keeps_its_message():
    # a property that raises AttributeError sends Python to __getattr__,
    # which must raise that error again, not "no attribute 'ranking'"
    universe = UnlistableUniverse(synthetic_universe(3))
    eager = AggregationOutcome("e", universe, old_by_key_relation([1, 0, 2]))
    for outcome in (eager, _by_key("k", universe, [1, 0, 2])):
        with pytest.raises(AttributeError, match="^this universe cannot be listed$"):
            outcome.ranking
    with pytest.raises(AttributeError, match="has no attribute 'no_such_read'"):
        eager.no_such_read


def test_slot_order_rankings_keep_their_tiers_unbuilt_through_the_rules():
    # generate makes every individual with from_slot_order; the rules and
    # the distance read its slots and tier count, never its tiers
    a = generate(SynthSpec("impartial_culture", 8, 7, seed=26))
    b = generate(SynthSpec("single_peaked", 8, 7, seed=26))
    majority_tournament(a)
    for rule in (may_rule, borda, kemeny):
        rule(a).to_json_dict()
    profile_distance(a, b)
    for ind in a.individuals + b.individuals:
        assert "tiers" not in vars(ind)


def loop_borda_scores(profile):
    """_borda_scores as it was before strict individuals were summed by
    column: every individual added one at a time, in profile order."""
    m = profile.m
    scores = [0.0] * m
    for ind in profile.individuals:
        below, tier_scores = m, []
        for tier in ind.tiers:
            below -= len(tier)
            tier_scores.append(below + (len(tier) - 1) / 2.0)
        for i, tier in enumerate(ind.slots()):
            scores[i] += tier_scores[tier]
    return scores


def float_bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize(
    "m,n", [(1, 2), (2, 3), (3, 5), (4, 7), (8, 20), (20, 50), (210, 100)]
)
def test_column_borda_matches_the_loop_bitwise(m, n):
    rng = random.Random(26 * m + n)
    universe = synthetic_universe(m)
    for seed in range(3):
        strict = generate(SynthSpec("impartial_culture", m, n, seed)).individuals
        tied = [random_weak_order(rng, universe, f"t{k}") for k in range(n)]
        mixed = [rng.choice(pair) for pair in zip(strict, tied)]
        for individuals in (strict, tied, mixed):
            profile = Profile(universe, tuple(individuals))
            got = _borda_scores(profile)
            assert float_bits(got) == float_bits(loop_borda_scores(profile))


# The class-keyed Borda scores and utilitarian totals that the per-slot
# code replaced, and the outcome builders that derived reads replaced, kept
# as references. An outcome used to store its transitivity, cycle witness
# and ranking, built either from a relation (a triple scan, then tiers of
# equal dominance count) or from a ranking (transitive by construction).
# Borda adds the same halves per individual in the same order and the
# totals are math.fsum, so every comparison is exact.


def old_borda_scores(profile):
    scores = {c: 0.0 for c in profile.universe}
    for ind in profile.individuals:
        below = len(profile.universe)
        for tier in ind.tiers:
            below -= len(tier)
            tier_score = below + (len(tier) - 1) / 2.0
            for cls in tier:
                scores[cls] += tier_score
    return scores


def old_utilitarian_totals(profile):
    values = [dict(zip(ind.universe, ind.values)) for ind in profile.individuals]
    return {cls: math.fsum(v[cls] for v in values) for cls in profile.universe}


@dataclass(frozen=True)
class OldOutcome:
    rule_name: str
    universe: tuple
    relation: tuple
    transitive: bool
    ranking: RankingWithTies | None
    cycle_witness: tuple | None

    def to_json_dict(self):
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


def old_ranking_by_key(rule_name, universe, key):
    tiers = {}
    for cls, k in zip(universe, key):
        tiers.setdefault(k, []).append(cls)
    ordered = tuple(tuple(tiers[k]) for k in sorted(tiers, reverse=True))
    return RankingWithTies(owner=rule_name, universe=universe, tiers=ordered)


def old_outcome_from_relation(rule_name, universe, relation):
    triple = first_intransitive_triple(relation)
    ranking = None
    if triple is None:
        m = len(universe)
        dom = [
            sum(1 for j in range(m) if j != i and relation[i][j] and not relation[j][i])
            for i in range(m)
        ]
        ranking = old_ranking_by_key(rule_name, universe, dom)
    witness = None if triple is None else tuple(universe[i] for i in triple)
    return OldOutcome(rule_name, universe, relation, triple is None, ranking, witness)


def old_outcome_from_ranking(rule_name, ranking):
    slots = ranking.slots()
    relation = tuple(tuple(si <= sj for sj in slots) for si in slots)
    return OldOutcome(rule_name, ranking.universe, relation, True, ranking, None)


def old_outcome_from_scores(rule_name, universe, scores):
    key = [scores[c] for c in universe]
    return old_outcome_from_ranking(
        rule_name, old_ranking_by_key(rule_name, universe, key)
    )


def assert_same_outcome(new, old):
    assert new.relation == old.relation
    assert new.transitive == old.transitive
    assert new.cycle_witness == old.cycle_witness
    assert new.ranking == old.ranking
    assert new.to_json_dict() == old.to_json_dict()


def assert_per_slot_rules_match_reference(profile, kemeny_order=None, outcomes=None):
    """Every standard rule's outcome (run here unless given) against the
    one the old code built; Kemeny's reference order is brute force, so it
    runs up to m=5 unless the order is given."""
    universe, m = profile.universe, profile.m
    if profile.mode == "utility":
        totals = old_utilitarian_totals(profile)
        want = old_outcome_from_scores("utilitarian", universe, totals)
        assert_same_outcome(utilitarian(profile), want)
        return
    outcomes = outcomes or ordinal_outcomes(profile)
    scores = old_borda_scores(profile)
    assert _borda_scores(profile) == [scores[c] for c in universe]
    want = old_outcome_from_scores("borda", universe, scores)
    assert_same_outcome(outcomes["borda"], want)
    counts = ref_tournament(profile)
    relation = tuple(
        tuple(i == j or counts[i][j] >= counts[j][i] for j in range(m))
        for i in range(m)
    )
    want = old_outcome_from_relation("may", universe, relation)
    assert_same_outcome(outcomes["may"], want)
    for k in (1, profile.n):
        name = f"dictator[{k}]"
        chosen = RankingWithTies(name, universe, profile.individuals[k - 1].tiers)
        want = old_outcome_from_ranking(name, chosen)
        assert_same_outcome(outcomes[name], want)
    if kemeny_order is None and m <= 5:
        kemeny_order = ref_kemeny_order(profile)
    if kemeny_order is not None:
        order = RankingWithTies.from_strict_order("kemeny", universe, kemeny_order)
        want = old_outcome_from_ranking("kemeny", order)
        assert_same_outcome(outcomes["kemeny"], want)


def seeded_utility_profile(rng, m, n):
    # values from a small grid, so classes tie within and across individuals
    universe = synthetic_universe(m)
    grid = (-1.5, 0.0, 0.1, 0.2, 0.3, 2.0, 1e16)
    rows = [[rng.choice(grid) for _ in range(m)] for _ in range(n)]
    return utility_profile(rows, universe)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 21, 40])
def test_per_slot_rules_match_reference_on_tied_and_utility_profiles(m):
    rng = random.Random(m)
    universe = synthetic_universe(m)
    for k in range(25):
        n = 2 + k % 9
        tied = Profile(
            universe,
            tuple(random_weak_order(rng, universe, f"v{v}") for v in range(n)),
        )
        assert_per_slot_rules_match_reference(tied)
        strict_orders = tuple(
            strict(tuple(rng.sample(universe, m)), f"v{v}", universe) for v in range(n)
        )
        assert_per_slot_rules_match_reference(Profile(universe, strict_orders))
        assert_per_slot_rules_match_reference(seeded_utility_profile(rng, m, n))


def test_kemeny_tie_break_is_lexicographic_on_all_tied_profile():
    u = synthetic_universe(5)
    p = Profile(u, tuple(RankingWithTies(f"v{v}", u, (u,)) for v in range(3)))
    assert kemeny(p).ranking.tiers == tuple((c,) for c in u)


# The four triple scans that first_intransitive_triple replaced, kept as
# references: rules.is_transitive, rules._cycle_witness (as indices),
# audit._find_intransitive_triple and restrictions.is_quasi_transitive.


def old_is_transitive(relation):
    m = len(relation)
    for i in range(m):
        for j in range(m):
            if i == j or not relation[i][j]:
                continue
            row_i, row_j = relation[i], relation[j]
            for k in range(m):
                if row_j[k] and not row_i[k]:
                    return False
    return True


def old_cycle_witness(relation):
    m = len(relation)
    for i in range(m):
        for j in range(m):
            if i == j or not relation[i][j]:
                continue
            for k in range(m):
                if k in (i, j):
                    continue
                if relation[j][k] and not relation[i][k] and relation[k][i]:
                    return (i, j, k)
    raise AssertionError("no witness in an intransitive relation")


def old_find_intransitive_triple(relation):
    m = len(relation)
    for i in range(m):
        for j in range(m):
            if i == j or not relation[i][j]:
                continue
            for k in range(m):
                if k not in (i, j) and relation[j][k] and not relation[i][k]:
                    return i, j, k
    return None


def old_is_quasi_transitive(relation):
    m = len(relation)

    def strict(i, j):
        return relation[i][j] and not relation[j][i]

    for i in range(m):
        for j in range(m):
            if i != j and strict(i, j):
                for k in range(m):
                    if k not in (i, j) and strict(j, k) and not strict(i, k):
                        return False
    return True


class TestIntransitivityScan:
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_old_scans_on_every_reflexive_relation(self, m):
        universe = synthetic_universe(m)
        off = [(i, j) for i in range(m) for j in range(m) if i != j]
        for bits in product((False, True), repeat=len(off)):
            rows = [[i == j for j in range(m)] for i in range(m)]
            for (i, j), bit in zip(off, bits):
                rows[i][j] = bit
            relation = tuple(map(tuple, rows))
            triple = first_intransitive_triple(relation)
            assert triple == old_find_intransitive_triple(relation)
            assert (triple is None) == old_is_transitive(relation)
            complete = all(relation[i][j] or relation[j][i] for i, j in off)
            if complete and triple is not None:
                assert triple == old_cycle_witness(relation)
            outcome = AggregationOutcome("t", universe, relation)
            assert is_quasi_transitive(outcome) == old_is_quasi_transitive(relation)
            assert_same_outcome(
                outcome, old_outcome_from_relation("t", universe, relation)
            )

    def test_incomplete_intransitive_relation_gets_a_witness(self):
        # X >= Y and Y >= Z, with X and Z incomparable
        T, F = True, False
        out = AggregationOutcome("t", U3, ((T, T, F), (F, T, T), (F, F, T)))
        assert not out.transitive and out.ranking is None
        assert out.cycle_witness == (X, Y, Z)


class TestDerivedOutcome:
    def test_an_outcome_is_its_relation(self):
        names = [f.name for f in fields(AggregationOutcome)]
        assert names == ["rule_name", "universe", "relation"]

    def test_relation_must_match_the_universe(self):
        for relation in (((True,),), ((True, True, True),) * 2, ((True, True),) * 3):
            out = AggregationOutcome("x", U3, relation)
            with pytest.raises(ValueError, match="relation must be 3 x 3"):
                out.transitive

    def test_derived_reads_are_worked_out_once(self):
        out = borda(condorcet())
        assert out.ranking is out.ranking
        cyc = may_rule(condorcet())
        assert cyc.cycle_witness is cyc.cycle_witness

    def test_no_ranking_is_built_in_a_rule_call(self, monkeypatch):
        profiles = [
            condorcet(),
            unanimous(),
            generate(SynthSpec("impartial_culture", 5, 4, seed=3)),
            Profile(U3, (RankingWithTies("a", U3, ((X, Y), (Z,))), strict((Z, Y, X)))),
        ]
        utility = utility_profile([[1.0, 0.0, 2.0], [0.0, 2.0, 2.0]])
        built = []
        check = RankingWithTies.__post_init__

        def counted(self):
            built.append(self.owner)
            check(self)

        monkeypatch.setattr(RankingWithTies, "__post_init__", counted)
        for name, rule in standard_rules(2).items():
            for profile in [utility] if rule.mode == "utility" else profiles:
                out = rule(profile)
                assert built == [], name
                # reading the ranking builds it, once
                if out.transitive:
                    out.ranking, out.ranking
                    assert built == [out.rule_name]
                    built.clear()

    def test_a_total_preorder_is_confirmed_without_the_triple_scan(
        self, monkeypatch
    ):
        def scan(relation):
            raise AssertionError("triple scan run on a total preorder")

        monkeypatch.setattr(foldvote.rules, "first_intransitive_triple", scan)
        p = generate(SynthSpec("impartial_culture", 210, 3, seed=4))
        out = borda(p)
        assert out.transitive
        assert out.cycle_witness is None
        assert sum(map(len, out.ranking.tiers)) == 210
        assert out.to_json_dict()["transitive"] is True
        assert may_rule(Profile(p.universe, p.individuals[:1] * 2)).transitive


# may, borda and kemeny read a profile only through its pairwise counts
# and n, so standard_rules marks them pairwise and exhaustive audits run
# each once per count matrix, giving its outcome to every profile with
# that matrix. Profiles with equal counts must get equal outcomes.

PAIRWISE_RULES = ("may", "borda", "kemeny")


def assert_same_outcome_per_count_matrix(profiles):
    keyed = [(ref_tournament(profile), profile) for profile in profiles]
    for rule in standard_rules().values():
        if not rule.pairwise:
            continue
        by_counts = {}
        for counts, profile in keyed:
            outcome = rule(profile)
            first = by_counts.setdefault(counts, outcome)
            assert (outcome.rule_name, outcome.universe, outcome.relation) == (
                first.rule_name,
                first.universe,
                first.relation,
            ), rule.name


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_pairwise_rules_agree_per_count_matrix_on_strict_space(m, n):
    universe = synthetic_universe(m)
    orders = list(permutations(universe))
    rankings = [
        [strict(order, f"v{v + 1}", universe) for order in orders] for v in range(n)
    ]
    assert_same_outcome_per_count_matrix(
        Profile(universe, tuple(rankings[v][k] for v, k in enumerate(combo)))
        for combo in product(range(len(orders)), repeat=n)
    )


@pytest.mark.parametrize("m", [3, 5, 8])
def test_pairwise_rules_agree_per_count_matrix_on_tied_profiles(m):
    # a strict order and its reverse add 1 to every N(a > b) whatever the
    # order, so a tied profile joined by two such pairs has one matrix
    rng = random.Random(1977 + m)
    universe = synthetic_universe(m)
    for k in range(25):
        base = tuple(
            random_weak_order(rng, universe, f"v{v}") for v in range(k % 10)
        )
        joined = []
        for _ in range(2):
            order = rng.sample(universe, m)
            pair = (
                strict(order, "x", universe),
                strict(order[::-1], "y", universe),
            )
            joined.append(Profile(universe, base + pair))
        assert ref_tournament(joined[0]) == ref_tournament(joined[1])
        assert_same_outcome_per_count_matrix(joined)


def test_only_pairwise_rules_are_marked():
    rules = standard_rules()
    assert [name for name, rule in rules.items() if rule.pairwise] == list(
        PAIRWISE_RULES
    )


def test_kemeny_refuses_too_many_classes_before_counting(monkeypatch):
    def no_count(profile):
        raise AssertionError("counted the tournament")

    monkeypatch.setattr(foldvote.rules, "majority_tournament", no_count)
    u9 = synthetic_universe(9)
    with pytest.raises(TooLarge):
        kemeny(Profile(u9, (strict(u9, "v1", u9),) * 100))
