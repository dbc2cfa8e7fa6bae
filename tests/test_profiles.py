"""Profiles, the tie-aware Kendall distance, and synthetic generators."""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from foldvote.errors import BadSpec, Incompatible, MalformedProfile, UniverseMismatch
from foldvote.preferences import RankingWithTies, UtilityVector
from foldvote.profiles import (
    SYNTH_KINDS,
    Profile,
    SynthSpec,
    generate,
    kendall_distance,
    profile_distance,
    synthetic_universe,
)
from foldvote.restrictions import find_axis

U3 = synthetic_universe(3)
X, Y, Z = U3


def strict(order, owner="p", universe=U3):
    return RankingWithTies.from_strict_order(owner, universe, order)


def tiers(*groups, owner="p", universe=U3):
    return RankingWithTies(owner, universe, tuple(tuple(g) for g in groups))


def uniform(owner="p"):
    return UtilityVector(owner, U3, (1.0, 1.0, 1.0))


# strategy: random weak order over m classes via random tier labels
@st.composite
def weak_orders(draw, m=4):
    universe = synthetic_universe(m)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    grouped: dict[int, list] = {}
    for cls, lab in zip(universe, labels):
        grouped.setdefault(lab, []).append(cls)
    ordered = tuple(tuple(grouped[k]) for k in sorted(grouped))
    return RankingWithTies("h", universe, ordered)


class TestKendall:
    def test_one_swap(self):
        assert kendall_distance(strict((X, Y, Z)), strict((X, Z, Y))) == 1.0

    def test_identity(self):
        assert kendall_distance(strict((X, Y, Z)), strict((X, Y, Z))) == 0.0

    def test_full_reversal(self):
        assert kendall_distance(strict((X, Y, Z)), strict((Z, Y, X))) == 3.0

    def test_tie_against_strict_is_half(self):
        assert kendall_distance(strict((X, Y, Z)), tiers((X, Y), (Z,))) == 0.5

    def test_universe_mismatch(self):
        other = strict(tuple(synthetic_universe(4)), universe=synthetic_universe(4))
        with pytest.raises(UniverseMismatch):
            kendall_distance(strict((X, Y, Z)), other)

    @given(weak_orders(), weak_orders(), weak_orders())
    @settings(max_examples=300)
    def test_metric(self, a, b, c):
        dab = kendall_distance(a, b)
        assert dab == kendall_distance(b, a)
        assert dab >= 0.0
        assert (dab == 0.0) == (a.slots() == b.slots())
        assert dab <= kendall_distance(a, c) + kendall_distance(c, b)

    def test_values_are_exact_halves(self):
        d = kendall_distance(tiers((X, Y), (Z,)), strict((Z, X, Y)))
        assert d == math.floor(d * 2) / 2


class TestProfileDistance:
    def test_zero_on_equal(self):
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((Y, X, Z), "b")))
        assert profile_distance(p, p) == 0.0

    def test_one_swap_in_one_individual(self):
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((Y, X, Z), "b")))
        q = Profile(U3, (strict((X, Y, Z), "a"), strict((Y, Z, X), "b")))
        assert profile_distance(p, q) == 1.0

    def test_two_full_reversals(self):
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((X, Y, Z), "b")))
        q = Profile(U3, (strict((Z, Y, X), "a"), strict((Z, Y, X), "b")))
        assert profile_distance(p, q) == 6.0

    def test_incompatible(self):
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((X, Y, Z), "b")))
        q = Profile(
            U3,
            (strict((X, Y, Z), "a"), strict((X, Y, Z), "b"), strict((X, Y, Z), "c")),
        )
        with pytest.raises(Incompatible):
            profile_distance(p, q)

    def test_utility_profiles(self):
        p = Profile(U3, (uniform("a"), uniform("b")), "utility")
        with pytest.raises(
            Incompatible, match="^profile distance is defined for ordinal profiles$"
        ):
            profile_distance(p, p)

    def test_different_universes(self):
        u = synthetic_universe(4)[1:]
        p = Profile(U3, (strict((X, Y, Z), "a"), strict((X, Y, Z), "b")))
        q = Profile(u, (strict(u, "a", u), strict(u, "b", u)))
        with pytest.raises(Incompatible, match="^profiles over different universes$"):
            profile_distance(p, q)


class TestProfileModel:
    def test_needs_two_individuals(self):
        with pytest.raises(ValueError):
            Profile(U3, (strict((X, Y, Z)),))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown mode 'cardinal'$"):
            Profile(U3, (strict((X, Y, Z)), strict((Z, Y, X))), "cardinal")

    def test_individual_of_the_wrong_type(self):
        with pytest.raises(ValueError, match="^ordinal profile holds a UtilityVector$"):
            Profile(U3, (strict((X, Y, Z)), uniform()))

    def test_universe_agreement(self):
        w = strict(tuple(synthetic_universe(4)), universe=synthetic_universe(4))
        with pytest.raises(UniverseMismatch):
            Profile(U3, (strict((X, Y, Z)), w))

    def test_json_roundtrip(self):
        p = Profile(U3, (tiers((X, Y), (Z,), owner="a"), strict((Z, X, Y), "b")))
        assert Profile.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize(
        "field, value",
        [
            ("universe", "A-A"),
            ("universe", [1, 2, 3]),
            ("individuals", {"owner": "a"}),
            ("individuals", [5, 6]),
            ("individuals", [{"owner": "a", "tiers": "A-A"}] * 2),
            ("individuals", [{"owner": "a", "tiers": [[1]]}] * 2),
        ],
    )
    def test_json_field_shapes_checked(self, field, value):
        obj = Profile(U3, (strict((X, Y, Z), "a"), strict((Z, X, Y), "b"))).to_json_dict()
        obj[field] = value
        with pytest.raises(MalformedProfile):
            Profile.from_json_dict(obj)

    @pytest.mark.parametrize("obj", [None, [], 5])
    def test_json_profile_must_be_an_object(self, obj):
        # these raised a bare TypeError
        with pytest.raises(MalformedProfile, match="a profile must be an object"):
            Profile.from_json_dict(obj)

    @pytest.mark.parametrize("mode", ["ordinal", "utility"])
    def test_json_universe_repeating_a_class_rejected(self, mode):
        # "C-A" and "A-C" are two labels of one class
        obj = {"universe": ["A-A", "C-A", "A-C"], "mode": mode}
        if mode == "ordinal":
            individual = {"owner": "a", "tiers": [["A-C"], ["A-A"]]}
        else:
            individual = {"owner": "a", "values": {"A-A": 1.0, "A-C": 2.0}}
        obj["individuals"] = [individual] * 2
        with pytest.raises(MalformedProfile, match="universe repeats A-C"):
            Profile.from_json_dict(obj)

    @pytest.mark.parametrize("mode", ["foo", "Ordinal", None, 1])
    def test_json_unknown_mode_rejected(self, mode):
        # tiered individuals under an unknown mode were read as utility
        # vectors and ended in KeyError: 'values'
        obj = Profile(U3, (strict((X, Y, Z), "a"), strict((Z, X, Y), "b"))).to_json_dict()
        obj["mode"] = mode
        with pytest.raises(MalformedProfile) as exc:
            Profile.from_json_dict(obj)
        assert str(exc.value) == f'mode must be "ordinal" or "utility", got {mode!r}'

    def test_json_mode_checked_before_individuals(self):
        obj = {"universe": ["A-A"], "mode": "foo", "individuals": "none"}
        with pytest.raises(MalformedProfile, match="mode must be"):
            Profile.from_json_dict(obj)

    @pytest.mark.parametrize(
        # an integer too large for a float ended in an OverflowError
        # traceback, and true was read as the utility 1.0
        "values",
        [[0.0, 1.0, 2.0], {"A-A": "high"}, {"A-A": 10**400}, {"A-A": True}],
    )
    def test_json_utility_values_checked(self, values):
        obj = {"universe": ["A-A"], "mode": "utility"}
        obj["individuals"] = [{"owner": "a", "values": values}] * 2
        with pytest.raises(MalformedProfile):
            Profile.from_json_dict(obj)

    @pytest.mark.parametrize(
        "values,message",
        [
            # the C-A value was dropped without a word: the vector loaded as
            # (1.0, 5.0)
            ({"A-A": 1, "C-A": 1, "A-C": 5}, "values name A-C twice"),
            ({"A-A": 1, "A-C": 5, "C-A": 1}, "values name A-C twice"),
            # these raised UniverseMismatch
            ({"A-A": 1}, "values miss A-C"),
            ({"A-C": 1}, "values miss A-A"),
            ({"A-A": 1, "A-C": 5, "A-D": 2}, "values name A-D, outside the universe"),
        ],
    )
    def test_json_utility_values_name_each_class_once(self, values, message):
        individual = {"owner": "a", "universe": ["A-A", "A-C"], "values": values}
        with pytest.raises(MalformedProfile) as exc:
            UtilityVector.from_json_dict(individual)
        assert str(exc.value) == message
        obj = {"universe": ["A-A", "A-C"], "mode": "utility"}
        obj["individuals"] = [individual] * 2
        with pytest.raises(MalformedProfile) as exc:
            Profile.from_json_dict(obj)
        assert str(exc.value) == message

    def test_json_utility_label_in_either_order(self):
        obj = {"universe": ["A-A", "A-C"], "mode": "utility"}
        obj["individuals"] = [{"owner": "a", "values": {"C-A": 5, "A-A": 1}}] * 2
        profile = Profile.from_json_dict(obj)
        assert [u.values for u in profile.individuals] == [(1.0, 5.0)] * 2

    def test_utility_vector_constructor_keeps_its_error(self):
        with pytest.raises(UniverseMismatch):
            UtilityVector("a", U3, {X: 1.0, Y: 2.0})


class TestGenerate:
    def test_condorcet_template(self):
        p = generate(SynthSpec("condorcet_cycle", 3, 3, seed=99))
        got = [tuple(t[0] for t in ind.tiers) for ind in p.individuals]
        assert got == [(X, Y, Z), (Y, Z, X), (Z, X, Y)]

    def test_condorcet_multiple_of_three(self):
        p = generate(SynthSpec("condorcet_cycle", 3, 6, seed=0))
        assert p.n == 6

    def test_condorcet_bad_n(self):
        with pytest.raises(BadSpec):
            generate(SynthSpec("condorcet_cycle", 3, 4, seed=0))

    def test_same_seed_identical(self):
        a = generate(SynthSpec("impartial_culture", 5, 7, seed=1234))
        b = generate(SynthSpec("impartial_culture", 5, 7, seed=1234))
        assert a == b

    def test_different_seed_differs(self):
        a = generate(SynthSpec("impartial_culture", 5, 7, seed=1))
        b = generate(SynthSpec("impartial_culture", 5, 7, seed=2))
        assert a != b

    def test_individuals_are_strict(self):
        p = generate(SynthSpec("impartial_culture", 4, 5, seed=3))
        assert all(ind.is_strict for ind in p.individuals)

    def test_single_peaked_validates(self):
        p = generate(SynthSpec("single_peaked", 5, 50, seed=42))
        assert find_axis(p) is not None

    def test_custom_rejected(self):
        with pytest.raises(BadSpec):
            generate(SynthSpec("custom", 3, 3, seed=0))

    def test_unknown_kind(self):
        with pytest.raises(BadSpec):
            generate(SynthSpec("mallows", 3, 3, seed=0))

    def test_bad_sizes(self):
        with pytest.raises(BadSpec):
            generate(SynthSpec("impartial_culture", 0, 3, seed=0))
        with pytest.raises(BadSpec):
            generate(SynthSpec("impartial_culture", 3, 1, seed=0))
        with pytest.raises(BadSpec):
            generate(SynthSpec("condorcet_cycle", 2, 3, seed=0))

    @pytest.mark.parametrize(
        "m,n,seed,message",
        [
            # m=True built a one-class profile; the others raised a bare
            # TypeError, or ran on a seed random.Random happens to take
            (True, 3, 0, "m must be an integer, got True"),
            (3.0, 3, 0, "m must be an integer, got 3.0"),
            (3, 3.0, 0, "n must be an integer, got 3.0"),
            (3, "3", 0, "n must be an integer, got '3'"),
            (3, 3, [1], "seed must be an integer, got [1]"),
            (3, 3, 1.5, "seed must be an integer, got 1.5"),
            (3, 3, "abc", "seed must be an integer, got 'abc'"),
            (3, 3, True, "seed must be an integer, got True"),
            (3, 3, None, "seed must be an integer, got None"),
        ],
    )
    def test_non_integer_sizes_and_seeds_rejected(self, m, n, seed, message):
        for kind in SYNTH_KINDS:
            with pytest.raises(BadSpec) as exc:
                generate(SynthSpec(kind, m, n, seed=seed))
            assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        import numpy as np

        spec = SynthSpec("impartial_culture", np.int64(4), np.int64(5), np.int64(3))
        assert generate(spec) == generate(SynthSpec("impartial_culture", 4, 5, 3))

    def test_synthetic_universe_prefix(self):
        assert synthetic_universe(3) == synthetic_universe(10)[:3]
        with pytest.raises(BadSpec):
            synthetic_universe(0)
        with pytest.raises(BadSpec):
            synthetic_universe(211)


# ---------------------------------------------------------------------------
# differential tests: the slot-indexed distance against the pair-value sum it
# replaced, kept here as the reference. Pair values are halves, so the float
# sums are exact and compare with ==.


def pair_value(ranking, i, j):
    """1.0 if slot i is preferred to slot j, 0.0 if j is, 0.5 on a tie."""
    si, sj = ranking.slots()[i], ranking.slots()[j]
    return 1.0 if si < sj else 0.0 if si > sj else 0.5


def ref_kendall(a, b):
    total = 0.0
    for i, j in combinations(range(len(a.universe)), 2):
        total += abs(pair_value(a, i, j) - pair_value(b, i, j))
    return total


def kendall_pair_loop(sa, sb):
    """The O(m^2) pair loop the counting Kendall distance replaced, on two
    rankings given by their slots(): in halves, v is 1 + sign(tier of y -
    tier of x), so each pair adds the absolute difference of its two
    signs."""
    halves = 0
    for i, (ai, bi) in enumerate(zip(sa, sb)):
        for aj, bj in zip(sa[i + 1 :], sb[i + 1 :]):
            halves += abs((aj > ai) - (aj < ai) - (bj > bi) + (bj < bi))
    return halves / 2


def assert_kendall_matches_references(a, b):
    got = kendall_distance(a, b)
    assert type(got) is float
    assert got == ref_kendall(a, b) == kendall_pair_loop(a.slots(), b.slots())


def from_labels(universe, labels, owner="w"):
    """The weak order ranking classes by ascending label."""
    return RankingWithTies(
        owner,
        universe,
        tuple(
            tuple(c for c, lab in zip(universe, labels) if lab == t)
            for t in sorted(set(labels))
        ),
    )


def all_weak_orders(m):
    universe = synthetic_universe(m)
    return [
        from_labels(universe, labels)
        for labels in product(range(m), repeat=m)
        if set(labels) == set(range(max(labels) + 1))
    ]


@pytest.mark.parametrize("m,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
def test_kendall_matches_reference_on_all_weak_order_pairs(m, count):
    rankings = all_weak_orders(m)
    assert len(rankings) == count
    for a in rankings:
        for b in rankings:
            assert_kendall_matches_references(a, b)


def test_kendall_matches_reference_on_seeded_pairs_up_to_210_classes():
    rng = random.Random(2104)
    for m in range(2, 211):
        universe = synthetic_universe(m)

        def tied():
            tiers = rng.randint(1, m)
            return [rng.randrange(tiers) for _ in universe]

        order = rng.sample(range(m), m)
        a, b = from_labels(universe, tied()), from_labels(universe, tied())
        strict = from_labels(universe, order)
        # a random pair at every m, and one of the edge cases in turn
        edge = (
            (a, a),
            (a, from_labels(universe, [-t for t in a.slots()])),
            (strict, from_labels(universe, [-t for t in order])),
            (from_labels(universe, [0] * m), strict),
            (strict, a),
        )[m % 5]
        assert_kendall_matches_references(a, b)
        assert_kendall_matches_references(*edge)


def test_profile_distance_matches_reference_on_tied_profiles():
    rng = random.Random(1404)
    for m in range(2, 8):
        universe = synthetic_universe(m)
        for k in range(20):
            p, q = (
                Profile(
                    universe,
                    tuple(
                        from_labels(universe, [rng.randrange(m) for _ in universe])
                        for _ in range(2 + k % 7)
                    ),
                )
                for _ in range(2)
            )
            want = sum(ref_kendall(a, b) for a, b in zip(p.individuals, q.individuals))
            assert profile_distance(p, q) == want


def sparse_profile(rng, m, n):
    """n weak orders over m classes in four tiers, one of them holding
    about two fifths of the classes."""
    universe = synthetic_universe(m)
    return Profile(
        universe,
        tuple(
            from_labels(universe, [rng.choice((0, 0, 1, 2, 3)) for _ in universe])
            for _ in range(n)
        ),
    )


def test_profile_distance_matches_reference_at_benchmark_shapes():
    # the aggregate benchmark's two distance jobs: strict impartial-culture
    # profiles at 40 x 30, and tied profiles at 60 x 20
    rng = random.Random(6020)
    for p, q in (
        (generate(SynthSpec("impartial_culture", 40, 30, s)) for s in (3, 4)),
        (sparse_profile(rng, 60, 20) for _ in range(2)),
    ):
        pairs = list(zip(p.individuals, q.individuals))
        got = profile_distance(p, q)
        assert type(got) is float
        assert got == sum(ref_kendall(a, b) for a, b in pairs)
        assert got == sum(kendall_pair_loop(a.slots(), b.slots()) for a, b in pairs)
