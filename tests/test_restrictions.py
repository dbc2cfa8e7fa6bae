"""Domain-restriction escapes: single-peaked axes and quasi-transitivity."""

import random
from itertools import permutations

import pytest

from foldvote.errors import TiesUnsupported, TooLarge
from foldvote.preferences import RankingWithTies, UtilityVector
from foldvote.profiles import Profile, SynthSpec, generate, synthetic_universe
from foldvote.restrictions import (
    FIND_AXIS_MAX_CLASSES,
    find_axis,
    is_quasi_transitive,
    is_single_peaked_on,
)
from foldvote.rules import AggregationOutcome, may_rule

U3 = synthetic_universe(3)
X, Y, Z = U3


def strict(order, owner="p", universe=U3):
    return RankingWithTies.from_strict_order(owner, universe, order)


def profile_of(*orders, universe=U3):
    return Profile(
        universe,
        tuple(strict(o, f"v{i}", universe) for i, o in enumerate(orders)),
    )


class TestIsSinglePeakedOn:
    def test_utility_profile_rejected(self):
        values = (UtilityVector(f"v{i}", U3, (1.0, 0.5, 0.0)) for i in range(2))
        with pytest.raises(
            TiesUnsupported, match="^single-peakedness is defined for ordinal profiles$"
        ):
            is_single_peaked_on(Profile(U3, tuple(values), "utility"), U3)

    def test_peak_in_middle(self):
        rep = is_single_peaked_on(profile_of((Y, X, Z), (Y, Z, X)), U3)
        assert rep.single_peaked
        assert bool(rep) is True
        assert rep.violations == ()

    def test_valley_detected(self):
        rep = is_single_peaked_on(profile_of((X, Z, Y), (Y, X, Z)), U3)
        assert not rep.single_peaked
        assert len(rep.violations) == 1
        v = rep.violations[0]
        assert v["valley"] == Y.render()
        assert v["higher_left"] == X.render()
        assert v["higher_right"] == Z.render()
        assert v["owner"] == "v0"

    def test_monotone_orders_always_peaked(self):
        # a peak at either end is a degenerate (still unimodal) shape
        for order in ((X, Y, Z), (Z, Y, X)):
            assert is_single_peaked_on(profile_of(order, order), U3).single_peaked

    def test_reversed_axis_equivalent(self):
        rng = random.Random(4)
        u5 = synthetic_universe(5)
        for _ in range(50):
            p = generate(
                SynthSpec("impartial_culture", 5, 3, seed=rng.randint(0, 9999))
            )
            axis = tuple(rng.sample(u5, 5))
            fwd = is_single_peaked_on(p, axis).single_peaked
            rev = is_single_peaked_on(p, tuple(reversed(axis))).single_peaked
            assert fwd == rev

    def test_axis_must_be_permutation(self):
        p = profile_of((X, Y, Z), (Z, Y, X))
        with pytest.raises(ValueError, match="permutation"):
            is_single_peaked_on(p, (X, Y))
        with pytest.raises(ValueError, match="permutation"):
            is_single_peaked_on(p, (X, Y, Y))

    def test_ties_unsupported(self):
        tied = RankingWithTies("t", U3, ((X, Y), (Z,)))
        p = Profile(U3, (tied, strict((X, Y, Z), "s")))
        with pytest.raises(TiesUnsupported):
            is_single_peaked_on(p, U3)
        with pytest.raises(TiesUnsupported):
            find_axis(p)

    def test_per_individual_violations(self):
        p = profile_of((X, Z, Y), (Y, X, Z), (Z, X, Y))
        rep = is_single_peaked_on(p, U3)
        owners = [v["owner"] for v in rep.violations]
        assert owners == ["v0", "v2"]


class TestFindAxis:
    def test_condorcet_template_has_none(self):
        assert find_axis(generate(SynthSpec("condorcet_cycle", 3, 3))) is None

    def test_unanimous_lex_first(self):
        p = profile_of((X, Y, Z), (X, Y, Z))
        assert find_axis(p) == (X, Y, Z)

    def test_agrees_with_exhaustive_scan(self):
        rng = random.Random(8)
        for seed in range(60):
            p = generate(SynthSpec("impartial_culture", 3, 3, seed=seed))
            # the same orders over a universe listed out of class order
            universe = tuple(rng.sample(p.universe, 3))
            orders = [tuple(c for (c,) in ind.tiers) for ind in p.individuals]
            for profile in (p, profile_of(*orders, universe=universe)):
                axis = find_axis(profile)
                all_axes = [
                    a
                    for a in permutations(sorted(profile.universe))
                    if is_single_peaked_on(profile, a).single_peaked
                ]
                if axis is None:
                    assert all_axes == []
                else:
                    assert all_axes and axis == all_axes[0]

    def test_generated_single_peaked_profiles_admit_axis(self):
        for seed in range(20):
            p = generate(SynthSpec("single_peaked", 5, 9, seed=seed))
            assert find_axis(p) is not None

    def test_too_large(self):
        u9 = synthetic_universe(9)
        p = Profile(
            u9,
            (
                RankingWithTies.from_strict_order("a", u9, u9),
                RankingWithTies.from_strict_order("b", u9, u9),
            ),
        )
        assert FIND_AXIS_MAX_CLASSES == 8
        with pytest.raises(TooLarge):
            find_axis(p)

    def test_boundary_m_accepted(self):
        u8 = synthetic_universe(8)
        p = Profile(
            u8,
            (
                RankingWithTies.from_strict_order("a", u8, u8),
                RankingWithTies.from_strict_order("b", u8, u8),
            ),
        )
        assert find_axis(p) == u8


class TestMedianVoterEscape:
    # on a single-peaked profile with an odd panel the majority relation
    # must come out transitive; this is the whole point of the escape
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_panels_transitive(self, n):
        for seed in range(70):
            p = generate(SynthSpec("single_peaked", 4, n, seed=seed))
            out = may_rule(p)
            assert out.transitive, f"cycle on single-peaked profile seed={seed}"

    def test_larger_universe(self):
        for seed in range(25):
            p = generate(SynthSpec("single_peaked", 6, 5, seed=seed))
            assert may_rule(p).transitive


class TestQuasiTransitivity:
    def test_transitive_outcome(self):
        out = may_rule(profile_of((X, Y, Z), (X, Y, Z), (Y, X, Z)))
        assert out.transitive
        assert is_quasi_transitive(out)

    def test_condorcet_cycle_is_not(self):
        out = may_rule(generate(SynthSpec("condorcet_cycle", 3, 3)))
        assert not out.transitive
        assert not is_quasi_transitive(out)

    def test_intransitive_indifference_allowed(self):
        # X ~ Y, Y ~ Z but X > Z: fails full transitivity, passes quasi
        relation = (
            (True, True, True),
            (True, True, True),
            (False, True, True),
        )
        out = AggregationOutcome("test", U3, relation)
        assert not out.transitive
        assert is_quasi_transitive(out)

    def test_strict_chain_must_close(self):
        # X > Y > Z with X ~ Z: strict part cycles through the tie
        relation = (
            (True, True, True),
            (False, True, True),
            (True, False, True),
        )
        out = AggregationOutcome("test", U3, relation)
        assert not is_quasi_transitive(out)
