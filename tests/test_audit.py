"""Axiom audit engine: frozen exhaustive verdicts, witnesses, budgets.

Every expected verdict below was confirmed by hand or by an independent
enumeration before being frozen here; the exhaustive (3, 2) and (3, 3)
spaces are small enough to re-run on every test invocation.
"""

import dataclasses
import json
import re
from itertools import permutations

import pytest

from foldvote.audit import (
    ARROW_AXIOMS,
    BUDGET_LIMIT,
    FAIL,
    MAY_PREMISES,
    ORDINAL_AXIOMS,
    PASS,
    UTILITY_AXIOMS,
    AuditResult,
    AxiomId,
    Rule,
    SearchSpace,
    arrow_audit,
    arrow_contradiction,
    audit,
    continuity_check,
    exhaustive,
    may_coincidence_check,
    sampled,
    standard_rules,
    verify_result,
)
from foldvote.audit import _AXIOMS, _prefs, _Space, _View
from foldvote.errors import BadSpec, BudgetExceeded, DisagreeingRule
from foldvote.errors import InapplicableAxiom, WrongMode
from foldvote.preferences import RankingWithTies
from foldvote.profiles import Profile, SynthSpec, generate, synthetic_universe
from foldvote.rules import borda, dictator, majority_tournament, may_from_counts
from foldvote.rules import may_rule
from test_audit_frozen import RULES as PROBE_RULES

RULES = standard_rules()
U3 = synthetic_universe(3)
X, Y, Z = U3


def strict(order, owner):
    return RankingWithTies.from_strict_order(owner, U3, order)


def tiers_of(profile_json):
    return [ind["tiers"] for ind in profile_json["individuals"]]


def reverse_orders(profile_json, only=None):
    """The profile with every individual's order (or individual `only`'s)
    turned upside down."""
    individuals = [
        {**ind, "tiers": ind["tiers"][::-1]} if only in (None, k) else ind
        for k, ind in enumerate(profile_json["individuals"])
    ]
    return {**profile_json, "individuals": individuals}


def pair_indices(witness):
    labels = witness.get("profile_a", witness.get("profile_before"))["universe"]
    return tuple(labels.index(c) for c in witness["pair"])


def retouch(result, **fields):
    """The result with some witness fields replaced."""
    return AuditResult(
        rule_name=result.rule_name,
        axiom=result.axiom,
        verdict=result.verdict,
        witness={**result.witness, **fields},
        search_budget=result.search_budget,
    )


class TestArrowAudits:
    # the classical impossibility set: each rule trades away exactly one
    # member over these spaces, stable across n = 2 and n = 3
    EXPECTED = {
        "may": {AxiomId.TRANSITIVITY},
        "borda": {AxiomId.IIA},
        "kemeny": {AxiomId.IIA},
        "dictator": {AxiomId.NON_DICTATORSHIP},
    }

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["may", "borda", "kemeny", "dictator"])
    def test_failing_axioms_frozen(self, name, n):
        results = arrow_audit(RULES[name], 3, n)
        assert [r.axiom for r in results] == list(ARROW_AXIOMS)
        failed = {r.axiom for r in results if r.failed}
        assert failed == self.EXPECTED[name]
        assert not arrow_contradiction(results)
        for r in results:
            if r.failed:
                assert r.witness is not None
                assert verify_result(RULES[name], r)
            else:
                assert r.verdict == PASS and r.witness is None

    def test_may_witness_is_condorcet_template(self):
        res = audit(RULES["may"], AxiomId.TRANSITIVITY, exhaustive(3, 3))
        assert res.failed
        template = generate(SynthSpec("condorcet_cycle", 3, 3, seed=0))
        got = Profile.from_json_dict(res.witness["profile"])
        assert [i.tiers for i in got.individuals] == [
            i.tiers for i in template.individuals
        ]
        assert res.witness["violating_triple"] == [c.render() for c in U3]

    def test_dictator_witness_demonstrates_overrule(self):
        res = audit(RULES["dictator"], AxiomId.NON_DICTATORSHIP, exhaustive(3, 3))
        assert res.failed
        assert res.witness["dictator_index"] == 1
        demo = Profile.from_json_dict(res.witness["demo_profile"])
        # individual 1 opposes everyone else, yet the outcome copies them
        assert demo.individuals[0].tiers == tuple((c,) for c in U3)
        assert res.witness["demo_outcome_tiers"] == [[c.render()] for c in U3]

    def test_borda_iia_witness_values_differ(self):
        res = audit(RULES["borda"], AxiomId.IIA, exhaustive(3, 2))
        assert res.failed
        w = res.witness
        assert w["value_a"] != w["value_b"]
        a = Profile.from_json_dict(w["profile_a"])
        b = Profile.from_json_dict(w["profile_b"])
        # premise: every individual holds the same relation on the pair
        from foldvote.contacts import InteractionClass

        x = a.universe.index(InteractionClass.parse(w["pair"][0]))
        y = a.universe.index(InteractionClass.parse(w["pair"][1]))
        for ia, ib in zip(a.individuals, b.individuals):
            (ax, ay), (bx, by) = ([s[x], s[y]] for s in (ia.slots(), ib.slots()))
            assert (ax > ay) - (ax < ay) == (bx > by) - (bx < by)

    def test_contradiction_flag_on_fabricated_all_pass(self):
        fake = [
            AuditResult("nobody", ax, PASS, None, "fabricated")
            for ax in ARROW_AXIOMS
        ]
        assert arrow_contradiction(fake)


class TestProximity:
    # exact frozen witness distances at exhaustive (3, 3)
    EXPECTED = {
        "may": (2.0, 2.0, 1.0, 0.0),
        "borda": (2.0, 3.0, 0.5, 0.0),
        "kemeny": (2.0, 2.0, 1.0, 0.0),
    }

    @pytest.mark.parametrize("name", ["may", "borda", "kemeny"])
    def test_fails_with_frozen_distances(self, name):
        res = audit(
            RULES[name], AxiomId.PROXIMITY_PRESERVATION, exhaustive(3, 3)
        )
        assert res.failed
        w = res.witness
        got = (w["D_near"], w["D_far"], w["d_near"], w["d_far"])
        assert got == self.EXPECTED[name]
        assert w["D_near"] <= w["D_far"] and w["d_near"] > w["d_far"]
        assert verify_result(RULES[name], res)
        assert res.notes  # existential caveat travels with the verdict


class TestResponsiveness:
    def test_may_passes_both(self):
        space = exhaustive(3, 3)
        for axiom in (
            AxiomId.POSITIVE_RESPONSIVENESS,
            AxiomId.MONOTONIC_RESPONSIVENESS,
        ):
            assert audit(RULES["may"], axiom, space).verdict == PASS

    def test_borda_fails_positive_passes_monotonic(self):
        space = exhaustive(3, 3)
        pos = audit(RULES["borda"], AxiomId.POSITIVE_RESPONSIVENESS, space)
        assert pos.failed
        w = pos.witness
        assert w["value_before"] >= 0.5 and w["value_after"] != 1.0
        assert verify_result(RULES["borda"], pos)
        mono = audit(RULES["borda"], AxiomId.MONOTONIC_RESPONSIVENESS, space)
        assert mono.verdict == PASS


class TestMayCoincidence:
    def test_premise_list_frozen(self):
        assert MAY_PREMISES == (
            AxiomId.UNANIMITY,
            AxiomId.ANONYMITY,
            AxiomId.NEUTRALITY,
            AxiomId.POSITIVE_RESPONSIVENESS,
        )

    def test_may_passes(self):
        res = may_coincidence_check(RULES["may"], 3, 3, trials=400, seed=0)
        assert res.verdict == PASS
        assert res.axiom == AxiomId.MAY_COINCIDENCE

    def test_borda_fails_responsiveness_premise(self):
        res = may_coincidence_check(RULES["borda"], 3, 3, trials=400, seed=0)
        assert res.failed
        assert res.axiom == AxiomId.POSITIVE_RESPONSIVENESS

    def test_dictator_fails_anonymity_premise(self):
        res = may_coincidence_check(RULES["dictator"], 3, 3, trials=400, seed=0)
        assert res.failed
        assert res.axiom == AxiomId.ANONYMITY
        assert verify_result(RULES["dictator"], res)


class TestUtilityAudits:
    def test_utilitarian_strict_unanimity(self):
        res = audit(RULES["utilitarian"], AxiomId.STRICT_UNANIMITY, exhaustive(3, 2))
        assert res.verdict == PASS

    def test_utilitarian_utility_iia(self):
        res = audit(RULES["utilitarian"], AxiomId.UTILITY_IIA, exhaustive(2, 2))
        assert res.verdict == PASS

    def test_sampled_utility_passes(self):
        for axiom in (AxiomId.STRICT_UNANIMITY, AxiomId.UTILITY_IIA):
            res = audit(RULES["utilitarian"], axiom, sampled(4, 3, 300, seed=1))
            assert res.verdict == PASS


class TestGuards:
    def test_mode_mismatch(self):
        with pytest.raises(InapplicableAxiom):
            audit(RULES["may"], AxiomId.STRICT_UNANIMITY, exhaustive(3, 2))
        with pytest.raises(InapplicableAxiom):
            audit(RULES["utilitarian"], AxiomId.TRANSITIVITY, exhaustive(3, 2))

    def test_dedicated_operations_rejected(self):
        with pytest.raises(InapplicableAxiom):
            audit(RULES["may"], AxiomId.MAY_COINCIDENCE, exhaustive(3, 2))
        with pytest.raises(InapplicableAxiom):
            audit(RULES["may"], AxiomId.CONTINUITY, exhaustive(3, 2))

    def test_budget_exceeded(self):
        # proximity is quadratic in the profile count: 6^5 squared
        # overruns the 10_000_000 notional-enumeration ceiling
        with pytest.raises(BudgetExceeded):
            audit(RULES["may"], AxiomId.PROXIMITY_PRESERVATION, exhaustive(3, 5))
        assert BUDGET_LIMIT == 10_000_000

    @pytest.mark.parametrize("axiom", list(_AXIOMS))
    def test_numpy_sizes_are_priced_in_python_ints(self, axiom):
        # (10!)^9 wrapped to 0 in int64, and the request was admitted
        import numpy as np

        with pytest.raises(BudgetExceeded):
            _AXIOMS[axiom].price(exhaustive(np.int64(10), np.int64(9)))

    @pytest.mark.parametrize(
        "m,n,needs",
        [
            # (210!)^11 has 4379 digits, past the int-to-str conversion limit
            (210, 11, "more than 10^4378"),
            (210, 2, "more than 10^796"),
            (3, 10**7, "more than 10^7781512"),
            (3, 10**9, "more than 10^778151250"),
            # past the float range; the bound is taken at n = 10^12
            (2, 10**400, "more than 10^301029995663"),
            (2, 997, "more than 10^300"),
            # 2^995 has 300 digits, quoted in full
            (2, 995, str(2**995)),
        ],
    )
    def test_huge_counts_are_refused_from_their_logarithm(self, m, n, needs):
        # building 6^(10^7) took seconds, and quoting a count of over 4300
        # digits raised an untyped ValueError
        with pytest.raises(BudgetExceeded) as exc:
            _AXIOMS[AxiomId.UNANIMITY].price(exhaustive(m, n))
        assert str(exc.value) == (
            f"unanimity over m={m} n={n} needs {needs} enumerations "
            f"(limit {BUDGET_LIMIT})"
        )

    def test_a_cost_past_the_quoted_digits_is_bounded(self):
        # anonymity at (2, 400): 2^400 profiles times 400! permutations
        with pytest.raises(BudgetExceeded, match=r"needs more than 10\^989 "):
            _AXIOMS[AxiomId.ANONYMITY].price(exhaustive(2, 400))
        with pytest.raises(BudgetExceeded, match=r"needs more than 10\^400 "):
            _AXIOMS[AxiomId.IIA].price(sampled(3, 3, 10**400, seed=0))

    @pytest.mark.parametrize("n", [0, -1, 1])
    def test_fewer_than_two_individuals_rejected(self, n):
        with pytest.raises(BadSpec, match=f"n must be >= 2, got {n}"):
            exhaustive(3, n)
        with pytest.raises(BadSpec, match=f"n must be >= 2, got {n}"):
            sampled(3, n, trials=10, seed=0)
        with pytest.raises(BadSpec, match=f"n must be >= 2, got {n}"):
            may_coincidence_check(RULES["may"], 3, n, trials=10, seed=0)

    def test_budget_allows_small_space(self):
        res = audit(RULES["may"], AxiomId.PROXIMITY_PRESERVATION, exhaustive(3, 2))
        assert res.verdict in (PASS, FAIL)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: exhaustive(3.0, 3), "m must be an integer, got 3.0"),
            (lambda: exhaustive(3, 2.5), "n must be an integer, got 2.5"),
            (lambda: exhaustive(True, 3), "m must be an integer, got True"),
            (lambda: exhaustive("3", 3), "m must be an integer, got '3'"),
            (lambda: exhaustive(3, None), "n must be an integer, got None"),
            (lambda: sampled(3, 3, 2.5, 0), "trials must be an integer, got 2.5"),
            (lambda: sampled(3, 3, True, 0), "trials must be an integer, got True"),
            (lambda: sampled(3, 3, "9", 0), "trials must be an integer, got '9'"),
            # a list seed ended in a bare TypeError from random.Random, and
            # the others ran and were echoed in the report
            (lambda: sampled(3, 3, 5, [1]), "seed must be an integer, got [1]"),
            (lambda: sampled(3, 3, 5, True), "seed must be an integer, got True"),
            (lambda: sampled(3, 3, 5, 1.5), "seed must be an integer, got 1.5"),
            (lambda: sampled(3, 3, 5, "abc"), "seed must be an integer, got 'abc'"),
            (
                lambda: SearchSpace(3, 3, seed=2.0),
                "seed must be an integer, got 2.0",
            ),
            (
                lambda: may_coincidence_check(RULES["may"], 3, 3, 10, 1.5),
                "seed must be an integer, got 1.5",
            ),
        ],
    )
    def test_non_integer_sizes_rejected(self, build, message):
        # a float used to reach audit() and fail there with a TypeError, and
        # trials=True ran one trial
        with pytest.raises(BadSpec) as exc:
            build()
        assert str(exc.value) == message

    def test_may_coincidence_rejects_non_integer_trials(self):
        with pytest.raises(BadSpec, match="trials must be an integer, got 2.5"):
            may_coincidence_check(RULES["may"], 3, 3, 2.5, seed=0)

    def test_numpy_integers_accepted(self):
        import numpy as np

        for space in (exhaustive(3, 2), sampled(3, 2, 50, seed=1)):
            wide = SearchSpace(
                np.int64(space.m),
                np.int64(space.n),
                None if space.trials is None else np.int64(space.trials),
                None if space.seed is None else np.int64(space.seed),
            )
            want = audit(RULES["may"], AxiomId.IIA, space)
            assert audit(RULES["may"], AxiomId.IIA, wide) == want
            # every size reaches pricing, random.Random and the report as a
            # Python int: numpy sizes multiplied in int64 and wrapped
            for value in dataclasses.astuple(wide):
                assert value is None or type(value) is int
            assert wide == space

    @pytest.mark.parametrize("name", ["nonsense", "", None])
    def test_unknown_axiom_rejected(self, name):
        # AxiomId's own ValueError used to escape
        with pytest.raises(InapplicableAxiom, match="no axiom named"):
            audit(RULES["may"], name, exhaustive(3, 2))


class TestRunPath:
    """Every audit is priced, driven and re-verified by _Axiom.run."""

    def test_oversized_coincidence_sample_refused_before_any_rule_call(self):
        def untouchable(profile):
            raise AssertionError("the rule ran before the budget was checked")

        rule = Rule("untouchable", untouchable)
        with pytest.raises(BudgetExceeded) as exc:
            may_coincidence_check(rule, 3, 3, BUDGET_LIMIT + 1, seed=0)
        # a sample is priced at the individuals it draws, trials times n
        assert str(exc.value) == (
            f"may_coincidence over m=3 n=3 needs {3 * (BUDGET_LIMIT + 1)} "
            f"enumerations (limit {BUDGET_LIMIT})"
        )

    def test_coincidence_sample_at_the_limit_is_priced_like_audit(self):
        # the same trial count is admitted or refused by both entry points
        coincidence = _AXIOMS[AxiomId.MAY_COINCIDENCE]
        trials = BUDGET_LIMIT // 3
        assert coincidence.price(sampled(3, 3, trials, seed=0)) == (
            f"sampled {trials} trials m=3 n=3 seed=0"
        )
        with pytest.raises(BudgetExceeded):
            audit(RULES["may"], AxiomId.IIA, sampled(3, 3, trials + 1, seed=0))

    @pytest.mark.parametrize("axiom", list(_AXIOMS))
    def test_a_sample_is_priced_at_the_individuals_it_draws(self, axiom):
        # one trial of n individuals used to cost 1 whatever n was, so a
        # sample of 10^8 individuals was admitted, its memory growing with n
        price = _AXIOMS[axiom].price
        assert price(sampled(3, BUDGET_LIMIT // 2, 2, seed=0)) == (
            f"sampled 2 trials m=3 n={BUDGET_LIMIT // 2} seed=0"
        )
        with pytest.raises(BudgetExceeded) as exc:
            price(sampled(3, BUDGET_LIMIT + 1, 1, seed=0))
        assert str(exc.value) == (
            f"{axiom.value} over m=3 n={BUDGET_LIMIT + 1} needs {BUDGET_LIMIT + 1} "
            f"enumerations (limit {BUDGET_LIMIT})"
        )


class TestSampled:
    def test_same_seed_same_result(self):
        for name in ("may", "borda"):
            space = sampled(3, 3, 300, seed=42)
            a = audit(RULES[name], AxiomId.IIA, space)
            b = audit(RULES[name], AxiomId.IIA, space)
            assert a.to_json_dict() == b.to_json_dict()

    def test_may_transitivity_fail_found_by_sampling(self):
        # ~10% of random (3, 3) profiles cycle, so 500 trials cannot miss
        res = audit(RULES["may"], AxiomId.TRANSITIVITY, sampled(3, 3, 500, seed=7))
        assert res.failed
        assert verify_result(RULES["may"], res)
        assert res.seed == 7

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(BadSpec):
            sampled(3, 3, trials, seed=0)
        with pytest.raises(BadSpec):
            may_coincidence_check(RULES["may"], 3, 3, trials, seed=0)

    @pytest.mark.parametrize("trials", [None, 0])
    def test_a_sampled_space_needs_trials(self, trials):
        # trials=0 used to make audit() pass over zero trials
        with pytest.raises(BadSpec, match=f"trials must be >= 1, got {trials}"):
            SearchSpace(3, 2, trials=trials, seed=1)

    def test_a_sampled_space_needs_a_seed(self):
        # seed=None used to draw from an unseeded generator
        with pytest.raises(BadSpec, match="needs a seed"):
            SearchSpace(3, 2, trials=10, seed=None)
        with pytest.raises(BadSpec, match="needs a seed"):
            may_coincidence_check(RULES["may"], 3, 2, 10, None)

    @pytest.mark.parametrize(
        "trials,seed,message",
        [
            (7, 5, None),
            (7, None, "a sampled space needs a seed, got None"),
            (-3, None, "trials must be >= 1, got -3"),
            (None, 5, "trials must be >= 1, got None"),
            (None, 0, "trials must be >= 1, got None"),
        ],
    )
    def test_trials_and_a_seed_come_together(self, trials, seed, message):
        # trials and a seed make a sampled space, neither an exhaustive one;
        # a lone seed drew nothing, yet was echoed in the report
        if message is None:
            assert SearchSpace(3, 3, trials, seed) == sampled(3, 3, trials, seed)
            return
        with pytest.raises(BadSpec, match=f"^{re.escape(message)}$"):
            SearchSpace(3, 3, trials=trials, seed=seed)

    def test_a_space_is_its_sizes_and_its_draws(self):
        assert [f.name for f in dataclasses.fields(SearchSpace)] == [
            "m", "n", "trials", "seed"
        ]
        assert SearchSpace(3, 3) == exhaustive(3, 3)

    def test_sampled_refuses_missing_trials_without_a_seed(self):
        # SearchSpace(3, 3, None, None) is exhaustive, which sampled never returns
        with pytest.raises(BadSpec, match="^trials must be >= 1, got None$"):
            sampled(3, 3, None, None)

    def test_request_faults_reported_trials_then_n_then_m(self):
        with pytest.raises(BadSpec, match="trials"):
            sampled(1, 1, 0, seed=0)
        with pytest.raises(BadSpec, match="n must"):
            sampled(1, 1, 10, seed=0)
        with pytest.raises(BadSpec, match="trials"):
            may_coincidence_check(RULES["may"], 1, 1, 0, seed=0)

    @pytest.mark.parametrize(
        "seed", [10**300, -(10**300), 10**5000], ids=["1e300", "-1e300", "1e5000"]
    )
    def test_a_seed_past_the_quoted_digits_is_refused(self, seed):
        # reports quote the seed; past 4300 digits (or PYTHONINTMAXSTRDIGITS)
        # quoting it raised an untyped ValueError
        with pytest.raises(BadSpec, match="^seed must have at most 300 digits$"):
            audit(RULES["may"], AxiomId.TRANSITIVITY, sampled(3, 3, 10, seed))
        with pytest.raises(BadSpec, match="^seed must have at most 300 digits$"):
            may_coincidence_check(RULES["may"], 3, 3, 10, seed)

    def test_a_seed_of_the_quoted_digits_is_reported(self):
        seed = -(10**300 - 1)
        res = audit(RULES["may"], AxiomId.TRANSITIVITY, sampled(3, 3, 10, seed))
        assert res.seed == seed
        assert res.search_budget.endswith(f"seed={seed}")

    def test_sampled_pass_is_not_a_theorem(self):
        res = audit(RULES["borda"], AxiomId.TRANSITIVITY, sampled(3, 3, 50, seed=0))
        assert res.verdict == PASS
        assert "sampled" in res.search_budget


class TestContinuityCheck:
    def test_mean_direction_fails_with_a_verified_witness(self):
        res = continuity_check(3, 1e-3, 4)
        assert res.failed and res.axiom is AxiomId.CONTINUITY
        assert res.rule_name == "mean-direction" and res.seed == 4
        assert res.search_budget == "constructive probe dimension=3 epsilon=0.001 seed=4"
        assert res.witness["input_distance"] <= 2e-3
        assert res.witness["output_distance"] >= 1.0

    def test_verify_result_refuses_a_continuity_witness(self):
        # it used to return False for a witness continuity_check verified
        res = continuity_check(3, 1e-3, 4)
        with pytest.raises(InapplicableAxiom, match="re-verified by continuity_check"):
            verify_result(RULES["may"], res)

    def test_probe_errors_stand_for_library_callers(self):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            continuity_check(1, 1e-3, 0)
        with pytest.raises(ValueError, match="epsilon"):
            continuity_check(3, 0.5, 0)


class TestUnrestrictedDomain:
    def test_sampled_search_reports_a_raising_rule(self):
        def fragile(profile):
            if profile.individuals[0].tiers == profile.individuals[-1].tiers:
                raise ValueError("first and last individual agree")
            return RULES["may"](profile)

        rule = Rule("fragile", fragile)
        res = audit(rule, AxiomId.UNRESTRICTED_DOMAIN, sampled(3, 2, 100, seed=0))
        assert res.failed
        assert res.witness["error"] == "ValueError: first and last individual agree"
        assert verify_result(rule, res)


class TestVerification:
    def test_tampered_witness_rejected(self):
        res = audit(RULES["may"], AxiomId.TRANSITIVITY, exhaustive(3, 3))
        tampered = AuditResult(
            rule_name=res.rule_name,
            axiom=res.axiom,
            verdict=res.verdict,
            witness={
                **res.witness,
                "violating_triple": list(reversed(res.witness["violating_triple"])),
            },
            search_budget=res.search_budget,
        )
        assert verify_result(RULES["may"], res)
        assert not verify_result(RULES["may"], tampered)

    def test_iia_partner_must_keep_every_stance(self):
        # borda's witness with profile_b turned upside down: the values
        # on the pair still differ, but the individuals no longer hold
        # their stances on it
        res = audit(RULES["borda"], AxiomId.IIA, exhaustive(3, 2))
        w = res.witness
        reversed_b = reverse_orders(w["profile_b"])
        value_b = RULES["borda"](Profile.from_json_dict(reversed_b)).pair_value(
            *pair_indices(w)
        )
        assert value_b != w["value_a"]
        assert verify_result(RULES["borda"], res)
        tampered = retouch(res, profile_b=reversed_b, value_b=value_b)
        assert not verify_result(RULES["borda"], tampered)

    def test_responsiveness_partner_moves_only_the_uplifted_stance(self):
        # profile_after replaced by profile_before reversed: the uplifted
        # individual now prefers a, but so does no one else who did
        res = audit(RULES["borda"], AxiomId.POSITIVE_RESPONSIVENESS, exhaustive(3, 3))
        w = res.witness
        after = reverse_orders(w["profile_before"])
        value_after = RULES["borda"](Profile.from_json_dict(after)).pair_value(
            *pair_indices(w)
        )
        assert value_after < 1.0
        assert verify_result(RULES["borda"], res)
        tampered = retouch(res, profile_after=after, value_after=value_after)
        assert not verify_result(RULES["borda"], tampered)
        for uplifted in (0, 4):
            out_of_range = retouch(res, uplifted_individual=uplifted)
            assert not verify_result(RULES["borda"], out_of_range)

    def test_anonymity_needs_a_permuted_profile(self):
        # dictator's witness with v1's order reversed in place of the
        # permuted profile: the outcome still changes, but no permutation
        # of the individuals gives that profile
        res = audit(RULES["dictator"], AxiomId.ANONYMITY, exhaustive(3, 2))
        w = res.witness
        other = reverse_orders(w["profile"], only=0)
        assert verify_result(RULES["dictator"], res)
        tampered = retouch(res, permuted_profile=other)
        assert not verify_result(RULES["dictator"], tampered)

    def test_neutrality_needs_a_relabeled_profile(self):
        res = audit(RULES["kemeny"], AxiomId.NEUTRALITY, exhaustive(3, 2))
        w = res.witness
        other = reverse_orders(w["profile"])
        relation = RULES["kemeny"](Profile.from_json_dict(other)).relation
        actual = [list(map(bool, row)) for row in relation]
        assert actual != w["expected_relation"]
        assert verify_result(RULES["kemeny"], res)
        tampered = retouch(res, relabeled_profile=other, actual_relation=actual)
        assert not verify_result(RULES["kemeny"], tampered)

    @staticmethod
    def forged(rule, axiom_id, profiles, param):
        """A fail result whose witness fields the check reproduces on
        these profiles, so only the premise can reject it."""
        axiom = _AXIOMS[axiom_id]
        views = [_View(_prefs(p.individuals), rule(p)) for p in profiles]
        detail = axiom.check(U3, views, param)
        assert detail is not None
        given = {key: p.to_json_dict() for key, p in zip(axiom.profile_keys, profiles)}
        witness = {key: given[key] if key in given else detail[key] for key in axiom.keys}
        return AuditResult(rule.name, axiom_id, FAIL, witness, "forged")

    def test_anonymity_permutation_must_be_a_permutation(self):
        # (1, 1) puts v2's order in both places, and dictator[1] follows
        # the copy; the real swap (1, 0) is the control
        rule = RULES["dictator"]
        x_first, z_first = (X, Y, Z), (Z, Y, X)
        base = Profile(U3, (strict(x_first, "v1"), strict(z_first, "v2")))
        copied = Profile(U3, (strict(z_first, "v1"), strict(z_first, "v2")))
        swapped = Profile(U3, (strict(z_first, "v1"), strict(x_first, "v2")))
        real = self.forged(rule, AxiomId.ANONYMITY, (base, swapped), (1, 0))
        assert verify_result(rule, real)
        forged = self.forged(rule, AxiomId.ANONYMITY, (base, copied), (1, 1))
        assert not verify_result(rule, forged)

    def test_neutrality_permutation_must_be_a_permutation(self):
        # (0, 0, 2) sends X and Y both to X; every individual ties them,
        # so the relabeled profile meets the premise's slot test, and
        # may ranks it differently
        rule = RULES["may"]
        tied = tuple(RankingWithTies(v, U3, ((X, Y), (Z,))) for v in ("v1", "v2"))
        base = Profile(U3, tied)
        moved = Profile(U3, (strict((X, Z, Y), "v1"), strict((X, Z, Y), "v2")))
        forged = self.forged(rule, AxiomId.NEUTRALITY, (base, moved), (0, 0, 2))
        assert not verify_result(rule, forged)

    def test_witness_profiles_share_a_universe(self):
        # borda's witness with profile_b moved, slot for slot, onto three
        # other classes: the stances and values are unchanged
        res = audit(RULES["borda"], AxiomId.IIA, exhaustive(3, 2))
        other = synthetic_universe(6)[3:]
        label = {a.render(): b.render() for a, b in zip(U3, other)}
        b = res.witness["profile_b"]
        moved = {
            **b,
            "universe": [label[c] for c in b["universe"]],
            "individuals": [
                {**ind, "tiers": [[label[c] for c in tier] for tier in ind["tiers"]]}
                for ind in b["individuals"]
            ],
        }
        assert verify_result(RULES["borda"], res)
        assert not verify_result(RULES["borda"], retouch(res, profile_b=moved))

    def test_sampled_non_dictatorship_stops_once_all_overruled(self):
        # every individual of the first trial is overruled, so the other
        # 999 trials cannot change the verdict and are not run
        calls = []

        def counted(profile):
            calls.append(1)
            return RULES["may"](profile)

        res = audit(
            Rule("may", counted), AxiomId.NON_DICTATORSHIP, sampled(5, 4, 1000, seed=3)
        )
        assert res.to_json_dict() == {
            "rule_name": "may",
            "axiom": "non_dictatorship",
            "verdict": PASS,
            "witness": None,
            "search_budget": "sampled 1000 trials m=5 n=4 seed=3",
            "seed": 3,
            "notes": None,
        }
        assert len(calls) == 1

    def test_sampled_non_dictatorship_passes_when_everyone_agrees(self):
        # seed 0's one trial gives both individuals the same order, so no
        # one is overruled and no one is followed against opposition: there
        # is no demo profile, and the audit passes without a witness
        drawn = []

        def counted(profile):
            drawn.append([ind.tiers for ind in profile.individuals])
            return RULES["may"](profile)

        res = audit(
            Rule("may", counted), AxiomId.NON_DICTATORSHIP, sampled(2, 2, 1, seed=0)
        )
        assert len(drawn) == 1 and drawn[0][0] == drawn[0][1]
        assert res.to_json_dict() == {
            "rule_name": "may",
            "axiom": "non_dictatorship",
            "verdict": PASS,
            "witness": None,
            "search_budget": "sampled 1 trials m=2 n=2 seed=0",
            "seed": 0,
            "notes": None,
        }

    @pytest.mark.parametrize("index", [-2, True, 0, 4, 1.0, "1", None])
    def test_dictator_index_must_name_an_individual(self, index):
        # -2 used to read individual 1 through a negative index, and True
        # to count as 1; 4 and 1.0 ended in a traceback
        rule = RULES["dictator"]
        res = audit(rule, AxiomId.NON_DICTATORSHIP, exhaustive(3, 3))
        assert verify_result(rule, res)
        assert not verify_result(rule, retouch(res, dictator_index=index))

    @pytest.mark.parametrize(
        "tiers", [[["A-D"], ["A-C"], ["A-A"]], "nonsense", {"tiers": "A-A"}]
    )
    def test_demo_outcome_tiers_must_be_the_rules(self, tiers):
        # the demo outcome is (A-A, A-C, A-D); any other tiers used to
        # verify, since only the dictator index was re-checked
        rule = RULES["dictator"]
        res = audit(rule, AxiomId.NON_DICTATORSHIP, exhaustive(3, 3))
        assert res.witness["demo_outcome_tiers"] == [["A-A"], ["A-C"], ["A-D"]]
        assert verify_result(rule, res)
        assert not verify_result(rule, retouch(res, demo_outcome_tiers=tiers))

    def test_sampled_dictator_witness_gives_no_tiers_and_verifies(self):
        rule = RULES["dictator"]
        res = audit(rule, AxiomId.NON_DICTATORSHIP, sampled(3, 3, 300, seed=5))
        assert res.failed and res.witness["demo_outcome_tiers"] is None
        assert verify_result(rule, res)

    @pytest.mark.parametrize(
        "pair",
        [
            ["A-A"],
            ["A-A", "A-C", "A-D"],
            ["A-A", "Y-Y"],  # a class outside the universe
            ["A-A", "ZZ"],  # not a label
            ["A-A", "A-A"],
            ["A-A", 5],
            "A-A",
            None,
        ],
    )
    def test_iia_pair_must_be_two_classes_of_the_universe(self, pair):
        # one or three labels used to end in a TypeError, and Y-Y or ZZ
        # in a ValueError
        rule = RULES["borda"]
        res = audit(rule, AxiomId.IIA, exhaustive(3, 2))
        assert verify_result(rule, res)
        assert not verify_result(rule, retouch(res, pair=pair))

    @pytest.mark.parametrize("uplifted", ["1", "2", 2.0, True, None])
    def test_uplifted_individual_must_be_an_int(self, uplifted):
        # the witness uplifts individual 2; 2.0 used to verify, and "1"
        # to end in a TypeError
        rule = RULES["borda"]
        res = audit(rule, AxiomId.POSITIVE_RESPONSIVENESS, exhaustive(3, 3))
        assert res.witness["uplifted_individual"] == 2
        assert verify_result(rule, res)
        assert not verify_result(rule, retouch(res, uplifted_individual=uplifted))

    @pytest.mark.parametrize(
        "axiom_id,rule,key",
        [
            (AxiomId.ANONYMITY, "dictator", "individual_permutation"),
            (AxiomId.NEUTRALITY, "kemeny", "class_permutation"),
        ],
    )
    @pytest.mark.parametrize("edit", ["string", "none", "bool"])
    def test_permutation_must_be_a_list_of_ints(self, axiom_id, rule, key, edit):
        res = audit(RULES[rule], axiom_id, exhaustive(3, 2))
        perm = res.witness[key]
        assert verify_result(RULES[rule], res)
        bad = {
            "string": ["0", *perm[1:]],
            "none": None,
            "bool": [bool(x) if x < 2 else x for x in perm],
        }[edit]
        assert not verify_result(RULES[rule], retouch(res, **{key: bad}))

    @pytest.mark.parametrize("edit", ["none", "bad label", "not a list"])
    def test_witness_profile_must_be_a_profile(self, edit):
        rule = RULES["borda"]
        res = audit(rule, AxiomId.IIA, exhaustive(3, 2))
        b = res.witness["profile_b"]
        bad = {
            "none": None,
            "bad label": {**b, "universe": ["A-A", "ZZ", "A-D"]},
            "not a list": [b],
        }[edit]
        assert not verify_result(rule, retouch(res, profile_b=bad))

    def test_witness_profiles_are_in_the_rule_mode(self):
        # a utility profile makes borda raise WrongMode, which unrestricted
        # domain reads as the rule's error: this forgery used to verify
        rule = RULES["borda"]
        labels = [c.render() for c in U3]
        individual = {"owner": "v1", "values": dict.fromkeys(labels, 1.0)}
        profile = {"universe": labels, "mode": "utility", "individuals": [individual] * 2}
        error = "WrongMode: borda needs a ordinal profile, got utility"
        witness = {"profile": profile, "error": error}
        forged = AuditResult("borda", AxiomId.UNRESTRICTED_DOMAIN, FAIL, witness, "f")
        assert not verify_result(rule, forged)

    def test_witness_with_a_non_finite_utility_is_rejected(self):
        # json.loads reads Infinity; the profile's NonFiniteUtility used to
        # escape verification instead of rejecting the witness
        rule = PROBE_RULES["anti_utilitarian"]
        res = audit(rule, AxiomId.STRICT_UNANIMITY, exhaustive(3, 2))
        assert verify_result(rule, res)
        text = json.dumps(res.witness["profile"]).replace("0.5", "Infinity")
        profile = json.loads(text)
        assert not verify_result(rule, retouch(res, profile=profile))

    def test_witness_missing_a_field_is_rejected(self):
        rule = RULES["borda"]
        res = audit(rule, AxiomId.IIA, exhaustive(3, 2))
        witness = dict(res.witness)
        del witness["pair"]
        missing = AuditResult(res.rule_name, res.axiom, FAIL, witness, "edited")
        assert not verify_result(rule, missing)

    @pytest.mark.parametrize(
        "edit",
        ["extra key", "extra profile key", "renamed owner", "duplicated owner", "no mode"],
    )
    def test_what_no_rule_reads_is_not_checked(self, edit):
        # intended: no rule reads owners or keys it does not know, and
        # Profile.from_json_dict accepts the same (mode defaults to
        # ordinal), so the witness still proves its violation
        rule = RULES["may"]
        res = audit(rule, AxiomId.TRANSITIVITY, exhaustive(3, 3))
        profile = res.witness["profile"]
        first, second, *rest = profile["individuals"]

        def owners(a, b):
            individuals = [{**first, "owner": a}, {**second, "owner": b}, *rest]
            return {**profile, "individuals": individuals}

        fields = {
            "extra key": {"comment": "added"},
            "extra profile key": {"profile": {**profile, "comment": "added"}},
            "renamed owner": {"profile": owners("someone", second["owner"])},
            "duplicated owner": {"profile": owners(first["owner"], first["owner"])},
            "no mode": {"profile": {k: v for k, v in profile.items() if k != "mode"}},
        }[edit]
        edited = retouch(res, **fields)
        assert edited.witness != res.witness
        assert verify_result(rule, edited)

    def test_pass_results_verify_trivially(self):
        res = audit(RULES["borda"], AxiomId.UNANIMITY, exhaustive(3, 2))
        assert res.verdict == PASS
        assert verify_result(RULES["borda"], res)


class TestDeterminism:
    def test_exhaustive_audit_repeatable(self):
        a = audit(RULES["may"], AxiomId.TRANSITIVITY, exhaustive(3, 3))
        b = audit(RULES["may"], AxiomId.TRANSITIVITY, exhaustive(3, 3))
        assert a.to_json_dict() == b.to_json_dict()

    def test_coincidence_repeatable(self):
        a = may_coincidence_check(RULES["may"], 3, 2, trials=200, seed=9)
        b = may_coincidence_check(RULES["may"], 3, 2, trials=200, seed=9)
        assert a.to_json_dict() == b.to_json_dict()


class TestCountMemo:
    """An exhaustive space runs a rule's count function once per pairwise
    count matrix, and a rule without one once per profile."""

    DISTINCT = {(3, 2): 19, (3, 3): 44, (3, 4): 85, (4, 2): 219, (4, 3): 1136}

    @staticmethod
    def walk(rule, m, n, catches=False):
        space = _Space(m, n, rule, catches)
        return space, [space.view(combo).outcome for combo in space.combos()]

    @staticmethod
    def counting(name, from_counts=None):
        """RULES[name], its fn and the given count function recording
        each call: (rule, fn calls, count function calls)."""
        calls, counted = [], []

        def fn(profile):
            calls.append(profile)
            return RULES[name](profile)

        def counting_from_counts(universe, counts, n):
            counted.append(counts)
            return from_counts(universe, counts, n)

        kept = None if from_counts is None else counting_from_counts
        return Rule(name, fn, RULES[name].mode, kept), calls, counted

    @pytest.mark.parametrize("m,n", sorted(DISTINCT))
    def test_one_count_call_per_matrix(self, m, n):
        rule, calls, counted = self.counting("may", may_from_counts)
        _, memoised = self.walk(rule, m, n)
        assert len(counted) == len(set(counted)) == self.DISTINCT[m, n]
        assert calls == []
        # the same rule rebuilt from (name, fn, mode) is run on every profile
        space, outcomes = self.walk(Rule("may", rule.fn, "ordinal"), m, n)
        assert len(calls) == space.count
        assert outcomes == memoised

    @pytest.mark.parametrize("m,n", sorted(DISTINCT))
    def test_a_decoded_key_is_the_tournament(self, m, n):
        space = _Space(m, n, RULES["may"], False)
        for combo in space.orbits():
            summed = sum(space.matrices[d] for d in combo)
            assert space.counts(summed) == majority_tournament(space.profile(combo))

    def test_a_raised_error_is_kept_per_matrix(self):
        # the count function fails whenever every individual puts A-A above
        # A-C; unrestricted domain reads the error, once per matrix
        def picky(universe, counts, n):
            if counts[0][1] == n:
                raise ValueError(f"unanimous on the first pair: {counts[0][1]} of {n}")
            return may_from_counts(universe, counts, n)

        rule, calls, counted = self.counting("may", picky)
        _, outcomes = self.walk(rule, 3, 3, catches=True)
        assert len(counted) == self.DISTINCT[3, 3]
        assert calls == []
        errors = [o for o in outcomes if isinstance(o, Exception)]
        assert len(errors) == 3**3  # each individual: 3 of the 6 orders
        # one error per matrix that raised, shared by its profiles
        assert len({id(e) for e in errors}) == sum(c[0][1] == 3 for c in counted)
        # without catches the first error propagates
        with pytest.raises(ValueError, match="3 of 3"):
            self.walk(rule, 3, 3)

        def fn(profile):
            return picky(profile.universe, majority_tournament(profile), profile.n)

        rule = Rule("picky", fn, from_counts=picky)
        res = audit(rule, AxiomId.UNRESTRICTED_DOMAIN, exhaustive(3, 3))
        assert res.witness["error"] == "ValueError: unanimous on the first pair: 3 of 3"
        assert verify_result(rule, res)

    def test_a_count_function_disagreeing_with_fn_is_named(self):
        # the search finds may's Condorcet cycle; re-verification runs fn,
        # the first individual's order, and sees no cycle
        liar = Rule("liar", lambda p: dictator(p, 1), from_counts=may_from_counts)
        with pytest.raises(DisagreeingRule, match="rule 'liar'") as raised:
            audit(liar, AxiomId.TRANSITIVITY, exhaustive(3, 3))
        named = json.loads(str(raised.value).split(" on profile ", 1)[1])
        profile = Profile.from_json_dict(named)
        assert not may_rule(profile).transitive
        assert dictator(profile, 1).transitive

    @pytest.mark.parametrize(
        "fn_error", [None, "a different message"], ids=["no_error", "other_error"]
    )
    def test_forms_raising_differently_are_named(self, fn_error):
        # the count function raises where every individual puts A-A above
        # A-C; fn decides there, or raises another error
        def picky(universe, counts, n):
            if counts[0][1] == n:
                raise ValueError("unanimous on the first pair")
            return may_from_counts(universe, counts, n)

        def fn(profile):
            if fn_error is not None and majority_tournament(profile)[0][1] == profile.n:
                raise ValueError(fn_error)
            return may_rule(profile)

        rule = Rule("picky", fn, from_counts=picky)
        with pytest.raises(DisagreeingRule, match="rule 'picky'"):
            audit(rule, AxiomId.UNRESTRICTED_DOMAIN, exhaustive(3, 3))

    def test_a_count_function_deciding_where_fn_raises_is_named(self):
        # the search finds may's Condorcet cycle by the count function;
        # re-verification runs fn, which raises on the cycle instead
        def fn(profile):
            outcome = may_rule(profile)
            if not outcome.transitive:
                raise ValueError("no transitive outcome")
            return outcome

        rule = Rule("r", fn, from_counts=may_from_counts)
        with pytest.raises(DisagreeingRule, match="^rule 'r': fn and from_counts"):
            audit(rule, AxiomId.TRANSITIVITY, exhaustive(3, 3))

    def test_a_witness_both_forms_agree_on_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr("foldvote.audit.verify_result", lambda rule, res: False)
        with pytest.raises(AssertionError, match="transitivity witness failed"):
            audit(RULES["may"], AxiomId.TRANSITIVITY, exhaustive(3, 3))

    def test_a_utility_rule_refuses_a_count_function(self):
        with pytest.raises(WrongMode, match="utilitarian"):
            Rule("utilitarian", RULES["utilitarian"].fn, "utility", may_from_counts)
        assert Rule("utilitarian", RULES["utilitarian"].fn, "utility").from_counts is None

    @pytest.mark.parametrize(
        "axiom_id",
        sorted(ORDINAL_AXIOMS - {AxiomId.ANONYMITY, AxiomId.NEUTRALITY})
        + sorted(UTILITY_AXIOMS),
    )
    def test_a_search_reads_each_outcome_once(self, axiom_id):
        # a rule without a count function runs on every profile of the
        # walk, and again on at most three witness profiles
        utility = axiom_id in UTILITY_AXIOMS
        name, (m, n) = ("utilitarian", (2, 2)) if utility else ("dictator", (3, 3))
        rule, calls, _ = self.counting(name)
        axiom = _AXIOMS[axiom_id]
        space = _Space(m, n, rule, axiom.catches)
        axiom.search(space)
        assert len(calls) <= space.count + 3

    @pytest.mark.parametrize("axiom_id", sorted(ORDINAL_AXIOMS))
    def test_a_counted_audit_runs_once_per_matrix(self, axiom_id):
        # the count function runs once per matrix the search reaches; fn
        # runs only to re-verify a witness, on at most three profiles
        rule, calls, counted = self.counting("may", may_from_counts)
        res = audit(rule, axiom_id, exhaustive(3, 3))
        assert len(counted) == len(set(counted)) <= self.DISTINCT[3, 3]
        assert len(calls) == (len(_AXIOMS[axiom_id].profile_keys) if res.failed else 0)
        assert len(calls) <= 3

    # the frozen suite's rules by name, with Borda given without its count
    # function
    COUNT_FREE = {**PROBE_RULES, "borda": Rule("borda", borda)}

    @pytest.mark.parametrize(
        "axiom_id,names,m,n",
        [
            (AxiomId.IIA, ("borda", "dictator"), 3, 3),
            (AxiomId.POSITIVE_RESPONSIVENESS, ("borda", "dictator"), 3, 3),
            (AxiomId.MONOTONIC_RESPONSIVENESS, ("inverse_may", "dictator"), 3, 3),
            (AxiomId.UTILITY_IIA, ("utility_borda", "utilitarian"), 3, 2),
        ],
    )
    def test_a_partner_search_walks_the_space_once(
        self, monkeypatch, axiom_id, names, m, n
    ):
        # a fail, then a pass, by rules without a count function: the
        # witness is read off the key tables that the one walk fills, not
        # found by walking the space again
        walks = []
        combos = _Space.combos

        def counting(space):
            walks.append(space)
            return combos(space)

        monkeypatch.setattr(_Space, "combos", counting)
        verdicts = []
        for name in names:
            walks.clear()
            result = audit(self.COUNT_FREE[name], axiom_id, exhaustive(m, n))
            verdicts.append(result.verdict)
            assert len(walks) == 1
        assert verdicts == [FAIL, PASS]

    @pytest.mark.parametrize(
        "axiom_id",
        [
            AxiomId.IIA,
            AxiomId.POSITIVE_RESPONSIVENESS,
            AxiomId.MONOTONIC_RESPONSIVENESS,
        ],
    )
    def test_a_count_rule_passes_on_its_matrices(self, monkeypatch, axiom_id):
        # may passes at (3, 4): the orbit firsts decide, with one count call
        # per distinct matrix, and no profile is walked in enumeration order
        walks = []
        monkeypatch.setattr(_Space, "combos", lambda space: walks.append(space))
        rule, calls, counted = self.counting("may", may_from_counts)
        res = audit(rule, axiom_id, exhaustive(3, 4))
        assert res.verdict == PASS
        assert len(counted) == len(set(counted)) <= self.DISTINCT[3, 4]
        assert walks == []
        assert calls == []

    def test_a_count_rule_fail_reads_fewer_outcomes_than_profiles(self, monkeypatch):
        # borda fails IIA at (3, 3): the orbit firsts decide and give the
        # base, and the walk for its partner stops at the partner
        reads = []
        outcome = _Space.outcome

        def counting(space, combo):
            reads.append(combo)
            return outcome(space, combo)

        monkeypatch.setattr(_Space, "outcome", counting)
        res = audit(RULES["borda"], AxiomId.IIA, exhaustive(3, 3))
        assert res.failed
        assert len(reads) < 6**3


class TestOrbitFirsts:
    """Anonymity and neutrality searches start from each orbit's first
    profile, read off its digits, and move it by each permutation. On an
    anonymous space the single-profile searches and anonymity read only
    each orbit's first profile under permutations of the individuals."""

    SPACES = [(2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    SYMMETRIES = [AxiomId.ANONYMITY, AxiomId.NEUTRALITY]

    @staticmethod
    def orbit_minima(axiom, space):
        """The reference: each profile, numbered in mixed radix, is kept
        when no permutation moves it to a smaller number."""
        digit = {item: d for d, item in enumerate(space.items)}
        perms = list(permutations(range(axiom.size(space.m, space.n))))

        def number(orders):
            idx = 0
            for order in orders:
                idx = idx * len(space.items) + digit[order]
            return idx

        kept = []
        for idx, combo in enumerate(space.combos()):
            orders = [space.items[d] for d in combo]
            if min(number(axiom.move(orders, perm)) for perm in perms) >= idx:
                kept.append(combo)
        return kept

    @pytest.mark.parametrize("axiom_id", SYMMETRIES)
    @pytest.mark.parametrize("m,n", SPACES)
    def test_firsts_are_the_orbit_minima(self, axiom_id, m, n):
        axiom = _AXIOMS[axiom_id]
        space = _Space(m, n, RULES["may"], False)
        assert list(axiom.firsts(space)) == self.orbit_minima(axiom, space)

    @pytest.mark.parametrize("axiom_id", SYMMETRIES)
    def test_moved_digits_name_the_moved_profile(self, axiom_id):
        axiom = _AXIOMS[axiom_id]
        space = _Space(3, 3, RULES["may"], False)
        for combo in axiom.firsts(space):
            orders = [space.items[d] for d in combo]
            for perm in permutations(range(axiom.size(3, 3))):
                moved = axiom.moved(space, combo, perm)
                assert [space.items[d] for d in moved] == axiom.move(orders, perm)

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Record each call of owner.name, a method, by its arguments."""
        counted = []
        method = getattr(owner, name)

        def counting(self, *args):
            counted.append(args)
            return method(self, *args)

        monkeypatch.setattr(owner, name, counting)
        return counted

    @pytest.mark.parametrize(
        "axiom_id,counts,calls,count_calls",
        [
            (AxiomId.ANONYMITY, False, 15600, 0),
            (AxiomId.ANONYMITY, True, 0, 1136),
            (AxiomId.NEUTRALITY, True, 13824, 1136),
        ],
        ids=["anonymity-15600", "memoised-anonymity-0", "neutrality-13824"],
    )
    def test_moved_calls_of_a_full_walk(
        self, monkeypatch, axiom_id, counts, calls, count_calls
    ):
        # may passes both, so the search walks every orbit at (4, 3):
        # C(26, 3) = 2600 firsts times 3! individual permutations, and
        # 24^2 = 576 firsts times 4! relabelings. Given as a count function,
        # every individual permutation keeps its count matrix, so anonymity
        # passes without a moved copy; a relabeling moves the matrix. Either
        # walk reaches all 1136 matrices, and runs the count function once
        # on each.
        axiom = _AXIOMS[axiom_id]
        counted = self.count_calls(monkeypatch, type(axiom), "moved")
        decoded = []

        def from_counts(universe, matrix, n):
            decoded.append(matrix)
            return may_from_counts(universe, matrix, n)

        rule = Rule("may", RULES["may"].fn, from_counts=from_counts if counts else None)
        res = audit(rule, axiom_id, exhaustive(4, 3))
        assert res.verdict == PASS
        assert len(counted) == calls
        assert len(decoded) == len(set(decoded)) == count_calls

    @pytest.mark.parametrize(
        "name,axiom_id,m,n,views",
        [
            # C(3! + 4 - 1, 4) = 126 and C(4! + 3 - 1, 3) = 2600 orbits
            ("may", AxiomId.UNANIMITY, 3, 4, 126),
            ("may", AxiomId.UNANIMITY, 4, 3, 2600),
            ("borda", AxiomId.AGREEMENT, 4, 3, 2600),
            ("may", AxiomId.ANONYMITY, 4, 3, 2600),
            # not anonymous: every profile is read
            ("dictator", AxiomId.UNANIMITY, 3, 4, 6**4),
        ],
    )
    def test_views_of_a_passing_walk(self, monkeypatch, name, axiom_id, m, n, views):
        counted = self.count_calls(monkeypatch, _Space, "view")
        res = audit(RULES[name], axiom_id, exhaustive(m, n))
        assert res.verdict == PASS
        assert len(counted) == len(set(counted)) == views
