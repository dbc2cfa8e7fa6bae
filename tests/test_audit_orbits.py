"""Exhaustive audits of rules given as count functions against the full
walks they replaced.

A rule with a count function is run once per pairwise count matrix, so
every profile of an orbit under permutations of the individuals reads
one outcome. Agreement, transitivity, unrestricted domain and unanimity
then walk only each orbit's first profile, and anonymity reads each
first without moving it. IIA and both responsiveness axioms table each
pair's class: the stance key, or for such a rule its count N(a > b).
They walk the orbit firsts to decide, and walk profiles only to find a
fail's witness. The references below are those searches as they were
before: the single-profile search walked every profile in enumeration
order, anonymity moved each orbit's first by every individual
permutation, and IIA and responsiveness tabled every profile's stance
keys in `table_walk`.

The single-profile searches and anonymity are compared through
`audit(...).to_json_dict()`, or the type and message of what the audit
raised. IIA and responsiveness are searched directly on one `_Space`,
bypassing the price, which refuses them at (3, 5) and (4, 3); both sides
give the witness's profile digits and fields, or the type and message of
what the search raised. Every comparison runs over May, Borda and Kemeny
and five probes: two count functions of the frozen suite's, which fail
agreement and unanimity; one that raises an error naming the counts it
read; one that ties every pair except where all individuals hold the
first order, so that one partner profile serves several pairs and the
pair order breaks the tie; and one whose count function is Borda's but
whose `fn` copies individual 1, so only its count function is
anonymous. Set FOLDVOTE_ORBIT_SPACES (for example "4x4 3x6") to compare
other spaces than the default ones.

Rules without a count function take the same IIA and responsiveness
search, classed by stance key. It is compared with `table_walk` over the
dictator, the frozen suite's `inverse_may` and a Borda given without its
count function, on the default spaces of at most 1296 profiles.
"""

import math
import os
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import pytest

from foldvote.audit import _AXIOMS, FAIL, PASS, AxiomId, Rule, _Space, audit
from foldvote.audit import exhaustive, standard_rules
from foldvote.rules import AggregationOutcome, borda, borda_from_counts, dictator
from foldvote.rules import majority_tournament, may_from_counts
from test_audit_frozen import RULES as PROBE_RULES


def _strict_majority(universe, counts, n):
    # a >= b only on a strict majority, so a tied count leaves the pair
    # incomparable
    m = len(universe)
    relation = tuple(
        tuple(i == j or counts[i][j] > counts[j][i] for j in range(m))
        for i in range(m)
    )
    return AggregationOutcome("strict_majority", universe, relation)


def _inverse_may(universe, counts, n):
    # majority read backwards: a unanimous a > b yields b > a
    relation = may_from_counts(universe, counts, n).relation
    return AggregationOutcome("inverse_may", universe, tuple(zip(*relation)))


def _raiser(universe, counts, n):
    if counts[-1][0] == n:
        raise ValueError(f"everyone puts the last class above the first: {counts}")
    return may_from_counts(universe, counts, n)


def _lone_order(universe, counts, n):
    # every pair tied, except where everyone holds the first order: one
    # partner profile then keeps the stances on several flagged pairs
    m = len(universe)
    if all(counts[i][j] == n for i in range(m) for j in range(i + 1, m)):
        return may_from_counts(universe, counts, n)
    return AggregationOutcome("lone_order", universe, ((True,) * m,) * m)


def _counted(name, from_counts):
    """The rule deciding by from_counts, on a profile's tournament too."""

    def fn(profile):
        return from_counts(profile.universe, majority_tournament(profile), profile.n)

    return Rule(name, fn, from_counts=from_counts)


RULES = {
    **{name: r for name, r in standard_rules().items() if r.from_counts is not None},
    "strict_majority": _counted("strict_majority", _strict_majority),
    "inverse_may": _counted("inverse_may", _inverse_may),
    "raiser": _counted("raiser", _raiser),
    "lone_order": _counted("lone_order", _lone_order),
    # exhaustive searches read the count function alone, never fn
    "liar": Rule(
        "liar", lambda profile: dictator(profile, 1), from_counts=borda_from_counts
    ),
}
AXIOMS = (
    AxiomId.AGREEMENT,
    AxiomId.TRANSITIVITY,
    AxiomId.UNRESTRICTED_DOMAIN,
    AxiomId.UNANIMITY,
    AxiomId.ANONYMITY,
)
PARTNER_AXIOMS = (
    AxiomId.IIA,
    AxiomId.POSITIVE_RESPONSIVENESS,
    AxiomId.MONOTONIC_RESPONSIVENESS,
)
DEFAULT_SPACES = [(2, n) for n in range(2, 6)] + [(3, n) for n in range(2, 6)]
DEFAULT_SPACES += [(4, 2), (4, 3)]
SPACES = [
    tuple(map(int, space.split("x")))
    for space in os.environ.get("FOLDVOTE_ORBIT_SPACES", "").split()
] or DEFAULT_SPACES
# rules without a count function, and the spaces their search is compared on
KEY_RULES = {
    "dictator": PROBE_RULES["dictator"],
    "inverse_may": PROBE_RULES["inverse_may"],
    "borda": Rule("borda", borda),
}
KEY_SPACES = [(m, n) for m, n in DEFAULT_SPACES if math.factorial(m) ** n <= 1296]


def full_walk(axiom, space):
    """Every profile in enumeration order; the first that the check flags."""
    for combo in space.combos():
        detail = axiom.check(space.universe, [space.view(combo)])
        if detail is not None:
            return (combo,), detail
    return None


def moved_walk(axiom, space):
    """Each orbit's first profile, in enumeration order, moved by every
    individual permutation."""
    perms = list(permutations(range(space.n)))
    for combo in combinations_with_replacement(range(len(space.items)), space.n):
        base = space.view(combo)
        for perm in perms:
            other = axiom.moved(space, combo, perm)
            view = base if other == combo else space.view(other)
            detail = axiom.check(space.universe, (base, view), perm)
            if detail is not None:
                return (combo, other), detail
    return None


def table_walk(axiom, space):
    """Per pair, each stance key's first profile taking each outcome value
    there, in one walk of every profile; the witness is the least (base,
    partner, pair rank, parameters) over the entries whose first has a
    partner key taking a value the axiom rejects."""
    pairs = axiom.pairs(space)
    stances = [[axiom.stance(p, *pair) for p in space.prefs] for pair in pairs]
    tables = [{} for _ in pairs]
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
            for other, params in axiom.partners(key, pair)
            if (
                hits := [
                    combo
                    for v, combo in table.get(other, {}).items()
                    if axiom.rejects(value, v)
                ]
            )
        ),
        default=None,
    )
    if found is None:
        return None
    base, other, _, params = found
    views = (space.view(base), space.view(other))
    return (base, other), axiom.check(space.universe, views, *params)


def _audited(rule, axiom_id, m, n):
    """The audit's report, or the type and message of what it raised."""
    try:
        return audit(RULES[rule], axiom_id, exhaustive(m, n)).to_json_dict()
    except Exception as exc:
        return type(exc), str(exc)


@cache
def _compared(rule, axiom_id, m, n):
    """(what the audit gives, what it gives with the reference search)."""
    found = _audited(rule, axiom_id, m, n)
    reference = moved_walk if axiom_id == AxiomId.ANONYMITY else full_walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(_AXIOMS[axiom_id]), "search", reference)
        expected = _audited(rule, axiom_id, m, n)
    return found, expected


def _searched(search, *args):
    """The search's (profile digits, witness fields) or None, or the type
    and message of what it raised."""
    try:
        return search(*args)
    except Exception as exc:
        return type(exc), str(exc)


@cache
def _compared_partners(rule, axiom_id, m, n, keyed=False):
    """(what the search gives, what the table walk gives) on one space, for
    a rule of KEY_RULES if keyed, else of RULES."""
    axiom = _AXIOMS[axiom_id]
    space = _Space(m, n, (KEY_RULES if keyed else RULES)[rule], axiom.catches)
    return _searched(axiom.search, space), _searched(table_walk, axiom, space)


def _cases(axioms, rules=RULES, spaces=SPACES):
    return [
        pytest.param(rule, axiom_id, m, n, id=f"{rule}:{axiom_id.value}:{m}x{n}")
        for rule, axiom_id, (m, n) in product(rules, axioms, spaces)
    ]


@pytest.mark.parametrize("rule,axiom_id,m,n", _cases(AXIOMS))
def test_orbit_walk_matches_full_walk(rule, axiom_id, m, n):
    found, expected = _compared(rule, axiom_id, m, n)
    assert found == expected


@pytest.mark.parametrize("rule,axiom_id,m,n", _cases(PARTNER_AXIOMS))
def test_count_search_matches_table_walk(rule, axiom_id, m, n):
    found, expected = _compared_partners(rule, axiom_id, m, n)
    assert found == expected


@pytest.mark.parametrize(
    "rule,axiom_id,m,n", _cases(PARTNER_AXIOMS, KEY_RULES, KEY_SPACES)
)
def test_key_search_matches_table_walk(rule, axiom_id, m, n):
    found, expected = _compared_partners(rule, axiom_id, m, n, keyed=True)
    assert found == expected


def test_every_outcome_is_compared():
    # over the default spaces the references give fails, passes and the
    # raiser's error (caught as a fail by unrestricted domain), and the
    # liar passes anonymity, by its count function alone
    kinds = {}
    for rule, axiom_id, (m, n) in product(RULES, AXIOMS, DEFAULT_SPACES):
        expected = _compared(rule, axiom_id, m, n)[1]
        kind = expected["verdict"] if isinstance(expected, dict) else expected[0]
        kinds.setdefault(axiom_id, set()).add(kind)
    for rule, axiom_id, (m, n) in product(RULES, PARTNER_AXIOMS, DEFAULT_SPACES):
        expected = _compared_partners(rule, axiom_id, m, n)[1]
        if expected is None:
            kind = PASS
        else:
            kind = ValueError if expected[0] is ValueError else FAIL
        kinds.setdefault(axiom_id, set()).add(kind)
    fail_pass_raise = {FAIL, PASS, ValueError}
    assert kinds == {
        AxiomId.AGREEMENT: fail_pass_raise,
        AxiomId.TRANSITIVITY: fail_pass_raise,
        AxiomId.UNRESTRICTED_DOMAIN: {FAIL, PASS},
        AxiomId.UNANIMITY: fail_pass_raise,
        AxiomId.ANONYMITY: {PASS, ValueError},
        AxiomId.IIA: fail_pass_raise,
        AxiomId.POSITIVE_RESPONSIVENESS: fail_pass_raise,
        AxiomId.MONOTONIC_RESPONSIVENESS: fail_pass_raise,
    }
    assert all(
        _compared("liar", AxiomId.ANONYMITY, m, n)[1]["verdict"] == PASS
        for m, n in DEFAULT_SPACES
    )


def test_every_key_outcome_is_compared():
    # rules without a count function give the key differential a fail and
    # a pass for each of the three axioms
    kinds = {}
    for rule, axiom_id, (m, n) in product(KEY_RULES, PARTNER_AXIOMS, KEY_SPACES):
        expected = _compared_partners(rule, axiom_id, m, n, keyed=True)[1]
        kinds.setdefault(axiom_id, set()).add(PASS if expected is None else FAIL)
    assert kinds == dict.fromkeys(PARTNER_AXIOMS, {FAIL, PASS})
