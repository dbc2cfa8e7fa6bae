"""The exhaustive IIA, responsiveness and proximity searches against the
searches they replaced.

The reference functions below are those searches as they were before
each one kept its witness in the pass that finds it: IIA checked every
member of every stance group and then rescanned the witness's groups,
responsiveness memoised the first flagged member of each lifted group,
and proximity ran a precheck per base and then a near x far double loop.
Every standard rule and every probe rule of the frozen suite is audited
over every exhaustive space with m <= 3 and n <= 4 that the budget
admits, and both searches must give the same profile digits and the
same witness fields.
"""

import math
from functools import cache
from itertools import product

import pytest

from foldvote.audit import (
    _AXIOMS,
    BUDGET_LIMIT,
    UTILITY_GRID,
    AxiomId,
    _armed,
    _proximity_violation,
    _Space,
)
from test_audit_frozen import PROBE_ORDINAL, RULES, STANDARD_ORDINAL, UTILITY
from test_profiles import kendall_pair_loop


# the stance the responsiveness reference groups strict orders by
def _prefers(prefs, i, j):
    return prefs[i] < prefs[j]


def _key(space, combo, stance, pair):
    """Each individual's stance on the pair, read off its order."""
    return tuple(stance(space.prefs[d], *pair) for d in combo)


def _groups(space, stance, pair):
    """Profiles by stance key, each group in enumeration order."""
    groups = {}
    for combo in space.combos():
        groups.setdefault(_key(space, combo, stance, pair), []).append(combo)
    return groups


def reference_iia(axiom, space):
    mixed = []
    for pair in space.pairs:
        for members in _groups(space, axiom.stance, pair).values():
            first = space.view(members[0])
            views = [(first, space.view(idx)) for idx in members]
            if [v for v in views if axiom.check(space.universe, v, pair)]:
                mixed.append(members[0])
    if not mixed:
        return None
    first = min(mixed)
    candidates = []
    for p_idx, pair in enumerate(space.pairs):
        group = _groups(space, axiom.stance, pair)[_key(space, first, axiom.stance, pair)]
        for other in group:
            views = (space.view(first), space.view(other))
            detail = axiom.check(space.universe, views, pair)
            if detail:
                candidates.append((other, p_idx, detail))
                break
    other, _, detail = min(candidates)
    return (first, other), detail


def reference_responsiveness(axiom, space):
    ordered_pairs = sorted(space.pairs + [(j, i) for i, j in space.pairs])
    groups = {pair: _groups(space, _prefers, pair) for pair in ordered_pairs}
    flagged = {}
    for combo in space.combos():
        base = space.view(combo)
        candidates = []
        for p_rank, pair in enumerate(ordered_pairs):
            if not _armed(base.outcome.pair_value(*pair)):
                continue
            key = _key(space, combo, _prefers, pair)
            for uplifted in range(space.n):
                if key[uplifted]:
                    continue
                lifted = key[:uplifted] + (True,) + key[uplifted + 1 :]
                if (pair, lifted) not in flagged:
                    flagged[pair, lifted] = None
                    for other in groups[pair].get(lifted, ()):
                        views = (base, space.view(other))
                        if axiom.check(space.universe, views, uplifted + 1, pair):
                            flagged[pair, lifted] = other
                            break
                other = flagged[pair, lifted]
                if other is not None:
                    candidates.append((other, p_rank, uplifted, pair))
        if candidates:
            other, _, uplifted, pair = min(candidates)
            views = (base, space.view(other))
            detail = axiom.check(space.universe, views, uplifted + 1, pair)
            return (combo, other), detail
    return None


def reference_proximity(axiom, space):
    order_dist = [[kendall_pair_loop(a, b) for b in space.prefs] for a in space.prefs]
    combos = list(space.combos())
    values = [
        [space.view(combo).outcome.pair_value(*pair) for pair in space.pairs]
        for combo in combos
    ]
    for base in range(space.count):
        D = [
            sum(order_dist[a][b] for a, b in zip(combos[base], combo))
            for combo in combos
        ]
        d = [sum(abs(u - v) for u, v in zip(values[base], row)) for row in values]
        by_D = {}
        for other in range(space.count):
            by_D.setdefault(D[other], []).append(d[other])
        farthest = -math.inf
        for D_value in sorted(by_D):
            farthest = max(farthest, *by_D[D_value])
            if farthest > min(by_D[D_value]):
                break
        else:
            continue
        for near in range(space.count):
            for far in range(space.count):
                detail = _proximity_violation(D[near], D[far], d[near], d[far])
                if detail is not None:
                    return (combos[base], combos[near], combos[far]), detail
    return None


REFERENCES = {
    AxiomId.IIA: reference_iia,
    AxiomId.UTILITY_IIA: reference_iia,
    AxiomId.POSITIVE_RESPONSIVENESS: reference_responsiveness,
    AxiomId.MONOTONIC_RESPONSIVENESS: reference_responsiveness,
    AxiomId.PROXIMITY_PRESERVATION: reference_proximity,
}


def _cases():
    out = []
    cases = list(product(REFERENCES, product((2, 3), (2, 3, 4))))
    pairing = [a for a in REFERENCES if a != AxiomId.PROXIMITY_PRESERVATION]
    cases += product(pairing, [(2, 5), (2, 6), (4, 2)])
    for axiom_id, (m, n) in cases:
        utility = axiom_id == AxiomId.UTILITY_IIA
        count = (len(UTILITY_GRID) ** m if utility else math.factorial(m)) ** n
        if count * _AXIOMS[axiom_id].cost(m, n, count) > BUDGET_LIMIT:
            continue
        for rule in UTILITY if utility else STANDARD_ORDINAL + PROBE_ORDINAL:
            case_id = f"{axiom_id.value}:{rule}:{m}x{n}"
            out.append(pytest.param(axiom_id, rule, m, n, id=case_id))
    return out


@cache
def _searched(axiom_id, rule, m, n):
    """(what the search finds, what the reference finds), each on a
    fresh space."""
    axiom = _AXIOMS[axiom_id]
    found = axiom.search(_Space(m, n, RULES[rule], axiom.catches))
    expected = REFERENCES[axiom_id](axiom, _Space(m, n, RULES[rule], axiom.catches))
    return found, expected


@pytest.mark.parametrize("axiom_id,rule,m,n", _cases())
def test_search_matches_reference(axiom_id, rule, m, n):
    found, expected = _searched(axiom_id, rule, m, n)
    assert found == expected


def test_every_axiom_is_compared_on_fails_and_passes():
    # the budget admits every ordinal space here and utility IIA up to
    # (2, 3) and (3, 2); IIA and responsiveness also run at (2, 5), (2, 6)
    # and (4, 2)
    cases = _cases()
    assert len(cases) == 4 * 6 * 7 + 3 * 3 * 7 + 3 * 3
    verdicts = {(case.values[0], _searched(*case.values)[1] is None) for case in cases}
    assert verdicts == set(product(REFERENCES, (True, False)))
