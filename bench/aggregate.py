"""aggregate: seeded profiles at realistic scale through the rules, one
rule or distance call per operation.

This is where `rules` pays for one big call: the majority tournament is
O(n*m^2) and Kemeny enumerates m! orders. Profiles mix tied rankings
built from sparse count-like utilities (as extracted structures give)
with strict impartial-culture and single-peaked ones, up to the full
210-class universe with n=100.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import gen
import reference as ref
from core import Op

IMPORTS = (
    "foldvote.profiles",
    "foldvote.rules",
    "foldvote.restrictions",
    "foldvote.directions",
)

# (m, n) per profile family
# The 210x100 tournament alone is over half of a job; the other sizes are
# kept small enough for five jobs in a 20 s run.
TIED = ((210, 100), (90, 50), (40, 30), (20, 30))
STRICT = ((100, 40), (50, 30), (30, 25))
KEMENY = ((7, 11), (6, 25))
DISTANCE = ((40, 30), (60, 20))
# find_axis scans axes in permutation order, so its cost is set by where
# the first valid one lies; a fixed planted axis (valid with its reverse)
# keeps that cost independent of the seed.
AXIS = {(5, 15): (1, 3, 0, 4, 2), (6, 15): (2, 0, 5, 1, 4, 3)}
DIRECTIONS = ((210, 100), (40, 30))


def _positions(profile, index) -> np.ndarray:
    """Tier index of every class for every individual: the input as the
    benchmark reads it, independent of the rule under test."""
    pos = np.zeros((profile.n, profile.m), dtype=np.int64)
    for v, ind in enumerate(profile.individuals):
        for t, tier in enumerate(ind.tiers):
            for cls in tier:
                pos[v, index[cls]] = t
    return pos


class Aggregate:
    name = "aggregate"
    calibration = "dataclass"
    imports = IMPORTS

    def setup(self, seed: int, tracer) -> None:
        from foldvote.directions import direction_from_utility
        from foldvote.preferences import RankingWithTies, UtilityVector
        from foldvote.profiles import Profile, SynthSpec, generate, synthetic_universe

        rng = np.random.default_rng([seed, 2])
        self.seed = seed

        def synth(kind, m, n, salt):
            with tracer.span("profiles.generate"):
                return generate(SynthSpec(kind, m, n, seed=seed * 100 + salt))

        def tied(m, n):
            universe = synthetic_universe(m)
            counts = gen.sparse_counts(rng, m, n)
            rankings, utilities = [], []
            for v, row in enumerate(counts):
                tiers = gen.tiers_from_values(row)
                rankings.append(
                    RankingWithTies(
                        f"p{v + 1}",
                        universe,
                        tuple(tuple(universe[c] for c in t) for t in tiers),
                    )
                )
                utilities.append(
                    UtilityVector(f"p{v + 1}", universe, dict(zip(universe, row.tolist())))
                )
            return (
                Profile(universe, tuple(rankings), "ordinal"),
                Profile(universe, tuple(utilities), "utility"),
                counts,
            )

        self.tied = {size: tied(*size) for size in TIED}
        self.strict = {size: synth("impartial_culture", *size, 1) for size in STRICT}
        self.kemeny = {
            (7, 11): tied(7, 11)[0],
            (6, 25): synth("impartial_culture", 6, 25, 2),
        }
        self.distance = {
            (40, 30): (
                synth("impartial_culture", 40, 30, 3),
                synth("impartial_culture", 40, 30, 4),
            ),
            (60, 20): (tied(60, 20)[0], tied(60, 20)[0]),
        }
        self.axis = {}
        for (m, n), planted in AXIS.items():
            universe = synthetic_universe(m)
            self.axis[(m, n)] = Profile(universe, tuple(
                RankingWithTies.from_strict_order(
                    f"p{v + 1}", universe, tuple(universe[c] for c in order)
                )
                for v, order in enumerate(gen.single_peaked(rng, planted, n))
            ), "ordinal")
        self.directions = {
            size: [direction_from_utility(u) for u in self.tied[size][1].individuals]
            for size in DIRECTIONS
        }
        self.dictator_k = {
            size: int(rng.integers(1, size[1] + 1)) for size in TIED + STRICT
        }
        self._pos: dict[int, np.ndarray] = {}

    # -- operations -------------------------------------------------------

    def ops(self) -> list[Op]:
        out = []
        for family, profiles in (("tied", self.tied), ("strict", self.strict)):
            for size, entry in profiles.items():
                profile = entry[0] if family == "tied" else entry
                tag = f"{family}.{size[0]}x{size[1]}"
                out.append(Op(f"may.{tag}", partial(self._may, profile),
                              partial(self._check_may, profile)))
                out.append(Op(f"borda.{tag}", partial(self._borda, profile),
                              partial(self._check_borda, profile)))
                k = self.dictator_k[size]
                out.append(Op(f"dictator.{tag}", partial(self._dictator, profile, k),
                              partial(self._check_dictator, profile, k)))
        for size, (_o, utility, counts) in self.tied.items():
            out.append(Op(f"utilitarian.{size[0]}x{size[1]}",
                          partial(self._utilitarian, utility),
                          partial(self._check_scores, counts.sum(axis=0))))
        for size, profile in self.kemeny.items():
            out.append(Op(f"kemeny.{size[0]}x{size[1]}", partial(self._kemeny, profile),
                          partial(self._check_kemeny, profile)))
        for size, (a, b) in self.distance.items():
            out.append(Op(f"distance.{size[0]}x{size[1]}", partial(self._distance, a, b),
                          partial(self._check_distance, a, b)))
        for size, profile in self.axis.items():
            out.append(Op(f"find_axis.{size[0]}x{size[1]}", partial(self._axis, profile),
                          partial(self._check_axis, profile)))
        for size, dirs in self.directions.items():
            out.append(Op(f"directions.{size[0]}x{size[1]}",
                          partial(self._directions, dirs),
                          partial(self._check_directions, dirs)))
        return out

    @staticmethod
    def _rule(tr, name, fn, profile, *args):
        with tr.span(f"rules.{name}"):
            outcome = fn(profile, *args)
        if tr.enabled:
            tr.count("rules.calls")
            if name == "may":
                tr.count("rules.pair_comparisons", profile.n * profile.m * (profile.m - 1))
        return outcome

    def _may(self, profile, tr):
        from foldvote.rules import may_rule

        return self._rule(tr, "may", may_rule, profile)

    def _borda(self, profile, tr):
        from foldvote.rules import borda

        return self._rule(tr, "borda", borda, profile)

    def _dictator(self, profile, k, tr):
        from foldvote.rules import dictator

        return self._rule(tr, "dictator", dictator, profile, k)

    def _utilitarian(self, profile, tr):
        from foldvote.rules import utilitarian

        return self._rule(tr, "utilitarian", utilitarian, profile)

    def _kemeny(self, profile, tr):
        from foldvote.rules import kemeny

        return self._rule(tr, "kemeny", kemeny, profile)

    def _distance(self, a, b, tr):
        from foldvote.profiles import profile_distance

        with tr.span("profiles.distance"):
            return profile_distance(a, b)

    def _axis(self, profile, tr):
        from foldvote.restrictions import find_axis

        with tr.span("restrictions.find_axis"):
            return find_axis(profile)

    def _directions(self, dirs, tr):
        from foldvote.directions import aggregate_directions

        with tr.span("directions.aggregate"):
            return aggregate_directions(dirs)

    # -- checks against benchmark-side references -------------------------

    def _index(self, profile) -> dict:
        return {c: k for k, c in enumerate(profile.universe)}

    def _positions(self, profile) -> np.ndarray:
        pos = self._pos.get(id(profile))
        if pos is None:
            pos = _positions(profile, self._index(profile))
            self._pos[id(profile)] = pos
        return pos

    def _tiers(self, outcome, profile) -> list[list[int]] | None:
        if outcome.ranking is None:
            return None
        index = self._index(profile)
        return [[index[c] for c in tier] for tier in outcome.ranking.tiers]

    def _check_may(self, profile, outcome, tr) -> str | None:
        expected = ref.majority_relation(self._positions(profile))
        if not np.array_equal(np.array(outcome.relation, dtype=bool), expected):
            return "rules.may_relation"
        if outcome.transitive != ref.is_transitive(expected):
            return "rules.may_transitivity"
        return None

    def _check_borda(self, profile, outcome, tr) -> str | None:
        expected = ref.tiers_by_score(ref.borda_scores(self._positions(profile)))
        return None if self._tiers(outcome, profile) == expected else "rules.borda_tiers"

    def _check_dictator(self, profile, k, outcome, tr) -> str | None:
        chosen = profile.individuals[k - 1]
        ok = outcome.ranking is not None and outcome.ranking.tiers == chosen.tiers
        return None if ok else "rules.dictator_tiers"

    def _check_scores(self, totals, outcome, tr) -> str | None:
        expected = ref.tiers_by_score(totals)
        got = outcome.ranking
        index = {c: k for k, c in enumerate(outcome.universe)}
        tiers = None if got is None else [[index[c] for c in t] for t in got.tiers]
        return None if tiers == expected else "rules.utilitarian_tiers"

    def _check_kemeny(self, profile, outcome, tr) -> str | None:
        order = tuple(self._index(profile)[t[0]] for t in outcome.ranking.tiers)
        ok = order == ref.kemeny_order(self._positions(profile))
        return None if ok else "rules.kemeny_order"

    def _check_distance(self, a, b, got, tr) -> str | None:
        expected = ref.kendall_total(self._positions(a), self._positions(b))
        return None if got == expected else "profiles.distance"

    def _check_axis(self, profile, axis, tr) -> str | None:
        expected = ref.first_single_peaked_axis(self._positions(profile))
        got = None if axis is None else tuple(self._index(profile)[c] for c in axis)
        return None if got == expected and got is not None else "restrictions.axis"

    def _check_directions(self, dirs, got, tr) -> str | None:
        coords = np.array([d.coordinates for d in dirs]).mean(axis=0)
        expected = coords / np.linalg.norm(coords)
        ok = np.allclose(got.coordinates, expected, rtol=0, atol=1e-12)
        return None if ok else "directions.mean"

    def properties(self) -> dict:
        tiers = [
            len(ind.tiers) for entry in self.tied.values() for ind in entry[0].individuals
        ]
        return {
            "tied_profiles": [list(s) for s in TIED],
            "strict_profiles": [list(s) for s in STRICT],
            "tie_tiers_per_tied_ranking": round(sum(tiers) / len(tiers), 3),
            "kemeny": [list(s) for s in KEMENY],
            "single_peaked": [list(s) for s in AXIS],
            "planted_axes": [list(a) for a in AXIS.values()],
        }
