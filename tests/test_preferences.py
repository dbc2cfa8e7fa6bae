"""Utility construction and ordinal collapse."""

import json
import math
import random
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from foldvote.contacts import InteractionClass, Scorer, class_universe
from foldvote.contacts import InteractionInstance
from foldvote.errors import (
    MalformedProfile,
    MixedProteins,
    NonFiniteUtility,
    UniverseMismatch,
)
from foldvote.preferences import (
    RankingWithTies,
    UtilityVector,
    ordinal_from_utility,
    utility_from_instances,
)
from foldvote.profiles import (
    SYNTH_KINDS,
    Profile,
    SynthSpec,
    _single_peaked_order,
    generate,
    synthetic_universe,
)


def inst(pid, a, b, score):
    return InteractionInstance(
        protein_id=pid,
        interaction_class=InteractionClass.of(a, b),
        residues=(("A", 1), ("A", 5)),
        distance=4.0,
        score=score,
    )


AV = InteractionClass.of("A", "V")
GL = InteractionClass.of("G", "L")


def by_class(u):
    """A utility vector's values keyed by class."""
    return dict(zip(u.universe, u.values))


class TestUtilityFromInstances:
    def setup_method(self):
        self.instances = [
            inst("p", "A", "V", 1.0),
            inst("p", "A", "V", 2.0),
            inst("p", "G", "L", 4.0),
        ]
        from foldvote.contacts import class_universe

        self.universe = class_universe(True)

    def test_sum(self):
        values = by_class(
            utility_from_instances(self.instances, self.universe, combine="sum")
        )
        assert values[AV] == 3.0
        assert values[GL] == 4.0
        others = [v for c, v in values.items() if c not in (AV, GL)]
        assert set(others) == {0.0}

    def test_count(self):
        values = by_class(
            utility_from_instances(self.instances, self.universe, combine="count")
        )
        assert values[AV] == 2.0
        assert values[GL] == 1.0

    def test_mean(self):
        values = by_class(
            utility_from_instances(self.instances, self.universe, combine="mean")
        )
        assert values[AV] == 1.5
        assert values[GL] == 4.0

    def test_empty_all_zero(self):
        u = utility_from_instances([], self.universe, protein_id="p")
        assert set(u.values) == {0.0}
        assert u.protein_id == "p"

    def test_unknown_combine(self):
        with pytest.raises(ValueError, match="^unknown combine 'median'$"):
            utility_from_instances(self.instances, self.universe, combine="median")

    def test_mixed_proteins(self):
        bad = self.instances + [inst("q", "A", "A", 1.0)]
        with pytest.raises(MixedProteins):
            utility_from_instances(bad, self.universe)

    def test_out_of_universe_class(self):
        hetero = [c for c in self.universe if c.first != c.second]
        with pytest.raises(UniverseMismatch):
            utility_from_instances(
                [inst("p", "A", "A", 1.0)], tuple(hetero), combine="sum"
            )

    def test_sums_are_correctly_rounded(self):
        # ten 0.1 scores added left to right give 0.9999999999999999, as the
        # builtin sum does before Python 3.12, which would rank A-D's one
        # 1.0 strictly above A-C; the correctly rounded sum ties them
        a_a, a_c, a_d = synthetic_universe(3)
        instances = [inst("p", "A", "C", 0.1)] * 10 + [inst("p", "A", "D", 1.0)]
        u = utility_from_instances(instances, synthetic_universe(3))
        assert u.values == (0.0, 1.0, 1.0)
        assert ordinal_from_utility(u).tiers == ((a_c, a_d), (a_a,))
        mean = utility_from_instances(instances, synthetic_universe(3), "mean")
        assert mean.values == (0.0, 0.1, 1.0)

    @pytest.mark.parametrize(
        "scores,shown",
        [
            ([1e308, 1e308], "inf"),
            ([-1e308, -1e308], "-inf"),
            ([math.inf, -math.inf], "nan"),
        ],
    )
    @pytest.mark.parametrize("combine", ["sum", "mean"])
    def test_sums_without_a_finite_value_rejected(self, scores, shown, combine):
        # math.fsum raises OverflowError or ValueError on these; the class
        # is still named as a non-finite utility
        instances = [inst("p", "A", "C", s) for s in scores]
        with pytest.raises(NonFiniteUtility, match=f"^utility of A-C is {shown}$"):
            utility_from_instances(instances, synthetic_universe(3), combine)

    def test_sum_additive(self):
        left = self.instances[:1]
        right = self.instances[1:]
        u_all = utility_from_instances(self.instances, self.universe)
        u_l = utility_from_instances(left, self.universe, protein_id="p")
        u_r = utility_from_instances(right, self.universe, protein_id="p")
        for a, left, right in zip(u_all.values, u_l.values, u_r.values):
            assert a == left + right


def reference_utility(instances, universe, combine="sum", protein_id=None):
    """utility_from_instances checking each instance against the universe
    as it goes, as it did before it grouped first."""
    owners = {i.protein_id for i in instances}
    if protein_id is None:
        protein_id = owners.pop() if owners else ""
    allowed = set(universe)
    by_class = {}
    for i in instances:
        if i.interaction_class not in allowed:
            raise UniverseMismatch(
                f"instance class {i.interaction_class.render()} outside universe"
            )
        by_class.setdefault(i.interaction_class, []).append(i.score)
    values = []
    for cls in universe:
        scores = by_class.get(cls)
        if not scores:
            values.append(0.0)
        elif combine == "sum":
            values.append(math.fsum(scores))
        elif combine == "mean":
            values.append(math.fsum(scores) / len(scores))
        else:
            values.append(float(len(scores)))
    return UtilityVector(protein_id, universe, values)


def reference_tiers(u, tie_epsilon=0.0):
    """ordinal_from_utility's tiers, sorted by the classes' own order."""
    ordered = sorted(zip(u.universe, u.values), key=lambda cv: (-cv[1], cv[0]))
    tiers, prev = [], None
    for cls, val in ordered:
        if prev is not None and prev - val <= tie_epsilon:
            tiers[-1].append(cls)
        else:
            tiers.append([cls])
        prev = val
    return tuple(tuple(t) for t in tiers)


class TestAgainstReferences:
    def test_utility_matches_reference(self):
        rng = random.Random(3)
        classes = list(class_universe())
        for _ in range(200):
            universe = tuple(rng.sample(classes, rng.randint(1, 40)))
            pool = list(universe) if rng.random() < 0.8 else classes
            picks = [rng.choice(pool) for _ in range(rng.randint(0, 60))]
            instances = [
                inst("p", c.first, c.second, rng.choice([-1.5, 0.5, 2.0])) for c in picks
            ]
            combine = rng.choice(["sum", "mean", "count"])
            try:
                want = reference_utility(instances, universe, combine)
            except UniverseMismatch as exc:
                with pytest.raises(UniverseMismatch, match=f"^{exc}$"):
                    utility_from_instances(instances, universe, combine)
            else:
                assert utility_from_instances(instances, universe, combine) == want

    def test_first_stray_class_seen_is_named(self):
        universe = synthetic_universe(3)
        instances = [
            inst("p", "A", "C", 1.0),
            inst("p", "W", "Y", 1.0),
            inst("p", "A", "A", 1.0),
            inst("p", "G", "L", 1.0),
        ]
        # W-Y and G-L lie outside A-A, A-C, A-D; each order names its first
        for order, stray in ((instances, "W-Y"), (instances[::-1], "G-L")):
            want = f"^instance class {stray} outside universe$"
            with pytest.raises(UniverseMismatch, match=want):
                reference_utility(order, universe)
            with pytest.raises(UniverseMismatch, match=want):
                utility_from_instances(order, universe)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_tiers_match_reference_under_heavy_ties(self, epsilon):
        rng = random.Random(11)
        classes = list(class_universe())
        for _ in range(150):
            universe = tuple(rng.sample(classes, rng.randint(1, 60)))
            values = [rng.choice([-1.0, 0.0, 0.0, 0.5, 1.0, 2.0]) for _ in universe]
            u = UtilityVector("p", universe, values)
            assert ordinal_from_utility(u, epsilon).tiers == reference_tiers(u, epsilon)


def vec(universe, mapping, owner="p"):
    values = {c: 0.0 for c in universe}
    values.update(mapping)
    return UtilityVector(owner, universe, values)


class TestOrdinalFromUtility:
    def setup_method(self):
        self.u3 = synthetic_universe(3)
        self.x, self.y, self.z = self.u3

    def test_sort_order(self):
        u = vec(self.u3, {self.x: 3.0, self.y: 4.0})
        r = ordinal_from_utility(u)
        assert r.tiers == ((self.y,), (self.x,), (self.z,))

    def test_all_equal_single_tier(self):
        u = vec(self.u3, {c: 7.0 for c in self.u3})
        r = ordinal_from_utility(u)
        assert len(r.tiers) == 1
        assert set(r.tiers[0]) == set(self.u3)

    def test_epsilon_grouping(self):
        u = vec(self.u3, {self.x: 1.0, self.y: 1.05, self.z: 0.0})
        r = ordinal_from_utility(u, tie_epsilon=0.1)
        assert set(r.tiers[0]) == {self.x, self.y}
        assert r.tiers[1] == (self.z,)

    def test_zero_epsilon_exact_groups(self):
        u = vec(self.u3, {self.x: 1.0, self.y: 1.0, self.z: 0.5})
        r = ordinal_from_utility(u, tie_epsilon=0.0)
        assert set(r.tiers[0]) == {self.x, self.y}

    def test_single_linkage_chaining(self):
        # pairwise gaps 0.5 chain into one tier even though ends differ by 1.0
        u = vec(self.u3, {self.x: 1.0, self.y: 1.5, self.z: 2.0})
        r = ordinal_from_utility(u, tie_epsilon=0.5)
        assert len(r.tiers) == 1

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_monotone_transform_invariance(self, raw):
        u = vec(self.u3, dict(zip(self.u3, map(float, raw))))
        shifted = vec(
            self.u3, {c: 3.0 * v + 11.0 for c, v in by_class(u).items()}
        )
        assert ordinal_from_utility(u).tiers == ordinal_from_utility(shifted).tiers

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=5, max_size=5))
    def test_partition(self, raw):
        u5 = synthetic_universe(5)
        u = vec(u5, dict(zip(u5, raw)))
        r = ordinal_from_utility(u)
        flat = [c for t in r.tiers for c in t]
        assert sorted(flat) == sorted(u5)
        assert all(t for t in r.tiers)

    def test_order_agrees_with_utility(self):
        u = vec(self.u3, {self.x: 5.0, self.y: 1.0, self.z: 3.0})
        x, y, z = ordinal_from_utility(u).slots()
        assert x < z < y

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan, math.inf, -math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        # a NaN epsilon used to put every class in its own tier
        u = vec(self.u3, {self.x: 1.0})
        with pytest.raises(ValueError, match="tie_epsilon must be finite and >= 0"):
            ordinal_from_utility(u, tie_epsilon=epsilon)


class TestRankingValidation:
    def test_tiers_must_partition(self):
        u3 = synthetic_universe(3)
        with pytest.raises(ValueError):
            RankingWithTies("p", u3, ((u3[0],), (u3[1],)))
        with pytest.raises(ValueError):
            RankingWithTies("p", u3, ((u3[0], u3[0]), (u3[1],), (u3[2],)))
        with pytest.raises(ValueError):
            RankingWithTies("p", u3, ((u3[0],), (), (u3[1], u3[2])))

    def test_universe_repeating_a_class_rejected(self):
        x, y = synthetic_universe(2)
        with pytest.raises(UniverseMismatch, match="universe repeats A-A"):
            RankingWithTies("p", (x, x, y), ((y,), (x,)))
        with pytest.raises(UniverseMismatch, match="universe repeats A-A"):
            UtilityVector("p", (x, x, y), {x: 1.0, y: 0.0})
        with pytest.raises(UniverseMismatch, match="universe repeats A-A"):
            UtilityVector("p", (x, x, y), (1.0, 1.0, 0.0))

    def test_pair_value(self):
        u3 = synthetic_universe(3)
        # a pair's value is read from the tier slots: a tie, then a win
        s = RankingWithTies("p", u3, ((u3[0], u3[1]), (u3[2],))).slots()
        assert s[0] == s[1]
        assert s[0] < s[2] and not s[2] < s[0]

    def test_json_roundtrip(self):
        u3 = synthetic_universe(3)
        r = RankingWithTies("p", u3, ((u3[1],), (u3[0], u3[2])))
        assert RankingWithTies.from_json_dict(r.to_json_dict()) == r

    def test_utility_json_roundtrip(self):
        u3 = synthetic_universe(3)
        u = vec(u3, {u3[0]: 1.25})
        assert UtilityVector.from_json_dict(u.to_json_dict()) == u


def individual_json(reader):
    u3 = synthetic_universe(3)
    if reader is RankingWithTies:
        return RankingWithTies("p", u3, ((u3[1],), (u3[0], u3[2]))).to_json_dict()
    return vec(u3, {u3[0]: 1.25}).to_json_dict()


def profile_error(reader, obj):
    """The message Profile.from_json_dict gives for a profile of two
    copies of this individual, which the reader must give alike."""
    mode = "ordinal" if reader is RankingWithTies else "utility"
    individual = {k: v for k, v in obj.items() if k != "universe"}
    wrapped = {"universe": obj["universe"], "mode": mode, "individuals": [individual] * 2}
    with pytest.raises(MalformedProfile) as exc:
        Profile.from_json_dict(wrapped)
    return str(exc.value)


@pytest.mark.parametrize("reader", [RankingWithTies, UtilityVector])
class TestIndividualJsonFaults:
    # each reader used to end in a bare KeyError, or accept the field

    def test_missing_owner(self, reader):
        obj = individual_json(reader)
        del obj["owner"]
        with pytest.raises(MalformedProfile) as exc:
            reader.from_json_dict(obj)
        assert str(exc.value) == "missing key 'owner'" == profile_error(reader, obj)

    def test_integer_owner(self, reader):
        obj = individual_json(reader)
        obj["owner"] = 5
        with pytest.raises(MalformedProfile) as exc:
            reader.from_json_dict(obj)
        assert str(exc.value) == "owner must be a string, got 5" == profile_error(reader, obj)

    def test_not_an_object(self, reader):
        with pytest.raises(MalformedProfile, match="must be an object, got"):
            reader.from_json_dict(["A-A"])


def test_utility_json_true_value_rejected():
    # true used to be read as the utility 1.0
    obj = individual_json(UtilityVector)
    obj["values"]["A-A"] = True
    with pytest.raises(MalformedProfile) as exc:
        UtilityVector.from_json_dict(obj)
    message = "the value of A-A must be a number, got True"
    assert str(exc.value) == message == profile_error(UtilityVector, obj)


class TestUtilityValues:
    def test_held_in_universe_order(self):
        u3 = synthetic_universe(3)
        u = UtilityVector("p", u3, {u3[2]: 3.0, u3[0]: 1.0, u3[1]: 2.0})
        assert u.values == (1.0, 2.0, 3.0)
        assert u == UtilityVector("p", u3, [1.0, 2.0, 3.0])
        assert u.as_list() == [1.0, 2.0, 3.0]

    def test_hashable_and_immutable(self):
        u3 = synthetic_universe(3)
        a, b = vec(u3, {u3[0]: 1.0}, "a"), vec(u3, {u3[1]: 1.0}, "b")
        profile = Profile(u3, (a, b), "utility")
        assert hash(profile) == hash(Profile(u3, (a, b), "utility"))
        with pytest.raises(TypeError):
            a.values[0] = 5.0

    @pytest.mark.parametrize("values", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_values_in_order_must_cover_the_universe(self, values):
        with pytest.raises(UniverseMismatch):
            UtilityVector("p", synthetic_universe(3), values)

    @pytest.mark.parametrize("keys", ["missing", "extra", "swapped"])
    def test_mapping_must_cover_the_universe(self, keys):
        u4 = synthetic_universe(4)
        u3, outside = u4[:3], u4[3]
        values = {
            "missing": dict.fromkeys(u3[:2], 1.0),
            "extra": dict.fromkeys(u4, 1.0),
            "swapped": dict.fromkeys(u3[:2] + (outside,), 1.0),
        }[keys]
        with pytest.raises(UniverseMismatch, match="values must cover the universe exactly"):
            UtilityVector("p", u3, values)


class TestNonFiniteUtilities:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_in_process(self, bad):
        u3 = synthetic_universe(3)
        with pytest.raises(NonFiniteUtility):
            vec(u3, {u3[1]: bad})

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejected_from_json(self, bad):
        u3 = synthetic_universe(3)
        obj = json.loads(
            json.dumps(vec(u3, {}).to_json_dict()).replace("0.0", bad, 1)
        )
        with pytest.raises(NonFiniteUtility):
            UtilityVector.from_json_dict(obj)

    def test_profile_json_with_opposite_infinities_rejected(self):
        # the utilitarian sum of inf and -inf used to fail inside math.fsum
        u3 = synthetic_universe(3)
        obj = Profile(u3, (vec(u3, {}, "a"), vec(u3, {}, "b")), "utility").to_json_dict()
        obj["individuals"][0]["values"][u3[0].render()] = math.inf
        obj["individuals"][1]["values"][u3[0].render()] = -math.inf
        with pytest.raises(NonFiniteUtility):
            Profile.from_json_dict(obj)


class TestSlots:
    def test_tier_index_per_universe_slot(self):
        u3 = synthetic_universe(3)
        r = RankingWithTies("p", u3, ((u3[2],), (u3[0], u3[1])))
        assert r.slots() == (1, 1, 0)
        assert r.slots() is r.slots()

    def test_cache_is_invisible(self):
        u3 = synthetic_universe(3)
        a = RankingWithTies("p", u3, ((u3[2],), (u3[0], u3[1])))
        b = RankingWithTies("p", u3, ((u3[2],), (u3[0], u3[1])))
        before = (repr(a), hash(a), a.to_json_dict())
        a.slots()
        assert a == b and hash(a) == hash(b)
        assert (repr(a), hash(a), a.to_json_dict()) == before

    def test_slots_are_no_field(self):
        # the constructor takes the three fields and nothing else
        assert [f.name for f in fields(RankingWithTies)] == ["owner", "universe", "tiers"]
        u2 = synthetic_universe(2)
        tiers = ((u2[1],), (u2[0],))
        with pytest.raises(TypeError):
            RankingWithTies("p", u2, tiers, (0, 1))
        r = RankingWithTies("p", u2, tiers)
        assert repr(r) == f"RankingWithTies(owner='p', universe={u2!r}, tiers={tiers!r})"
        assert r == RankingWithTies.from_slot_order("p", u2, (1, 0))


def _fisher_yates(rng: random.Random, items: list) -> list:
    """A shuffled copy of items by a hand-written Fisher-Yates shuffle,
    the reference that seeded draws are checked against."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def test_stdlib_draws_match_the_hand_written_ones():
    # seeded profiles and sampled audits draw with Random.shuffle and
    # Random.choice; the frozen digests hold only while those consume the
    # generator exactly as a hand-written Fisher-Yates and an index draw
    for seed in range(200):
        for m in (1, 2, 3, 4, 7, 12, 20, 50, 210):
            ours, ref = random.Random(seed), random.Random(seed)
            seq = list(range(m))
            for _ in range(3):
                shuffled = list(seq)
                ours.shuffle(shuffled)
                assert shuffled == _fisher_yates(ref, seq)
                assert ours.choice(seq) == seq[ref.randrange(len(seq))]
            assert ours.random() == ref.random()


class TestFromSlotOrder:
    """The slot-order constructor against the checked one it stands in for."""

    @pytest.mark.parametrize(
        "order",
        [
            [0, 0, 1],  # built tiers A-A, A-A, A-C before, with no A-D
            [0, 1, 5],  # raised a bare IndexError
            [0, 1],  # built two slots over three classes
            [0, 1, 2, 0],
            [],
        ],
    )
    def test_a_non_permutation_is_refused(self, order):
        with pytest.raises(ValueError, match="tiers must partition the universe"):
            RankingWithTies.from_slot_order("v1", synthetic_universe(3), order)

    @staticmethod
    def assert_same(universe, order):
        fast = RankingWithTies.from_slot_order("p", universe, order)
        checked = RankingWithTies.from_strict_order(
            "p", universe, tuple(universe[i] for i in order)
        )
        assert fast == checked
        assert fast.tiers == checked.tiers
        assert fast.slots() == checked.slots()
        assert hash(fast) == hash(checked) and repr(fast) == repr(checked)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_every_strict_order_up_to_five_classes(self, m):
        universe = synthetic_universe(m)
        for order in permutations(range(m)):
            self.assert_same(universe, order)

    def test_seeded_orders_over_all_classes(self):
        universe = synthetic_universe(210)
        rng = random.Random(7)
        for _ in range(50):
            self.assert_same(universe, _fisher_yates(rng, list(range(210))))


def reference_generate(spec: SynthSpec) -> Profile:
    """generate as it was written before it drew class indices: the same
    draws over lists of classes, each order through the checked ranking
    constructor."""
    universe = synthetic_universe(spec.m)
    rng = random.Random(spec.seed)
    owners = [f"v{i + 1}" for i in range(spec.n)]
    if spec.kind == "condorcet_cycle":
        trio, rest = list(universe[:3]), list(universe[3:])
        templates = [trio + rest, trio[1:] + trio[:1] + rest, trio[2:] + trio[:2] + rest]
        orders = [templates[i % 3] for i in range(spec.n)]
    elif spec.kind == "impartial_culture":
        orders = [_fisher_yates(rng, list(universe)) for _ in range(spec.n)]
    else:
        axis = _fisher_yates(rng, list(universe))
        orders = [_single_peaked_order(rng, axis) for _ in range(spec.n)]
    individuals = tuple(
        RankingWithTies.from_strict_order(owner, universe, tuple(order))
        for owner, order in zip(owners, orders)
    )
    return Profile(universe, individuals, "ordinal")


@pytest.mark.parametrize("kind", SYNTH_KINDS)
@pytest.mark.parametrize("m", [3, 10, 210])
def test_generate_draws_as_the_class_list_reference(kind, m):
    # the same profile for every seed shows the generator is consumed
    # exactly as before
    for seed in range(5):
        spec = SynthSpec(kind, m, 6, seed)
        got, want = generate(spec), reference_generate(spec)
        assert got == want
        assert [r.slots() for r in got.individuals] == [
            r.slots() for r in want.individuals
        ]
