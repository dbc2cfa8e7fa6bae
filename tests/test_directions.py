"""Spherical preference aggregation: normalization, means, discontinuity."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from foldvote.directions import (
    DirectionPoint,
    aggregate_directions,
    continuity_probe,
    direction_from_utility,
    euclidean,
)
from foldvote.errors import AntipodalDegenerate, ZeroVector
from foldvote.preferences import UtilityVector
from foldvote.profiles import synthetic_universe

U2 = synthetic_universe(2)


def uvec(*values, universe=None):
    universe = universe or synthetic_universe(len(values))
    return UtilityVector("p", universe, dict(zip(universe, values)))


def random_point(rng, dim):
    while True:
        coords = tuple(rng.gauss(0.0, 1.0) for _ in range(dim))
        norm = math.sqrt(math.fsum(x * x for x in coords))
        if norm > 1e-6:
            return DirectionPoint(tuple(x / norm for x in coords))


class TestDirectionFromUtility:
    def test_three_four_five(self):
        d = direction_from_utility(uvec(3.0, 4.0))
        assert d.coordinates == (0.6, 0.8)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            direction_from_utility(uvec(0.0, 0.0))

    def test_scale_invariance(self):
        a = direction_from_utility(uvec(3.0, 4.0))
        b = direction_from_utility(uvec(6.0, 8.0))
        assert a.coordinates == b.coordinates

    def test_negative_components_survive(self):
        d = direction_from_utility(uvec(-3.0, 4.0))
        assert d.coordinates == (-0.6, 0.8)

    @pytest.mark.parametrize("big", [1e200, 1e154, 1.7e308])
    def test_squares_past_the_float_range(self, big):
        # the squares overflow one by one (1e200) or only summed (1e154);
        # divided by its largest entry the vector reads (1, -1) or (0.75, 1),
        # exactly
        d = direction_from_utility(uvec(big, -big))
        assert d.coordinates == direction_from_utility(uvec(1.0, -1.0)).coordinates
        d = direction_from_utility(uvec(0.75 * 2.0**1000, 2.0**1000))
        assert d.coordinates == (0.6, 0.8)


class TestDirectionPoint:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            DirectionPoint((2.0, 0.0))
        with pytest.raises(ValueError):
            DirectionPoint((0.0, 0.0))

    @pytest.mark.parametrize("coords", [(math.nan, 0.0), (math.nan, math.nan)])
    def test_rejects_nan(self, coords):
        with pytest.raises(ValueError, match=r"^not a unit vector \(norm nan\)$"):
            DirectionPoint(coords)

    def test_accepts_unit(self):
        assert DirectionPoint((1.0, 0.0)).dimension == 2


class TestAggregate:
    def test_diagonal_mean(self):
        out = aggregate_directions(
            [DirectionPoint((1.0, 0.0)), DirectionPoint((0.0, 1.0))]
        )
        h = math.sqrt(2.0) / 2.0
        assert euclidean(out.coordinates, (h, h)) < 1e-15

    def test_unanimity(self):
        rng = random.Random(3)
        for _ in range(200):
            v = random_point(rng, rng.randint(2, 5))
            n = rng.randint(1, 6)
            out = aggregate_directions([v] * n)
            assert euclidean(out.coordinates, v.coordinates) < 1e-12

    def test_antipodal_degenerate(self):
        with pytest.raises(AntipodalDegenerate):
            aggregate_directions(
                [DirectionPoint((1.0, 0.0)), DirectionPoint((-1.0, 0.0))]
            )

    def test_output_is_unit(self):
        rng = random.Random(9)
        for _ in range(200):
            dim = rng.randint(2, 6)
            pts = [random_point(rng, dim) for _ in range(rng.randint(1, 7))]
            try:
                out = aggregate_directions(pts)
            except AntipodalDegenerate:
                continue
            norm = math.sqrt(math.fsum(x * x for x in out.coordinates))
            assert abs(norm - 1.0) <= 1e-9

    def test_exact_permutation_invariance(self):
        # fsum makes the coordinate sums order-independent, so the
        # aggregate must be bitwise identical under reordering
        rng = random.Random(17)
        for _ in range(300):
            dim = rng.randint(2, 5)
            pts = [random_point(rng, dim) for _ in range(rng.randint(2, 8))]
            shuffled = list(pts)
            rng.shuffle(shuffled)
            try:
                a = aggregate_directions(pts)
            except AntipodalDegenerate:
                continue
            b = aggregate_directions(shuffled)
            assert a.coordinates == b.coordinates

    def test_empty_and_mixed_dimension(self):
        with pytest.raises(ValueError):
            aggregate_directions([])
        with pytest.raises(ValueError):
            aggregate_directions(
                [DirectionPoint((1.0, 0.0)), DirectionPoint((0.0, 0.0, 1.0))]
            )


class TestContinuityProbe:
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_epsilon_sweep(self, eps):
        w = continuity_probe(2, eps)
        assert w.input_distance <= 2 * eps
        assert w.output_distance >= 1.0
        assert w.verify()

    def test_higher_dimension(self):
        for dim in (3, 5, 10):
            w = continuity_probe(dim, 1e-3, seed=4)
            assert w.dimension == dim
            assert len(w.output_a.coordinates) == dim
            assert w.input_distance <= 2e-3
            assert w.output_distance >= 1.0
            assert w.verify()

    def test_profiles_differ_in_one_voter(self):
        w = continuity_probe(2, 1e-3)
        assert w.profile_a[0] == w.profile_b[0]
        assert w.profile_a[1] != w.profile_b[1]

    def test_deterministic(self):
        a = continuity_probe(4, 1e-4, seed=12)
        b = continuity_probe(4, 1e-4, seed=12)
        assert a.to_json_dict() == b.to_json_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            continuity_probe(1, 1e-3)
        with pytest.raises(ValueError):
            continuity_probe(2, 0.5)
        with pytest.raises(ValueError):
            continuity_probe(2, 0.0)

    def test_json_roundtrippable_shape(self):
        d = continuity_probe(2, 1e-3).to_json_dict()
        assert set(d) == {
            "dimension",
            "epsilon",
            "seed",
            "profile_a",
            "profile_b",
            "output_a",
            "output_b",
            "input_distance",
            "output_distance",
        }


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_aggregate_near_inputs_random(seed):
    # away from antipodal degeneracy the aggregate lies within the cone
    # spanned by the inputs: dot with the mean stays positive for all
    rng = random.Random(seed)
    base = random_point(rng, 3)
    pts = []
    for _ in range(4):
        jitter = tuple(
            c + rng.uniform(-0.05, 0.05) for c in base.coordinates
        )
        norm = math.sqrt(math.fsum(x * x for x in jitter))
        pts.append(DirectionPoint(tuple(x / norm for x in jitter)))
    out = aggregate_directions(pts)
    for p in pts:
        dot = math.fsum(a * b for a, b in zip(out.coordinates, p.coordinates))
        assert dot > 0.9
