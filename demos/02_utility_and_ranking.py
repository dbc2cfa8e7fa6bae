"""
From instances to a utility vector to a ranking
================================================

Internal aggregation: one protein's interaction instances become a
utility value per class (sum, mean, or count of instance scores),
and the utilities become an ordered ranking, optionally grouping
near-equal values into indifference tiers.
"""

from foldvote.contacts import ContactConfig, Scorer, class_universe, extract_instances
from foldvote.data import four_residue_pdb_path
from foldvote.pdb import parse_pdb
from foldvote.preferences import ordinal_from_utility, utility_from_instances

structure = parse_pdb(four_residue_pdb_path().read_text(), "four_residue")
instances = extract_instances(structure, ContactConfig(), Scorer())

# the full universe is every unordered amino-acid pair: 210 classes
universe = class_universe(include_homopairs=True)
print(f"universe size: {len(universe)} classes")

utility = utility_from_instances(instances, universe, combine="sum")
# values are held in universe order: values[i] is the utility of universe[i]
nonzero = {c.render(): v for c, v in zip(universe, utility.values) if v != 0.0}
print(f"nonzero utilities for {utility.protein_id}: {nonzero}")

ranking = ordinal_from_utility(utility)
print(f"top tier: {[c.render() for c in ranking.tiers[0]]}")
print(f"tier count: {len(ranking.tiers)}")

# tie grouping: utilities within epsilon collapse into one tier.
# the chain rule is single-linkage, so 1.0 and 2.0 share a tier when
# 1.5 bridges them at epsilon 0.5
from foldvote.preferences import UtilityVector

u3 = universe[:3]
spread = UtilityVector("toy", u3, dict(zip(u3, (1.0, 1.5, 2.0))))
for eps in (0.0, 0.5):
    tiers = ordinal_from_utility(spread, tie_epsilon=eps).tiers
    shape = [[c.render() for c in t] for t in tiers]
    print(f"tie_epsilon={eps}: {shape}")

# rankings ignore any order-preserving rescaling of the utilities
doubled = UtilityVector("toy", u3, tuple(2 * v + 7 for v in spread.values))
assert ordinal_from_utility(doubled).tiers == ordinal_from_utility(spread).tiers
print("ranking invariant under u -> 2u + 7")
