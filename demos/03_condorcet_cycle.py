"""
Majority aggregation and the Condorcet cycle
=============================================

Pairwise majority is the most natural way to merge rankings, and on
most profiles it works. On the three-rotation template it returns an
intransitive relation: X beats Y beats Z beats X, so no global
ranking exists at all.
"""

from foldvote.profiles import SynthSpec, generate
from foldvote.rules import borda, majority_tournament, may_rule

profile = generate(SynthSpec("condorcet_cycle", m=3, n=3))
x, y, z = profile.universe

print("the template profile:")
for ind in profile.individuals:
    order = " > ".join(c.render() for tier in ind.tiers for c in tier)
    print(f"  {ind.owner}: {order}")

counts = majority_tournament(profile)
print("\npairwise win counts:")
for i, a in enumerate(profile.universe):
    for j, b in enumerate(profile.universe):
        if i < j:
            print(f"  {a.render()} vs {b.render()}: {counts[i][j]}-{counts[j][i]}")

outcome = may_rule(profile)
print(f"\nmajority transitive: {outcome.transitive}")
print(f"cycle witness: {[c.render() for c in outcome.cycle_witness]}")

# positional scoring sidesteps the cycle but only by declaring a
# three-way tie; the disagreement has nowhere to go
b = borda(profile)
print(f"\nborda tiers: {[[c.render() for c in t] for t in b.ranking.tiers]}")

# random profiles cycle too, a few percent of the time at this size
cycles = 0
for seed in range(200):
    p = generate(SynthSpec("impartial_culture", 3, 3, seed=seed))
    if not may_rule(p).transitive:
        cycles += 1
print(f"\ncycles in 200 random 3x3 profiles: {cycles}")
