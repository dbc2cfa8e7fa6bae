"""
Escaping the cycle: single-peaked domains
==========================================

The impossibility results assume every ranking can occur. When all
individuals' preferences are unimodal along one shared axis, majority
aggregation with an odd panel is guaranteed transitive: the median
peak wins every pairwise vote it should.
"""

from foldvote.profiles import SynthSpec, generate
from foldvote.restrictions import find_axis, is_quasi_transitive, is_single_peaked_on
from foldvote.rules import may_rule

profile = generate(SynthSpec("single_peaked", m=5, n=7, seed=1))

axis = find_axis(profile)
print(f"recovered axis: {[c.render() for c in axis]}")
report = is_single_peaked_on(profile, axis)
print(f"single-peaked on it: {report.single_peaked}")

outcome = may_rule(profile)
print(f"majority transitive: {outcome.transitive}")
print(f"tiers: {[[c.render() for c in t] for t in outcome.ranking.tiers]}")

# the guarantee holds across seeds, not just this one
ok = sum(
    may_rule(generate(SynthSpec("single_peaked", 4, 5, seed=s))).transitive
    for s in range(300)
)
print(f"\ntransitive outcomes on 300 single-peaked profiles: {ok}/300")

# the cycle template is the canonical profile with no axis at all
template = generate(SynthSpec("condorcet_cycle", 3, 3))
print(f"cycle template axis: {find_axis(template)}")

# quasi-transitivity is the weaker escape: strict preference behaves
# even when indifference chains do not
from foldvote.rules import AggregationOutcome

u = template.universe
relation = (
    (True, True, True),
    (True, True, True),
    (False, True, True),
)
odd = AggregationOutcome("toy", u, relation)
print(
    f"\ntoy relation transitive: {odd.transitive}, "
    f"quasi-transitive: {is_quasi_transitive(odd)}"
)
