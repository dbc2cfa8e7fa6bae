"""Protein-contact preference construction and social-choice aggregation.

The package splits into a structural side (PDB parsing, contact
extraction) and a collective side (utility vectors, rankings, voting
rules over profiles, axiom audits with machine-checkable witnesses,
domain restrictions, the spherical continuity probe); they share only
the interaction classes of `aminoacids`.

Submodule attributes load lazily, and only the structural side imports
numpy; the contact CSV lives in the numpy-free `interchange`, so of the
commands only `extract` loads numpy.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    # errors
    "FoldvoteError": "errors",
    "BudgetExceeded": "errors",
    "InapplicableAxiom": "errors",
    # shared by both sides
    "InteractionClass": "aminoacids",
    "class_universe": "aminoacids",
    # structure side
    "parse_pdb": "pdb",
    "ProteinStructure": "pdb",
    "residue_distance": "pdb",
    "InteractionInstance": "interchange",
    "ContactConfig": "contacts",
    "Scorer": "contacts",
    "extract_instances": "contacts",
    "load_score_table": "contacts",
    "parse_score_table": "contacts",
    # collective side
    "UtilityVector": "preferences",
    "RankingWithTies": "preferences",
    "utility_from_instances": "preferences",
    "ordinal_from_utility": "preferences",
    "Profile": "profiles",
    "SynthSpec": "profiles",
    "generate": "profiles",
    "kendall_distance": "profiles",
    "profile_distance": "profiles",
    "synthetic_universe": "profiles",
    "AggregationOutcome": "rules",
    "UtilityTransform": "rules",
    "apply_transform": "rules",
    "borda": "rules",
    "dictator": "rules",
    "kemeny": "rules",
    "may_rule": "rules",
    "outcome_distance": "rules",
    "utilitarian": "rules",
    "AuditResult": "audit",
    "AxiomId": "audit",
    "Rule": "rules",
    "arrow_audit": "audit",
    "exhaustive": "audit",
    "continuity_check": "audit",
    "may_coincidence_check": "audit",
    "sampled": "audit",
    "standard_rules": "rules",
    "verify_result": "audit",
    "find_axis": "restrictions",
    "is_quasi_transitive": "restrictions",
    "is_single_peaked_on": "restrictions",
    "DirectionPoint": "directions",
    "DiscontinuityWitness": "directions",
    "aggregate_directions": "directions",
    "continuity_probe": "directions",
    "direction_from_utility": "directions",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for next access
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
