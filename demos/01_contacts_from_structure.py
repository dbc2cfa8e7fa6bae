"""
Reading a structure and extracting interaction instances
=========================================================

A protein structure is a list of residues with coordinates; two
residues closer than a threshold form an interaction instance of
their (unordered) amino-acid pair class. This walks the bundled
4-residue fixture end to end.
"""

from foldvote.contacts import ContactConfig, Scorer, extract_instances
from foldvote.data import four_residue_pdb_path
from foldvote.pdb import parse_pdb, residue_distance

path = four_residue_pdb_path()
structure = parse_pdb(path.read_text(), "four_residue")

print(f"parsed {structure.id}: {structure.n_residues} residues")
for chain_id, res in structure.residues():
    x, y, z = res.atom("CA")
    print(
        f"  {res.one_letter_code} chain {chain_id} seq {res.seq_index}"
        f"  CA at ({x:.1f}, {y:.1f}, {z:.1f})"
    )

# pairwise C-alpha distances drive the contact decision
print("\npairwise C-alpha distances:")
residues = [r for _, r in structure.residues()]
for i in range(len(residues)):
    for j in range(i + 1, len(residues)):
        a, b = residues[i], residues[j]
        d = residue_distance(a, b, mode="c_alpha")
        print(
            f"  {a.one_letter_code}{a.seq_index} - "
            f"{b.one_letter_code}{b.seq_index}: {d:.1f} A"
        )

# default config: 8 A threshold, sequence separation >= 3, same chain only
config = ContactConfig(threshold_tau=8.0, mode="c_alpha", min_seq_separation=3)
instances = extract_instances(structure, config, Scorer())

print(f"\n{len(instances)} instances at tau={config.threshold_tau}:")
for inst in instances:
    print(
        f"  class {inst.interaction_class.render()}  "
        f"distance {inst.distance:.1f}  score {inst.score}"
    )

# tighten the threshold and both pairs drop out
tight = ContactConfig(threshold_tau=1.0, mode="c_alpha", min_seq_separation=3)
print(f"\nat tau=1.0: {len(extract_instances(structure, tight))} instances")
