"""Seeded input generators for the benchmark.

Everything here depends only on the seed it is given, so one seed always
yields the same structures and profiles. The program under test only
ever sees the results: PDB text, rankings, utility vectors and synthetic
profile specs.
"""

from __future__ import annotations

import numpy as np

# Three-letter codes of the twenty standard residues and their heavy-atom
# counts, so generated residues carry realistic atom loads.
HEAVY_ATOMS = {
    "ALA": 5, "ARG": 11, "ASN": 8, "ASP": 8, "CYS": 6, "GLN": 9, "GLU": 9,
    "GLY": 4, "HIS": 10, "ILE": 8, "LEU": 8, "LYS": 9, "MET": 8, "PHE": 11,
    "PRO": 7, "SER": 6, "THR": 7, "TRP": 14, "TYR": 12, "VAL": 7,
}
RESIDUES = tuple(sorted(HEAVY_ATOMS))
SIDE_NAMES = ("CB", "CG", "CD", "CE", "CZ", "NZ", "CH2", "OH", "NE", "CZ2")

CA_STEP = 3.8  # Angstrom between consecutive C-alpha atoms
CA_CLASH = 4.0  # closest non-bonded C-alpha approach the walk accepts

# The ingest corpus. Sizes, distance modes and record kinds are fixed per
# slot; the seed only moves atoms and picks residue types. heavy_min runs
# only on small chains because its cost is quadratic in atoms.
#   (residues, mode, chains, insertion codes, second MODEL)
CORPUS = (
    (25, "c_alpha", 1, False, False),
    (30, "heavy_min", 1, True, False),
    (40, "centroid", 1, False, True),
    (50, "c_alpha", 1, False, False),
    (60, "heavy_min", 1, False, False),
    (70, "c_alpha", 2, True, False),
    (80, "c_alpha", 1, False, False),
    (95, "heavy_min", 1, False, True),
    (110, "c_alpha", 1, False, False),
    (130, "centroid", 1, False, False),
    (150, "c_alpha", 2, False, False),
    (175, "c_alpha", 1, True, False),
    (200, "c_alpha", 1, False, True),
    (240, "centroid", 1, True, False),
    (290, "c_alpha", 3, False, False),
    (350, "c_alpha", 1, False, False),
    (420, "c_alpha", 1, False, False),
    (520, "centroid", 1, False, True),
    (680, "c_alpha", 2, False, False),
    (1050, "c_alpha", 1, True, False),
)


def _walk(rng: np.random.Generator, n: int, centre: np.ndarray) -> np.ndarray:
    """A compact C-alpha trace: 3.8 A steps inside a globule of protein
    density (about 130 A^3 per residue), avoiding C-alpha clashes."""
    radius = (3 * 130.0 * n / (4 * np.pi)) ** (1 / 3)
    pos = np.zeros((n, 3))
    tries = rng.normal(size=(n, 8, 3))
    tries /= np.sqrt((tries**2).sum(axis=2, keepdims=True))
    clash2 = CA_CLASH**2
    for i in range(1, n):
        prev = pos[i - 1]
        d = tries[i]
        r = float(np.sqrt(prev @ prev))
        if r > 0.7 * radius:
            d = d - (r / radius) ** 3 * prev / r
            d /= np.sqrt((d**2).sum(axis=1, keepdims=True))
        cand = prev + CA_STEP * d
        if i > 1:
            diff = cand[:, None, :] - pos[None, : i - 1, :]
            gaps = (diff**2).sum(axis=2).min(axis=1)
            ok = gaps >= clash2
            pos[i] = cand[ok.argmax()] if ok.any() else cand[gaps.argmax()]
        else:
            pos[i] = cand[0]
    return pos + centre


def _atom(serial, name, altloc, resname, chain, seq, icode, x, y, z, record="ATOM"):
    return (
        f"{record:<6}{serial:>5} {name:<4}{altloc}{resname:>3} {chain}"
        f"{seq:>4}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}"
        f"  1.00 20.00          {name[0]:>2}"
    )


def structure(rng: np.random.Generator, slot: int) -> str:
    """PDB text for one corpus slot.

    Carries the record kinds real files do: several heavy atoms per
    residue, HETATM ligand and waters, altloc B conformers, insertion
    codes and, for some slots, a second MODEL. An inserted residue never
    shares its predecessor's name: foldvote.pdb merges such a pair
    (ROADMAP, known defects), and every benchmark operation must succeed.
    """
    n_res, _mode, n_chains, insertions, two_models = CORPUS[slot]
    sizes = [n_res // n_chains] * n_chains
    sizes[0] += n_res - sum(sizes)
    lines = [f"HEADER    SYNTHETIC STRUCTURE {slot:>3}"]
    models = []
    serial = 0
    chain_atoms = []
    for c, size in enumerate(sizes):
        chain = "ABC"[c]
        ca = _walk(rng, size, np.array([60.0 * c, 0.0, 0.0]))
        names = rng.choice(RESIDUES, size=size)
        # residue numbering: start at 1; with insertion codes, every 17th
        # residue is an inserted one sharing its predecessor's number (and
        # is dropped by the parser, which keeps the first occurrence)
        numbering = []
        seq, ins = 0, 0
        for k in range(size):
            if insertions and k % 17 == 16:
                numbering.append((seq, "ABCDEFGH"[ins % 8]))
                if names[k] == names[k - 1]:
                    names[k] = RESIDUES[(RESIDUES.index(names[k]) + 1) % len(RESIDUES)]
                ins += 1
            else:
                seq += 1
                numbering.append((seq, " "))
        backbone = ca[:, None, :] + rng.normal(scale=0.9, size=(size, 3, 3))
        outward = rng.normal(size=(size, 3))
        outward /= np.linalg.norm(outward, axis=1, keepdims=True)
        steps = 1.5 * outward[:, None, :] + rng.normal(scale=0.4, size=(size, 10, 3))
        side = ca[:, None, :] + np.cumsum(steps, axis=1)
        altlocs = (rng.random(size) < 0.04).tolist()
        bb, cal, sd = backbone.tolist(), ca.tolist(), side.tolist()
        records = []
        for k in range(size):
            resname = str(names[k])
            seq, icode = numbering[k]
            n_side = HEAVY_ATOMS[resname] - 4
            atoms = [("N", bb[k][0]), ("CA", cal[k]), ("C", bb[k][1]),
                     ("O", bb[k][2])]
            atoms.extend((SIDE_NAMES[s], sd[k][s]) for s in range(n_side))
            for name, xyz in atoms:
                if altlocs[k] and name not in ("N", "CA", "C", "O"):
                    records.append((name, "A", resname, chain, seq, icode, xyz))
                    shifted = [v + 0.8 for v in xyz]
                    records.append((name, "B", resname, chain, seq, icode, shifted))
                else:
                    records.append((name, " ", resname, chain, seq, icode, xyz))
        chain_atoms.append(records)

    het = []
    ligand_centre = rng.normal(scale=4.0, size=3)
    for k in range(12):
        xyz = (ligand_centre + rng.normal(size=3)).tolist()
        het.append(("C" + str(k + 1), "HEM", xyz))
    waters = rng.normal(scale=(3 * 130.0 * n_res / (4 * np.pi)) ** (1 / 3),
                        size=(max(4, n_res // 10), 3)).tolist()

    for model in range(2 if two_models else 1):
        jitter = 0.0 if model == 0 else 0.5
        body = []
        for records in chain_atoms:
            for name, altloc, resname, chain, seq, icode, (x, y, z) in records:
                serial += 1
                body.append(_atom(serial, name, altloc, resname, chain, seq,
                                  icode, x + jitter, y + jitter, z + jitter))
            serial += 1
            last = records[-1]
            body.append(f"TER   {serial:>5}      {last[2]:>3} {last[3]}{last[4]:>4}")
        for name, resname, xyz in het:
            serial += 1
            body.append(_atom(serial, name, " ", resname, "A", 900, " ", *xyz,
                              record="HETATM"))
        for k, xyz in enumerate(waters):
            serial += 1
            body.append(_atom(serial, "O", " ", "HOH", "A", 1000 + k, " ", *xyz,
                              record="HETATM"))
        models.append(body)

    if two_models:
        for m, body in enumerate(models):
            lines.append(f"MODEL     {m + 1:>4}")
            lines.extend(body)
            lines.append("ENDMDL")
    else:
        lines.extend(models[0])
    lines.append("END")
    return "\n".join(lines) + "\n"


def corpus(seed: int) -> list[str]:
    """PDB text for every corpus slot."""
    rng = np.random.default_rng([seed, 1])
    return [structure(rng, slot) for slot in range(len(CORPUS))]


def sparse_counts(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """n x m count-like utilities as extraction produces: most classes
    never seen, a few seen often, so rankings have a long zero tier and
    many small ties."""
    seen = rng.random((n, m)) < 0.3
    seen[np.arange(n), rng.integers(m, size=n)] = True  # no all-zero rows
    counts = rng.geometric(0.35, size=(n, m)) * seen
    return counts.astype(float)


def single_peaked(rng: np.random.Generator, axis: tuple[int, ...], n: int) -> list[list[int]]:
    """n strict orders single-peaked on a fixed axis: each walks out from
    a random peak, taking the left or right neighbour at random."""
    orders = []
    m = len(axis)
    for _ in range(n):
        peak = int(rng.integers(m))
        order, left, right = [axis[peak]], peak - 1, peak + 1
        while left >= 0 or right < m:
            if right >= m or (left >= 0 and rng.random() < 0.5):
                order.append(axis[left])
                left -= 1
            else:
                order.append(axis[right])
                right += 1
        orders.append(order)
    return orders


def tiers_from_values(values: np.ndarray) -> list[list[int]]:
    """Class indices grouped into tiers by descending value, ties kept in
    index order."""
    tiers: dict[float, list[int]] = {}
    for idx in sorted(range(len(values)), key=lambda i: (-values[i], i)):
        tiers.setdefault(float(values[idx]), []).append(idx)
    return [tiers[v] for v in sorted(tiers, reverse=True)]
