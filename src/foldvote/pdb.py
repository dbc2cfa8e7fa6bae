"""Minimal fixed-column PDB reader geared to residue-level contact work.

Only ATOM records are honored; HETATM, waters, and everything after the
first ENDMDL are ignored. Alternate locations keep the blank/'A'
conformer and nonstandard residues are dropped. A (chain, resSeq) belongs
to the first residue claiming it, told apart by residue name and
insertion code: the records of an inserted residue (52A after 52) or of
a duplicated number are dropped. Every ATOM line before the first ENDMDL
is checked in full (54 columns, an integer resSeq, three finite
coordinates) before any of these filters applies, so a malformed altloc
B, nonstandard or dropped line raises MalformedRecord all the same.

A Residue holds its one-letter code, its residue number, ``atoms`` (the
kept atom names, in file order) and ``xyz``, one float64 array of shape
(len(atoms), 3) whose row k holds the coordinates of atoms[k].
``atom(name)`` returns the row of the first atom so named, or None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aminoacids import THREE_TO_ONE
from .errors import EmptyStructure, MalformedRecord, MissingAtom

DISTANCE_MODES = ("c_alpha", "centroid", "heavy_min")


@dataclass(eq=False)
class Residue:
    one_letter_code: str
    seq_index: int
    atoms: tuple[str, ...]  # atom names in file order
    xyz: np.ndarray  # shape (len(atoms), 3), float64; row k is atoms[k]

    def atom(self, name: str) -> np.ndarray | None:
        """The coordinates of the first atom so named, or None."""
        return self.xyz[self.atoms.index(name)] if name in self.atoms else None


@dataclass(eq=False)
class ProteinStructure:
    """One parsed structure; treated as a single preference holder even
    when it contains several chains."""

    id: str
    chains: list[tuple[str, list[Residue]]]

    @property
    def n_residues(self) -> int:
        return sum(len(res) for _, res in self.chains)

    def residues(self) -> list[tuple[str, Residue]]:
        """All residues as (chain_id, residue), in chain order."""
        out = []
        for chain_id, residues in self.chains:
            out.extend((chain_id, r) for r in residues)
        return out


def parse_pdb(text: str, id: str) -> ProteinStructure:
    """Parse PDB text into a ProteinStructure.

    Raises MalformedRecord on a bad ATOM line and EmptyStructure when no
    standard residue survives the filters.
    """
    # chain -> resSeq -> (one-letter code, atom names, atom coordinates)
    chains: dict[str, dict[int, tuple[str, list, list]]] = {}
    # (chain, resSeq) pairs claimed by a (residue name, insertion code)
    # we skipped or by an earlier occurrence; later claimants are dropped.
    claimed: dict[tuple[str, int], tuple[str, str]] = {}
    # A residue's atoms usually come in one run of lines sharing columns
    # 17-26 (resName, chainID, resSeq, iCode). `run` holds those columns
    # of the last line past the altloc filter, and names/coords the lists
    # its atoms went to (None when its residue was dropped): a line with
    # the same columns meets the same claim and the same residue table,
    # so it goes to the same place without looking either up again.
    run = None
    names = coords = None

    # PDB format v3.3, 0-based columns: name 12-15, altLoc 16, resName
    # 17-19, chainID 21, resSeq 22-25, iCode 26, x 30-37, y 38-45, z 46-53.
    for line in text.splitlines():
        if not line.startswith("ATOM"):
            if line.startswith("ENDMDL"):
                break  # first model only
            continue
        # A line claiming to be ATOM must satisfy the fixed-column grammar,
        # whatever the filters below make of it.
        if len(line) < 54:
            raise MalformedRecord(f"ATOM line shorter than 54 columns: {line!r}")
        key = line[17:27]
        try:
            if key != run:  # the same text as the run's has parsed already
                seq = int(line[22:26])
            x, y, z = float(line[30:38]), float(line[38:46]), float(line[46:54])
        except ValueError as exc:
            raise MalformedRecord(f"unparseable ATOM fields: {line!r}") from exc
        # no %8.3f field reaches 1e8; NaN fails every comparison
        if not (-1e8 < x < 1e8 and -1e8 < y < 1e8 and -1e8 < z < 1e8):
            raise MalformedRecord(
                f"non-finite or huge (|v| >= 1e8) coordinate in ATOM line: {line!r}"
            )
        if line[16] not in " A":
            continue  # keep the blank or 'A' alternate location only
        if key != run:
            run = key
            resname, chain, icode = line[17:20].strip(), line[21], line[26]
            if claimed.setdefault((chain, seq), (resname, icode)) != (resname, icode):
                one = None  # an insertion or duplicate; the first occurrence keeps it
            else:
                one = THREE_TO_ONE.get(resname)  # None for a nonstandard residue
            if one is None:
                names = coords = None
            else:
                _, names, coords = chains.setdefault(chain, {}).setdefault(
                    seq, (one, [], [])
                )
        if names is not None:
            names.append(line[12:16].strip())
            coords.append((x, y, z))

    if not chains:
        raise EmptyStructure(f"no standard residues in {id!r}")
    ordered = [
        (chain_id, [
            Residue(one, seq, tuple(names), np.array(coords))
            for seq, (one, names, coords) in sorted(residues.items())
        ])
        for chain_id, residues in chains.items()
    ]
    return ProteinStructure(id=id, chains=ordered)


def point_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance along the last axis, the one expression extraction
    and residue_distance share (a 1-D norm without an axis rounds otherwise)."""
    return np.linalg.norm(a - b, axis=-1)


def residue_distance(a: Residue, b: Residue, mode: str = "c_alpha") -> float:
    """Distance between two residues under the given mode.

    c_alpha: CA-to-CA; centroid: unweighted atom centroids; heavy_min:
    minimum over all atom pairs.
    """
    if mode == "c_alpha":
        ca_a, ca_b = a.atom("CA"), b.atom("CA")
        if ca_a is None:
            raise MissingAtom(f"residue {a.seq_index} has no CA atom")
        if ca_b is None:
            raise MissingAtom(f"residue {b.seq_index} has no CA atom")
        return float(point_distance(ca_a, ca_b))
    if mode == "centroid":
        return float(point_distance(a.xyz.mean(axis=0), b.xyz.mean(axis=0)))
    if mode == "heavy_min":
        diffs = a.xyz[:, None, :] - b.xyz[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=2)).min())
    raise ValueError(f"unknown distance mode {mode!r}")
