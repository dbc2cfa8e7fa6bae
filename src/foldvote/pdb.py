"""Minimal fixed-column PDB reader geared to residue-level contact work.

Only ATOM records are honored; HETATM, waters, and everything after the
first ENDMDL are ignored. Alternate locations keep the blank/'A'
conformer and nonstandard residues are dropped. A (chain, resSeq) belongs
to the first residue claiming it, told apart by residue name and
insertion code: the records of an inserted residue (52A after 52) or of
a duplicated number are dropped.

A Residue holds its one-letter code, its residue number, ``atoms`` (the
kept atom names, in file order) and ``xyz``, one float64 array of shape
(len(atoms), 3) whose row k holds the coordinates of atoms[k].
``atom(name)`` returns the row of the first atom so named, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aminoacids import THREE_TO_ONE
from .errors import EmptyStructure, MalformedRecord, MissingAtom

# PDB format v3.3, 0-based column slices.
_NAME = slice(12, 16)      # atom name
_ALTLOC = slice(16, 17)
_RESNAME = slice(17, 20)
_CHAIN = slice(21, 22)
_RESSEQ = slice(22, 26)
_ICODE = slice(26, 27)
_X = slice(30, 38)
_Y = slice(38, 46)
_Z = slice(46, 54)

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


def _parse_atom_line(
    line: str,
) -> tuple[str, str, str, str, int, str, list[float]]:
    # A line claiming to be ATOM must satisfy the fixed-column grammar.
    if len(line) < 54:
        raise MalformedRecord(f"ATOM line shorter than 54 columns: {line!r}")
    try:
        seq = int(line[_RESSEQ])
        xyz = [float(line[_X]), float(line[_Y]), float(line[_Z])]
    except ValueError as exc:
        raise MalformedRecord(f"unparseable ATOM fields: {line!r}") from exc
    if not all(map(math.isfinite, xyz)):
        raise MalformedRecord(f"non-finite coordinate in ATOM line: {line!r}")
    name = line[_NAME].strip()
    altloc = line[_ALTLOC]
    resname = line[_RESNAME].strip()
    chain = line[_CHAIN]
    return name, altloc, resname, chain, seq, line[_ICODE], xyz


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

    for line in text.splitlines():
        record = line[:6]
        if record.startswith("ENDMDL"):
            break  # first model only
        if not record.startswith("ATOM"):
            continue
        name, altloc, resname, chain, seq, icode, xyz = _parse_atom_line(line)
        if altloc not in (" ", "A", ""):
            continue
        if claimed.setdefault((chain, seq), (resname, icode)) != (resname, icode):
            continue  # an insertion or duplicate; the first occurrence keeps it
        one = THREE_TO_ONE.get(resname)
        if one is None:
            continue  # nonstandard residue
        _, names, coords = chains.setdefault(chain, {}).setdefault(seq, (one, [], []))
        names.append(name)
        coords.append(xyz)

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
