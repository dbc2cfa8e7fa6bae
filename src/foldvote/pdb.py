"""Minimal fixed-column PDB reader geared to residue-level contact work.

Only ATOM records are honored; HETATM, waters, and everything after the
first ENDMDL are ignored. Alternate locations keep the blank/'A'
conformer and nonstandard residues are dropped. A (chain, resSeq) belongs
to the first residue claiming it, told apart by residue name and
insertion code: the records of an inserted residue (52A after 52) or of
a duplicated number are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class AtomRecord:
    name: str
    position: np.ndarray  # shape (3,), float64


@dataclass(eq=False)
class Residue:
    one_letter_code: str
    seq_index: int
    atoms: list[AtomRecord] = field(default_factory=list)

    def atom(self, name: str) -> AtomRecord | None:
        for a in self.atoms:
            if a.name == name:
                return a
        return None

    def coordinates(self) -> np.ndarray:
        return np.stack([a.position for a in self.atoms])


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
) -> tuple[str, str, str, str, int, str, np.ndarray]:
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
    return name, altloc, resname, chain, seq, line[_ICODE], np.array(xyz)


def parse_pdb(text: str, id: str) -> ProteinStructure:
    """Parse PDB text into a ProteinStructure.

    Raises MalformedRecord on a bad ATOM line and EmptyStructure when no
    standard residue survives the filters.
    """
    chains: dict[str, dict[int, Residue]] = {}
    # (chain, resSeq) pairs claimed by a (residue name, insertion code)
    # we skipped or by an earlier occurrence; later claimants are dropped.
    claimed: dict[tuple[str, int], tuple[str, str]] = {}

    for line in text.splitlines():
        record = line[:6]
        if record.startswith("ENDMDL"):
            break  # first model only
        if not record.startswith("ATOM"):
            continue
        name, altloc, resname, chain, seq, icode, pos = _parse_atom_line(line)
        if altloc not in (" ", "A", ""):
            continue
        if claimed.setdefault((chain, seq), (resname, icode)) != (resname, icode):
            continue  # an insertion or duplicate; the first occurrence keeps it
        one = THREE_TO_ONE.get(resname)
        if one is None:
            continue  # nonstandard residue
        residue = chains.setdefault(chain, {}).get(seq)
        if residue is None:
            residue = Residue(one_letter_code=one, seq_index=seq)
            chains[chain][seq] = residue
        residue.atoms.append(AtomRecord(name=name, position=pos))

    ordered = [
        (chain_id, [chains[chain_id][seq] for seq in sorted(chains[chain_id])])
        for chain_id in chains
    ]
    ordered = [(cid, res) for cid, res in ordered if res]
    if not any(res for _, res in ordered):
        raise EmptyStructure(f"no standard residues in {id!r}")
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
        return float(point_distance(ca_a.position, ca_b.position))
    if mode == "centroid":
        ca = a.coordinates().mean(axis=0)
        cb = b.coordinates().mean(axis=0)
        return float(point_distance(ca, cb))
    if mode == "heavy_min":
        pa, pb = a.coordinates(), b.coordinates()
        diffs = pa[:, None, :] - pb[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=2)).min())
    raise ValueError(f"unknown distance mode {mode!r}")
