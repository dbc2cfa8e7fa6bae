"""Contact instances and their CSV interchange format, numpy-free.

`extract` writes one CSV per structure and `rank` reads it back, so
ranking contacts needs neither the PDB parser nor numpy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .aminoacids import InteractionClass
from .errors import MalformedContacts


@dataclass(frozen=True)
class InteractionInstance:
    protein_id: str
    interaction_class: InteractionClass
    residues: tuple[tuple[str, int], tuple[str, int]]  # ((chain, seq), (chain, seq))
    distance: float
    score: float


CSV_HEADER = "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score"


def instances_to_csv(instances: list[InteractionInstance]) -> str:
    """Render instances in the interchange CSV format."""
    lines = [CSV_HEADER]
    for inst in instances:
        (ci, si), (cj, sj) = inst.residues
        lines.append(
            f"{inst.protein_id},{inst.interaction_class.render()},"
            f"{ci},{si},{cj},{sj},{inst.distance!r},{inst.score!r}"
        )
    return "\n".join(lines) + "\n"


def instances_from_csv(text: str) -> list[InteractionInstance]:
    """Read instances back; blank lines are skipped, and a row whose
    field count is not the header's, or whose class label, residue
    numbers, distance or score do not parse, raises MalformedContacts
    naming its line."""
    rows = csv.reader(io.StringIO(text))
    expected = CSV_HEADER.split(",")
    header = next(rows, None)
    if header != expected:
        raise ValueError(f"bad instance CSV header: {header}, expected {expected}")
    out = []
    for row in rows:
        if not row:
            continue
        if len(row) != len(expected):
            raise MalformedContacts(
                f"line {rows.line_num}: {len(row)} fields, expected {len(expected)}"
            )
        protein_id, label, chain_i, seq_i, chain_j, seq_j, distance, score = row
        try:
            instance = InteractionInstance(
                protein_id=protein_id,
                interaction_class=InteractionClass.parse(label),
                residues=((chain_i, int(seq_i)), (chain_j, int(seq_j))),
                distance=float(distance),
                score=float(score),
            )
        except ValueError as exc:
            raise MalformedContacts(f"line {rows.line_num}: {exc}") from None
        out.append(instance)
    return out
