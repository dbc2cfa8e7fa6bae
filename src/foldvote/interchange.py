"""Contact instances and their CSV interchange format, numpy-free.

`extract` writes one CSV per structure and `rank` reads it back, so
ranking contacts needs neither the PDB parser nor numpy.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

from .aminoacids import InteractionClass
from .errors import MalformedContacts


class InteractionInstance(NamedTuple):
    """One residue pair in contact. A named tuple: its fields are
    read-only, and it iterates, hashes and compares as the plain tuple of
    its fields."""

    protein_id: str
    interaction_class: InteractionClass
    residues: tuple[tuple[str, int], tuple[str, int]]  # ((chain, seq), (chain, seq))
    distance: float
    score: float


CSV_HEADER = "protein_id,class,chain_i,seq_i,chain_j,seq_j,distance,score"


def instances_to_csv(instances: list[InteractionInstance]) -> str:
    """Render instances in the interchange CSV format. A field holding a
    comma, a quote, a newline or a carriage return is quoted, so such a
    protein id reads back, and a number prints as its Python float or int
    does (numpy scalars too)."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    rows = csv.writer(out, lineterminator="\n")
    # the writer quotes the characters of its own line terminator, "\n",
    # so a row holding a "\r" has every field quoted instead
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for pid, cls, ((ci, si), (cj, sj)), distance, score in instances:
        row = [pid, cls.render(), ci, si, cj, sj, distance, score]
        (quoted if "\r" in pid + ci + cj else rows).writerow(row)
    return out.getvalue()


def instances_from_csv(text: str) -> list[InteractionInstance]:
    """Read instances back; blank lines are skipped. A wrong header raises
    MalformedContacts, as does a line the CSV reader cannot split (a bare
    carriage return outside quotes), a row whose field count is not the
    header's, whose fields do not parse, or whose distance is not finite
    and >= 0 or score not finite, naming its line."""
    reader = csv.reader(io.StringIO(text))
    rows = _split(reader)
    expected = CSV_HEADER.split(",")
    header = next(rows, None)
    if header != expected:
        raise MalformedContacts(
            f"bad instance CSV header: {header}, expected {expected}"
        )
    out = []
    for row in rows:
        if not row:
            continue
        if len(row) != len(expected):
            raise MalformedContacts(
                f"line {reader.line_num}: {len(row)} fields, expected {len(expected)}"
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
            if not 0.0 <= instance.distance < math.inf:
                raise ValueError(f"distance must be finite and >= 0, got {distance}")
            if not math.isfinite(instance.score):
                raise ValueError(f"score must be finite, got {score}")
        except ValueError as exc:
            raise MalformedContacts(f"line {reader.line_num}: {exc}") from None
        out.append(instance)
    return out


def _split(reader):
    """The reader's rows, its csv.Error raised as MalformedContacts."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedContacts(f"line {reader.line_num}: {exc}") from None
