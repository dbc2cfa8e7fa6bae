"""Residue contact extraction and interaction-class scoring.

An interaction class is an unordered pair of one-letter residue codes;
a contact instance is a concrete residue pair at spatial distance below
a threshold, labeled with its class and a score.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .aminoacids import LETTER_INDEX, ONE_LETTER, InteractionClass
from .aminoacids import class_universe  # noqa: F401  (re-exported)
from .errors import BadTable, MissingAtom
from .interchange import InteractionInstance
from .interchange import (  # noqa: F401  (re-exported)
    CSV_HEADER,
    instances_from_csv,
    instances_to_csv,
)
from .pdb import DISTANCE_MODES, ProteinStructure, point_distance


@dataclass(frozen=True)
class ContactConfig:
    threshold_tau: float = 8.0
    mode: str = "c_alpha"
    min_seq_separation: int = 3
    cross_chain: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.threshold_tau < math.inf:  # NaN fails too
            raise ValueError("threshold_tau must be positive and finite")
        if self.mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {self.mode!r}")
        if self.min_seq_separation < 0:
            raise ValueError("min_seq_separation must be >= 0")


@dataclass(frozen=True, eq=False)
class Scorer:
    """Scores an interaction class: its entry in a 20x20 table, indexed in
    ONE_LETTER order, or 1.0 (unit counting) when there is no table."""

    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.table is not None:
            # a table that cannot give every class a finite score is
            # refused here, not when extraction first scores a class;
            # nested lists too are read as an array, which score indexes
            table = np.asarray(self.table, dtype=float)
            if table.shape != (20, 20):
                raise ValueError(f"table must be 20x20, got shape {table.shape}")
            if not np.isfinite(table).all():
                raise ValueError("table has a non-finite entry (nan, inf or -inf)")
            object.__setattr__(self, "table", table)

    def score(self, cls: InteractionClass) -> float:
        if self.table is None:
            return 1.0
        return float(self.table[LETTER_INDEX[cls.first], LETTER_INDEX[cls.second]])


def parse_score_table(text: str, negate: bool = True) -> Scorer:
    """Parse a 20x20 symmetric score table from CSV text.

    Expected layout: header row of one-letter codes (leading empty cell),
    then 20 rows each starting with its code. A non-finite entry,
    asymmetry beyond 1e-9, any dimension/label problem or a line the CSV
    reader cannot split (a bare carriage return outside quotes) raises
    BadTable. The scorer holds the negated table unless `negate` is
    False, so contact energies, lower for a stronger contact, score high.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise BadTable(f"unreadable table CSV: {exc}") from None
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise BadTable("empty table")
    header = [c.strip() for c in rows[0][1:]]
    if sorted(header) != sorted(ONE_LETTER) or len(header) != 20:
        raise BadTable(f"header must hold the 20 residue codes, got {header}")
    if len(rows) != 21:
        raise BadTable(f"expected 20 data rows, got {len(rows) - 1}")
    table = np.full((20, 20), np.nan)
    seen = set()
    for row in rows[1:]:
        label = row[0].strip()
        if label not in LETTER_INDEX or label in seen:
            raise BadTable(f"bad or repeated row label {label!r}")
        seen.add(label)
        if len(row) != 21:
            raise BadTable(f"row {label} has {len(row) - 1} values, expected 20")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise BadTable(f"non-numeric value in row {label}") from exc
        for col_label, value in zip(header, values):
            table[LETTER_INDEX[label], LETTER_INDEX[col_label]] = value
    if not np.isfinite(table).all():
        raise BadTable("table has a non-finite entry (nan, inf or -inf)")
    with np.errstate(over="ignore"):  # 1e308 against -1e308 differs by inf
        asymmetry = np.abs(table - table.T).max()
    if asymmetry > 1e-9:
        raise BadTable("table is asymmetric beyond 1e-9")
    return Scorer(-table if negate else table)


def load_score_table(path: str | Path, negate: bool = True) -> Scorer:
    return parse_score_table(Path(path).read_text(), negate=negate)


def extract_instances(
    structure: ProteinStructure,
    config: ContactConfig = ContactConfig(),
    scorer: Scorer = Scorer(),
) -> list[InteractionInstance]:
    """All residue pairs in contact under the config's predicates, as
    InteractionInstance named tuples in residue-pair order.

    Intra-chain pairs must satisfy the sequence-separation minimum;
    cross-chain pairs (only when enabled) are exempt from it. Each pair
    lists its smaller (chain, seq) key first, and the list is sorted by
    that pair of keys; pairs with equal keys keep the pair search's
    row-major order, so extraction is deterministic.
    """
    flat = structure.residues()
    ii, jj, distances = _contacts(flat, config)
    keys = [(chain, res.seq_index) for chain, res in flat]
    letters = [res.one_letter_code for _, res in flat]
    # class code of a pair: letter index of i * 20 + letter index of j,
    # where a nonstandard letter has index -1
    letter_index = np.array([LETTER_INDEX.get(c, -1) for c in letters], dtype=np.intp)
    li, lj = letter_index[ii], letter_index[jj]
    nonstandard = np.flatnonzero((li < 0) | (lj < 0))
    if nonstandard.size:
        k = nonstandard[0]
        InteractionClass.of(letters[ii[k]], letters[jj[k]])  # raises
    codes = li * 20 + lj
    # each class present is looked up and scored once
    classes: list[InteractionClass | None] = [None] * 400
    scores = [0.0] * 400
    for code in np.flatnonzero(np.bincount(codes, minlength=400)).tolist():
        a, b = divmod(code, 20)
        cls = classes[code] = InteractionClass.of(ONE_LETTER[a], ONE_LETTER[b])
        scores[code] = scorer.score(cls)

    # dense rank of the (chain, seq) keys, equal keys sharing one; each
    # pair goes lower rank first, and the stable sort keeps row-major
    # order among pairs of equal keys
    dense = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = np.array([dense[key] for key in keys], dtype=np.intp)
    swap = rank[jj] < rank[ii]
    lo, hi = np.where(swap, jj, ii), np.where(swap, ii, jj)
    order = np.lexsort((rank[hi], rank[lo]))
    lo, hi, codes = lo[order].tolist(), hi[order].tolist(), codes[order].tolist()
    # the instances' fields as columns; _make builds each from its row
    # without the keyword handling of a call to the class
    key = keys.__getitem__
    rows = zip(
        repeat(structure.id),
        map(classes.__getitem__, codes),
        zip(map(key, lo), map(key, hi)),
        distances[order].tolist(),
        map(scores.__getitem__, codes),
    )
    return list(map(InteractionInstance._make, rows))


_BLOCK = 64  # rows of the residue-pair matrix handled at once
_SLACK = 1e-6  # Angstrom; the prefilters' allowance for rounding


def _points(flat: list, mode: str) -> tuple:
    """Per-residue arrays for the pair search: (sizes, reps, radii,
    atoms_i, atoms_j). A residue whose ``xyz`` is not of shape
    (len(atoms), 3) raises ValueError.

    The residues' rows are joined into one (atoms x 3) array, and every
    per-residue quantity is built from it by indexing, for parsed and
    caller-built residues alike. ``sizes`` holds each residue's atom count and ``reps`` its
    representative point, NaN when it has none: its first CA row for
    c_alpha, else its centroid. A centroid is the sum of a residue's
    rows, added one atom rank at a time to +0.0 (the first atom of every
    residue, then the second of every residue longer than one, ...), over
    its atom count: the order and start of ``xyz.mean(axis=0)`` on a
    C-ordered array, so each centroid equals it to the bit.
    ``np.add.reduceat`` sums in another order and rounds differently.

    For heavy_min, ``radii`` holds each residue's largest atom distance
    from its centroid, and ``atoms_i``/``atoms_j`` its atoms as (3, n,
    width) blocks, padded to a common width with +inf on a pair's first
    residue and -inf on its second, so padding is never nearest; for the
    other modes all three are None.
    """
    # rows are found by count alone, so a residue whose rows and atom
    # names disagree would read its neighbour's rows
    for _, res in flat:
        if res.xyz.shape != (len(res.atoms), 3):
            raise ValueError(
                f"residue {res.seq_index} has {len(res.atoms)} atom names "
                f"but coordinates of shape {res.xyz.shape}"
            )
    xyz = np.concatenate([res.xyz for _, res in flat], dtype=float)
    sizes = np.array([len(res.atoms) for _, res in flat])
    n, starts, width = len(flat), np.cumsum(sizes) - sizes, sizes.max()
    reps = np.full((n, 3), np.nan)
    if mode == "c_alpha":
        ca = np.array([res.atoms.index("CA") if "CA" in res.atoms else -1 for _, res in flat])
        has = np.flatnonzero(ca >= 0)
        reps[has] = xyz[starts[has] + ca[has]]
        return sizes, reps, None, None, None
    sums = np.zeros((n, 3))
    for rank in range(width):
        longer = np.flatnonzero(sizes > rank)
        sums[longer] += xyz[starts[longer] + rank]
    np.divide(sums, sizes[:, None], out=reps, where=sizes[:, None] > 0)
    if mode != "heavy_min":
        return sizes, reps, None, None, None
    nonempty = sizes > 0
    owner = np.repeat(np.arange(n), sizes)
    spread = np.sqrt(((xyz - reps[owner]) ** 2).sum(axis=1))
    radii = np.full(n, np.nan)
    radii[nonempty] = np.maximum.reduceat(spread, starts[nonempty])
    rank = np.arange(len(xyz)) - starts[owner]
    atoms_i = np.full((3, n, width), np.inf)
    atoms_j = np.full((3, n, width), -np.inf)
    atoms_i[:, owner, rank] = atoms_j[:, owner, rank] = xyz.T
    return sizes, reps, radii, atoms_i, atoms_j


def _contacts(
    flat: list, config: ContactConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices i < j of the residue pairs in contact, in row-major
    order, and their distances.

    The pair matrix is walked a block of rows at a time. A prefilter
    drops pairs whose representative points (CA or centroid, from
    ``_points``) lie farther apart than tau, or for heavy_min farther
    than tau plus both residues' bounding radii; the chain and
    separation predicates then apply to the survivors, and their exact
    distance is taken with the expressions of ``residue_distance``, so
    every float equals its value there. A residue without a CA
    (c_alpha), a finite centroid (centroid) or any atom (heavy_min)
    raises MissingAtom when it has a candidate partner.
    """
    n, tau, mode = len(flat), config.threshold_tau, config.mode
    if n == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
    chain_ids: dict[str, int] = {}
    chains = np.array([chain_ids.setdefault(c, len(chain_ids)) for c, _ in flat])
    seqs = np.array([res.seq_index for _, res in flat])
    index = np.arange(n)

    def allowed(i, j):
        apart = np.abs(seqs[i] - seqs[j]) >= config.min_seq_separation
        return np.where(chains[i] == chains[j], apart, config.cross_chain)

    sizes, reps, radii, atoms_i, atoms_j = _points(flat, mode)
    # a point that is missing (or not a number), or for heavy_min a
    # residue without atoms, is an error only for a residue with a
    # candidate partner
    if mode == "heavy_min":
        missing, what = sizes == 0, "atoms"
    else:
        missing, what = np.isnan(reps).any(axis=1), "CA atom"
    for k in np.flatnonzero(missing):
        if allowed(k, np.delete(index, k)).any():
            raise MissingAtom(f"residue {flat[k][1].seq_index} has no {what}")

    axes = [np.ascontiguousarray(reps[:, axis]) for axis in range(3)]
    found = []
    for lo in range(0, n, _BLOCK):
        gap = sum((x[lo : lo + _BLOCK, None] - x[None, lo:]) ** 2 for x in axes)
        if mode == "heavy_min":
            reach = radii[lo : lo + _BLOCK, None] + radii[None, lo:] + tau + _SLACK
            near = gap <= reach**2
        else:
            near = gap <= (tau + _SLACK) ** 2
        ii, jj = np.nonzero(near)
        ii, jj = ii + lo, jj + lo
        candidate = (jj > ii) & allowed(ii, jj)
        ii, jj = ii[candidate], jj[candidate]
        if mode == "heavy_min":
            atom_gaps = sum(
                (a[ii][:, :, None] - b[jj][:, None, :]) ** 2 for a, b in zip(atoms_i, atoms_j)
            )
            # sqrt is monotone, so the root of the least square is the
            # least root to the bit, for one root per pair; with no atom
            # at all (width 0) the least is +inf
            dist = np.sqrt(atom_gaps.min(axis=(1, 2), initial=np.inf))
        else:
            dist = point_distance(reps[ii], reps[jj])
        keep = dist <= tau
        found.append((ii[keep], jj[keep], dist[keep]))
    return tuple(np.concatenate(parts) for parts in zip(*found))
