"""The twenty standard amino acids, their code tables, and the interaction
classes and universes that the structure and collective sides share, numpy-free."""

from __future__ import annotations

from typing import NamedTuple

from .errors import UniverseMismatch

# One-letter codes in lexicographic order; this ordering is the canonical
# axis for score tables and class universes everywhere in the package.
ONE_LETTER = "ACDEFGHIKLMNPQRSTVWY"

THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}

LETTER_INDEX = {letter: i for i, letter in enumerate(ONE_LETTER)}


class InteractionClass(NamedTuple):
    """Unordered residue-type pair, stored canonically (first <= second)."""

    first: str
    second: str

    @staticmethod
    def of(a: str, b: str) -> InteractionClass:
        cls = _BY_CODES.get((a, b))
        if cls is None:
            raise ValueError(f"not standard residue codes: {a!r}, {b!r}")
        return cls

    def render(self) -> str:
        return f"{self.first}-{self.second}"

    @staticmethod
    def parse(text: str) -> InteractionClass:
        a, sep, b = text.partition("-")
        if not sep:
            raise ValueError(f"not a class label: {text!r}")
        return InteractionClass.of(a, b)


Universe = tuple[InteractionClass, ...]

CLASSES: Universe = tuple(
    InteractionClass(a, b) for i, a in enumerate(ONE_LETTER) for b in ONE_LETTER[i:]
)
"""All 210 interaction classes in lexicographic order, built once."""

# each class under its two codes, in either order
_BY_CODES = {k: c for c in CLASSES for k in ((c.first, c.second), (c.second, c.first))}


def class_universe(include_homopairs: bool = True) -> Universe:
    """All interaction classes in lexicographic order.

    210 classes with homopairs, 190 without.
    """
    if include_homopairs:
        return CLASSES
    return tuple(c for c in CLASSES if c.first != c.second)


def slot_index(
    universe: Universe, error: type[Exception] = UniverseMismatch
) -> dict[InteractionClass, int]:
    """The universe slot of each class; a universe that repeats a class
    raises `error` naming it."""
    index = {c: i for i, c in enumerate(universe)}
    if len(index) != len(universe):
        repeated = next(c for i, c in enumerate(universe) if index[c] != i)
        raise error(f"universe repeats {repeated.render()}")
    return index
