"""Exception types shared across the package.

Grouped here so the command-line layer can map error families onto
exit codes without importing every submodule.
"""

from __future__ import annotations


class FoldvoteError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- structures

class MalformedRecord(FoldvoteError):
    """An ATOM line failed fixed-column parsing."""


class EmptyStructure(FoldvoteError):
    """No standard residues survived parsing."""


class MissingAtom(FoldvoteError):
    """A residue lacks the atom required by the distance mode."""


# ------------------------------------------------------------------ contacts

class BadTable(FoldvoteError):
    """A score table is malformed or asymmetric."""


class MalformedContacts(FoldvoteError):
    """A contact CSV row lacks the header's fields or holds one that does not parse."""


# --------------------------------------------------------------- preferences

class MixedProteins(FoldvoteError):
    """Instances from more than one protein were passed where one is required."""


class UniverseMismatch(FoldvoteError):
    """Two objects are defined over different class universes."""


class NonFiniteUtility(FoldvoteError):
    """A utility value is NaN or infinite."""


# ------------------------------------------------------------------ profiles

class Incompatible(FoldvoteError):
    """Two profiles differ in size or universe."""


class BadSpec(FoldvoteError):
    """A synthetic-profile request is inconsistent."""


class MalformedProfile(FoldvoteError):
    """A profile's JSON holds a field of the wrong shape."""


# --------------------------------------------------------------------- rules

class WrongMode(FoldvoteError):
    """A rule was given a profile of the wrong mode (ordinal vs utility)."""


class TooLarge(FoldvoteError):
    """The requested exact computation exceeds the supported size."""


class BadIndex(FoldvoteError):
    """An individual index is out of range."""


class ZeroVector(FoldvoteError):
    """A zero vector cannot be normalized to a direction."""


class AntipodalDegenerate(FoldvoteError):
    """Directions cancel; the mean has no defined direction."""


# --------------------------------------------------------------------- audit

class BudgetExceeded(FoldvoteError):
    """An exhaustive search would exceed the enumeration budget."""


class InapplicableAxiom(FoldvoteError):
    """The axiom does not apply to the rule's input mode."""


# ---------------------------------------------------------------------- cli

class NotAnObject(FoldvoteError):
    """A JSON input's top level is not an object."""


# -------------------------------------------------------------- restrictions

class TiesUnsupported(FoldvoteError):
    """An operation requires strict orders but an individual has ties."""
