"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FinsiteError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(FinsiteError):
    """A configurable enumeration guard was exceeded."""


class UnknownObjectError(FinsiteError):
    """An object name or id is not declared in the category."""


class CodomainMismatchError(FinsiteError):
    """A morphism's codomain does not match the required target."""


class InvalidSieveError(FinsiteError):
    """A member set is not closed under precomposition or is ill-typed."""


class CategoryInvalidError(FinsiteError):
    """Category laws failed; carries the structured violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid category: {lines}")


class PresheafInvalidError(FinsiteError):
    """Functoriality or coverage failed; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid presheaf: {lines}")


class NotMatchingError(FinsiteError):
    """An assignment indexed by a sieve is not a matching family."""


class NotASheafError(FinsiteError):
    """The presheaf fails the sheaf condition; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotAModelError(FinsiteError):
    """The partial structure violates an axiom; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotACongruenceError(FinsiteError):
    """The equivalence does not respect operation domains or values."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class SortMismatchError(FinsiteError):
    """A term or assignment is not sort-correct."""


class NoAmalgamationError(FinsiteError):
    """Internal: a matching family had no amalgamation in a sheaf."""


class HypothesisViolationError(FinsiteError):
    """A site-level precondition (subcanonical / no empty covers) fails."""


class ParseError(FinsiteError):
    """Malformed input file or term syntax."""
