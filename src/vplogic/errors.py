"""Exception types shared across the engine."""


class VplError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownAtom(VplError):
    """An identifier was used that is not registered in the order."""


class KindMismatch(VplError):
    """A noun/verb was used where the other kind (or label) is required."""


class ArityMismatch(VplError):
    """Verb phrases with different slot counts were combined or compared."""


class SubjectMismatch(VplError):
    """Entailment was asked across different subjects."""


class TenseMismatch(VplError):
    """Entailment was asked across different tense classes."""


class VagueTense(VplError):
    """A plain-past sentence without a timeframe cannot carry factual status."""


class Contradiction(VplError):
    """The assertion conflicts with what the world already forces."""


class NotEntailed(VplError):
    """The claimed implication does not hold in the knowledge base."""


class UnsupportedTense(VplError):
    """The operation is not defined for this tense."""


class IntervalOutOfLifetime(VplError):
    """A timeframe falls outside the subject's lifetime interval."""


class NonCanonicalForm(VplError):
    """The quantified statement has no surface-sentence template."""


class NotFactual(VplError):
    """A question was asked about a statement the world does not support."""


class SlotOutOfRange(VplError):
    """A noun-slot index is missing or outside the phrase's arity."""


class BoundEdge(VplError):
    """A declared edge leaves ``do`` or ``something``, the phrase bounds."""


class OutOfRange(VplError):
    """A membership degree lies outside [0, 1]."""


class NoDegree(VplError):
    """No degree entry resolves for the requested subject and item."""


class NoIso(VplError):
    """The verb/category pair was never declared as an isomorphism."""


class ResolutionError(VplError):
    """A parsed statement refers to an atom the document never declares."""


class ParseError(VplError):
    """Syntax error with a 1-based source position."""

    def __init__(self, message, line=1, column=1, expected=()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        text = f"line {line}, column {column}: {message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(text)
