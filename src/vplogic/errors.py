"""Exception types shared across the engine.

Each class carries how it is reported: ``exit_code`` is the CLI's exit
status (2, the input could not be processed, unless the class marks a
computed negative answer with 1) and ``code`` is the repl's bracketed
error code.
"""

import re


class VplError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 2

    @property
    def code(self) -> str:
        """The snake_case of the class name, e.g. ``arity_mismatch``."""
        return re.sub(r"(?<!^)(?=[A-Z])", "_", type(self).__name__).lower()


class UnknownAtom(VplError):
    """An identifier was used that is not registered in the order."""

    code = "parse_error"


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

    exit_code = 1


class UnsupportedTense(VplError):
    """The operation is not defined for this tense."""

    exit_code = 1


class IntervalOutOfLifetime(VplError):
    """A timeframe falls outside the subject's lifetime interval."""

    exit_code = 1


class NonCanonicalForm(VplError):
    """The quantified statement has no surface-sentence template."""

    exit_code = 1


class NotFactual(VplError):
    """A question was asked about a statement the world does not support."""

    exit_code = 1


class SlotOutOfRange(VplError):
    """A noun-slot index is missing or outside the phrase's arity."""


class BoundEdge(VplError):
    """A declared edge leaves ``do`` or ``something``, the phrase bounds."""


class OutOfRange(VplError):
    """A membership degree lies outside [0, 1]."""


class NoDegree(VplError):
    """No degree entry resolves for the requested subject and item."""

    exit_code = 1


class NoIso(VplError):
    """The verb/category pair was never declared as an isomorphism."""

    exit_code = 1


class ResolutionError(VplError):
    """A parsed statement refers to an atom the document never declares."""

    code = "parse_error"


class ParseError(VplError):
    """Syntax error with a 1-based source position."""

    code = "parse_error"

    def __init__(self, message, line=1, column=1, expected=()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        text = f"line {line}, column {column}: {message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(text)
