"""Quantified time statements and the tensed sentences they render.

"I have bought a laptop computer" becomes "there is a time t in my
lifetime at which buy_t*laptop_computer holds"; "I have never owned a
computer" becomes the universal form over the negated phrase.  Time is
discrete and intervals are closed; all the reasoning here is interval
containment plus the phrase order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonCanonicalForm, SubjectMismatch, UnsupportedTense
from .phrase import VerbPhrase, phrase_leq
from .sentence import PAST, PAST_PERFECT, Sentence, Tense

EXISTS = "exists"
FORALL = "forall"


@dataclass(frozen=True, slots=True, order=True)
class TimeInterval:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")

    def contains(self, other: TimeInterval) -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: TimeInterval) -> bool:
        return self.start <= other.end and other.start <= self.end

    def forces(self, exists: bool, other: TimeInterval, other_exists: bool) -> bool:
        """Does a statement quantified over this interval (existentially
        when ``exists``) force the same phrase quantified over ``other``?

        Existentials carry over to superintervals, universals to
        subintervals, and a universal to any overlapping existential.  Over
        one point the two quantifiers agree, so such a premise counts as
        universal.
        """
        if exists and self.start < self.end:
            return other_exists and other.contains(self)
        if other_exists:
            return self.overlaps(other)
        return self.contains(other)

    def text(self) -> str:
        return f"[{self.start},{self.end}]"


@dataclass(frozen=True, slots=True)
class TemporalStatement:
    quantifier: str
    interval: TimeInterval
    subject: str
    vp: VerbPhrase

    def __post_init__(self):
        if self.quantifier not in (EXISTS, FORALL):
            raise ValueError(f"unknown quantifier: {self.quantifier!r}")

    def text(self) -> str:
        vp = self.vp
        body = " * ".join((f"{vp.verb}_t",) + vp.nouns)
        if vp.negated:
            body = "not " + body
        return f"{self.quantifier.upper()} t in {self.interval.text()}: {self.subject} {body}"


def render(sentence: Sentence, lifetime: TimeInterval) -> TemporalStatement:
    """Second-order reading of a perfect or timeframed-past sentence.

    Positive sentences quantify existentially, negated ones universally
    over the negated phrase; an explicit timeframe replaces the lifetime
    and must fall inside it.
    """
    tense = sentence.tense
    interval = tense.interval_within(lifetime)
    if interval is None:
        raise UnsupportedTense(
            f"cannot render tense {tense.form!r} (a plain past needs a timeframe)"
        )
    quantifier = FORALL if sentence.vp.negated else EXISTS
    return TemporalStatement(quantifier, interval, sentence.subject, sentence.vp)


def inverse_render(ts: TemporalStatement, lifetime: TimeInterval) -> Sentence:
    """Surface sentence for a canonical quantified statement.

    Existential over a positive phrase or universal over a negated one;
    the full lifetime reads as perfect tense, a proper subinterval as
    plain past with that timeframe.
    """
    if (ts.quantifier == FORALL) != ts.vp.negated:
        raise NonCanonicalForm(
            f"no sentence template for {ts.quantifier} over "
            f"{'a negated' if ts.vp.negated else 'a positive'} phrase"
        )
    if ts.interval == lifetime:
        tense = Tense(PAST_PERFECT)
    elif lifetime.contains(ts.interval):
        tense = Tense(PAST, ts.interval)
    else:
        raise NonCanonicalForm(
            f"interval {ts.interval.text()} outside lifetime {lifetime.text()}"
        )
    return Sentence(ts.subject, tense, ts.vp)


def temporal_entails(kb, a: TemporalStatement, b: TemporalStatement) -> bool:
    """Entailment between quantified statements over one subject: the
    phrase order together with ``TimeInterval.forces``."""
    kb.check_phrase(a.vp)
    kb.check_phrase(b.vp)
    if a.subject != b.subject:
        raise SubjectMismatch(f"subjects differ: {a.subject!r} vs {b.subject!r}")
    return phrase_leq(kb, a.vp, b.vp) and a.interval.forces(
        a.quantifier == EXISTS, b.interval, b.quantifier == EXISTS
    )
