"""Quantified time statements and the tensed sentences they render.

"I have bought a laptop computer" becomes "there is a time t in my
lifetime at which buy_t*laptop_computer holds"; "I have never owned a
computer" becomes the universal form over the negated phrase.  Time is
discrete and intervals are closed; all the reasoning here is interval
containment plus the phrase order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IntervalOutOfLifetime,
    NonCanonicalForm,
    NotEntailed,
    SubjectMismatch,
    UnsupportedTense,
)
from .order import WAY_OF
from .phrase import VerbPhrase, phrase_leq
from .sentence import FUTURE, PAST, PAST_PERFECT, Leaf, Or, Sentence, Tense

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

    def points(self) -> range:
        return range(self.start, self.end + 1)

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
    interval = tense.interval(lifetime)
    if interval is None:
        raise UnsupportedTense(
            f"cannot render tense {tense.form!r} (a plain past needs a timeframe)"
        )
    if not lifetime.contains(interval):
        raise IntervalOutOfLifetime(
            f"timeframe {interval.text()} outside lifetime {lifetime.text()}"
        )
    quantifier = FORALL if sentence.vp.negated else EXISTS
    return TemporalStatement(quantifier, interval, sentence.subject, sentence.vp)


def inverse_render(ts: TemporalStatement, lifetime: TimeInterval) -> Sentence:
    """Surface sentence for a canonical quantified statement.

    Existential over a positive phrase or universal over a negated one;
    the full lifetime reads as perfect tense, a proper subinterval as
    plain past with that timeframe.
    """
    if ts.quantifier == EXISTS and not ts.vp.negated:
        pass
    elif ts.quantifier == FORALL and ts.vp.negated:
        pass
    else:
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


def negate_quantified(ts: TemporalStatement) -> TemporalStatement:
    """Quantifier negation: swap exists/forall and flip the phrase."""
    quantifier = FORALL if ts.quantifier == EXISTS else EXISTS
    return TemporalStatement(quantifier, ts.interval, ts.subject, ts.vp.negate())


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


def personal_or(kb, premises, acceptances, tense: Tense | None = None) -> list:
    """Per-person disjunctions from a pair of order premises.

    ``premises`` is a list of declared edges ``(lower, upper, label)``
    containing exactly one verb edge; the noun edges fill the phrase
    slots in order.  ``acceptances`` maps each subject to the premises
    that subject accepts; whoever accepts them all gets the disjunction
    "has done the general thing OR has never done the specific thing".
    """
    tense = tense or Tense(PAST_PERFECT)
    if tense.form == FUTURE:
        raise UnsupportedTense("per-person disjunctions talk about experience, not plans")
    verb_edges = [e for e in premises if e[0] in kb.verbs and e[2] == WAY_OF]
    noun_edges = [e for e in premises if e not in verb_edges]
    if len(verb_edges) != 1 or not noun_edges:
        raise ValueError("premises must contain exactly one verb edge and noun edges")
    for lo, hi, label in premises:
        order = kb.verbs if (lo, hi, label) in verb_edges else kb.nouns
        if label not in order.labels_between(lo, hi):
            raise NotEntailed(f"premise {lo} {label} {hi} is not declared")
    v_lo, v_hi, _ = verb_edges[0]
    specific = kb.phrase(v_lo, tuple(e[0] for e in noun_edges))
    general = kb.phrase(v_hi, tuple(e[1] for e in noun_edges))
    needed = set(premises)
    out = []
    for subject in sorted(acceptances):
        accepted = set(acceptances[subject])
        if not needed <= accepted:
            continue
        to = Sentence(subject, tense, general)
        frm = Sentence(subject, tense, specific)
        out.append((subject, Or(Leaf(to), Leaf(frm.negate()))))
    return out
