"""Sentences, the fact store, and Boolean connectives over them.

A sentence is a subject plus a tense plus a verb phrase.  The world
records which sentences hold ("factual"), which are ruled out
("not_factual"), and which are future plans.  Evaluation is epistemic:
an engine only knows what the stored facts entail, so connectives run on
strong Kleene tables with "unknown" in the middle; on determinate inputs
they coincide with the classical tables.  Plans enter as a fourth value
that can only originate from future-tense sentences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    Contradiction,
    UnsupportedShape,
    UnsupportedTense,
    VagueTense,
)
from .phrase import VerbPhrase, phrase_leq

if TYPE_CHECKING:
    from .temporal import TimeInterval

PAST = "past"
PAST_PERFECT = "past_perfect"
PRESENT_CONTINUOUS = "present_continuous"
FUTURE = "future"
TENSE_FORMS = (PAST, PAST_PERFECT, PRESENT_CONTINUOUS, FUTURE)

FACTUAL = "factual"
NOT_FACTUAL = "not_factual"
UNKNOWN = "unknown"
PLAN = "plan"


@dataclass(frozen=True, slots=True)
class Tense:
    """Tense form plus, for plain past only, an explicit timeframe.

    Plain past without a timeframe is "vague": such sentences can be
    talked about but never asserted as facts.
    """

    form: str
    timeframe: TimeInterval | None = None

    def __post_init__(self):
        if self.form not in TENSE_FORMS:
            raise ValueError(f"unknown tense form: {self.form!r}")
        if self.timeframe is not None and self.form != PAST:
            raise ValueError("only plain past takes an explicit timeframe")

    @property
    def vague(self) -> bool:
        return self.form == PAST and self.timeframe is None

    def interval(self, lifetime: TimeInterval) -> TimeInterval | None:
        """The time a perfect or timeframed-past sentence quantifies over:
        the subject's lifetime or the timeframe; None for other tenses."""
        return lifetime if self.form == PAST_PERFECT else self.timeframe

    def text(self) -> str:
        return self.form


@dataclass(frozen=True, slots=True)
class Sentence:
    subject: str
    tense: Tense
    vp: VerbPhrase

    def __post_init__(self):
        if not self.subject:
            raise ValueError("sentence needs a subject")

    def negate(self) -> Sentence:
        return Sentence(self.subject, self.tense, self.vp.negate())

    def text(self) -> str:
        out = f"{self.subject} {self.tense.text()} {self.vp.text()}"
        if self.tense.timeframe is not None:
            tf = self.tense.timeframe
            out += f" @ [{tf.start},{tf.end}]"
        return out


# -- expressions -------------------------------------------------------


class SentenceExpr:
    """Base class for expression trees over sentences."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Leaf(SentenceExpr):
    sentence: Sentence


@dataclass(frozen=True, slots=True)
class And(SentenceExpr):
    left: SentenceExpr
    right: SentenceExpr


@dataclass(frozen=True, slots=True)
class Or(SentenceExpr):
    left: SentenceExpr
    right: SentenceExpr


@dataclass(frozen=True, slots=True)
class Not(SentenceExpr):
    operand: SentenceExpr


def neg(expr: SentenceExpr) -> SentenceExpr:
    """Negation that folds into leaves and cancels double negation."""
    if isinstance(expr, Leaf):
        return Leaf(expr.sentence.negate())
    if isinstance(expr, Not):
        return expr.operand
    return Not(expr)


def leaves(expr: SentenceExpr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack.append(node.left)
            stack.append(node.right)


def expr_text(expr: SentenceExpr, top: bool = True) -> str:
    if isinstance(expr, Leaf):
        if expr.sentence.vp.negated:
            return f"NOT({expr.sentence.negate().text()})"
        return f"({expr.sentence.text()})"
    if isinstance(expr, Not):
        return f"NOT {expr_text(expr.operand, top=False)}"
    op = "AND" if isinstance(expr, And) else "OR"
    body = f"{expr_text(expr.left, top=False)} {op} {expr_text(expr.right, top=False)}"
    return body if top else f"({body})"


# -- the world ---------------------------------------------------------


def supports(kb, known: Sentence, claim: Sentence) -> bool:
    """Does the known sentence entail the claim?  Both must already be
    checked, and entailment never crosses subjects.

    Equal tenses compare phrases only.  Perfect and timeframed-past
    sentences also compare across tenses, as quantified statements over
    their intervals: a positive phrase is existential, a negated one
    universal (``TimeInterval.forces``).
    """
    if known.subject != claim.subject:
        return False
    if known.tense == claim.tense:
        return phrase_leq(kb, known.vp, claim.vp)
    lifetime = kb.lifetime(known.subject)
    have = known.tense.interval(lifetime)
    want = claim.tense.interval(lifetime)
    return (
        have is not None
        and want is not None
        and phrase_leq(kb, known.vp, claim.vp)
        and have.forces(not known.vp.negated, want, not claim.vp.negated)
    )


class World:
    """Fact store for one knowledge base.

    Single writer, many readers: assertions mutate, every query is
    read-only.  Consistency is enforced on the way in, so the law audit
    can never find a violation afterwards.
    """

    def __init__(self, kb):
        self.kb = kb
        self._facts: dict[Sentence, str] = {}

    def facts(self) -> tuple[tuple[Sentence, str], ...]:
        return tuple(self._facts.items())

    def subjects(self) -> tuple[str, ...]:
        return tuple(sorted({s.subject for s in self._facts}))

    def claims(self):
        """Stored facts normalized to "this sentence holds" form, paired
        with their class (factual or plan)."""
        for stored, status in self._facts.items():
            if status == NOT_FACTUAL:
                yield stored.negate(), FACTUAL
            else:
                yield stored, status

    def assert_fact(self, sentence: Sentence, status: str = FACTUAL) -> World:
        if status not in (FACTUAL, NOT_FACTUAL):
            raise ValueError(f"assertable status must be factual/not_factual, got {status!r}")
        self.kb.check_phrase(sentence.vp)
        if sentence.tense.vague:
            raise VagueTense(
                f"{sentence.text()!r}: plain past needs a timeframe to carry factual status"
            )
        # Future-tense assertions are recorded as plans, normalized so the
        # stored sentence is the one claimed to hold.
        if sentence.tense.form == FUTURE:
            if status == NOT_FACTUAL:
                sentence = sentence.negate()
            status = PLAN
        claim = sentence if status != NOT_FACTUAL else sentence.negate()
        forced = self.status_of(claim)
        if forced == NOT_FACTUAL:
            raise Contradiction(
                f"cannot record {sentence.text()!r} as {status}: "
                "the opposite is already entailed"
            )
        self._facts[sentence] = status
        return self

    def status_of(self, sentence: Sentence) -> str:
        """Atom-level status under the entailment closure of the facts."""
        kb = self.kb
        kb.check_phrase(sentence.vp)
        negated = sentence.negate()
        supported = None
        for known, klass in self.claims():
            if supports(kb, known, negated):
                return NOT_FACTUAL
            if supported is None and supports(kb, known, sentence):
                supported = klass
        return supported if supported is not None else UNKNOWN

    def eval(self, expr: SentenceExpr) -> str:
        """Four-valued evaluation.

        Runs strong Kleene twice: once with plans counted as unknown and
        once with plans counted as factual.  If the strict pass already
        decides, that answer stands (no plan was needed); otherwise the
        loose pass reports what the plans add.
        """
        statuses = {leaf: self.status_of(leaf.sentence) for leaf in leaves(expr)}
        strict = _value(expr, statuses, plan_value=0.5)
        if strict == 1.0:
            return FACTUAL
        if strict == 0.0:
            return NOT_FACTUAL
        loose = _value(expr, statuses, plan_value=1.0)
        if loose == 1.0:
            return PLAN
        if loose == 0.0:
            return NOT_FACTUAL
        return UNKNOWN


_NUMERIC = {FACTUAL: 1.0, NOT_FACTUAL: 0.0, UNKNOWN: 0.5}


def _value(expr: SentenceExpr, statuses, plan_value: float) -> float:
    if isinstance(expr, Leaf):
        status = statuses[expr]
        return plan_value if status == PLAN else _NUMERIC[status]
    if isinstance(expr, Not):
        return 1.0 - _value(expr.operand, statuses, plan_value)
    left = _value(expr.left, statuses, plan_value)
    right = _value(expr.right, statuses, plan_value)
    return min(left, right) if isinstance(expr, And) else max(left, right)


# -- linguistic compounds ----------------------------------------------


@dataclass(frozen=True, slots=True)
class CompoundPhrase:
    """One of the four distributable shapes.

    Two verbs sharing one noun list (``i past (bake and eat)*potato``) or
    one verb with two alternative nouns (``i past bake*(potato and
    apple)``); the connective is "and" or "or".
    """

    subject: str
    tense: Tense
    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    connective: str

    def text(self) -> str:
        if len(self.verbs) == 2:
            body = (
                f"( {self.verbs[0]} {self.connective} {self.verbs[1]} ) * "
                + " * ".join(self.nouns)
            )
        else:
            body = f"{self.verbs[0]} * ( {self.nouns[0]} {self.connective} {self.nouns[1]} )"
        return f"{self.subject} {self.tense.text()} {body}"


def _compound_sentences(cp: CompoundPhrase) -> tuple[Sentence, Sentence]:
    if cp.connective not in ("and", "or"):
        raise UnsupportedShape(f"connective must be and/or, got {cp.connective!r}")
    if len(cp.verbs) == 2 and len(cp.nouns) >= 1:
        first = Sentence(cp.subject, cp.tense, VerbPhrase(cp.verbs[0], cp.nouns))
        second = Sentence(cp.subject, cp.tense, VerbPhrase(cp.verbs[1], cp.nouns))
    elif len(cp.verbs) == 1 and len(cp.nouns) == 2:
        first = Sentence(cp.subject, cp.tense, VerbPhrase(cp.verbs[0], (cp.nouns[0],)))
        second = Sentence(cp.subject, cp.tense, VerbPhrase(cp.verbs[0], (cp.nouns[1],)))
    else:
        raise UnsupportedShape(
            "a compound joins exactly two verbs over shared nouns "
            "or one verb over exactly two nouns"
        )
    return first, second


def distribute(cp: CompoundPhrase) -> SentenceExpr:
    """Rewrite a compound phrase into the matching two-sentence connective."""
    first, second = _compound_sentences(cp)
    node = And if cp.connective == "and" else Or
    return node(Leaf(first), Leaf(second))


def factor(expr: SentenceExpr) -> CompoundPhrase:
    """Inverse of ``distribute``: recombine when the verbs or nouns match."""
    if isinstance(expr, And):
        connective = "and"
    elif isinstance(expr, Or):
        connective = "or"
    else:
        raise UnsupportedShape("only a single AND/OR of two sentences factors")
    left, right = expr.left, expr.right
    if not (isinstance(left, Leaf) and isinstance(right, Leaf)):
        raise UnsupportedShape("only a single AND/OR of two sentences factors")
    a, b = left.sentence, right.sentence
    if a.subject != b.subject or a.tense != b.tense:
        raise UnsupportedShape("subject and tense must match to factor")
    if a.vp.negated or b.vp.negated:
        raise UnsupportedShape("negated sentences do not factor")
    if a.vp.verb != b.vp.verb and a.vp.nouns == b.vp.nouns:
        return CompoundPhrase(a.subject, a.tense, (a.vp.verb, b.vp.verb), a.vp.nouns, connective)
    if a.vp.verb == b.vp.verb and a.vp.nouns != b.vp.nouns:
        if a.vp.arity != 1 or b.vp.arity != 1:
            raise UnsupportedShape("noun compounds factor only for single-slot phrases")
        return CompoundPhrase(
            a.subject, a.tense, (a.vp.verb,), (a.vp.nouns[0], b.vp.nouns[0]), connective
        )
    raise UnsupportedShape("sentences share neither their verb nor their nouns")


# -- law audit ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LawReport:
    """Exactly-one-of-S-and-not-S audit over an enumeration of pairs.

    ``verified`` pairs are determinate and consistent, ``indeterminate``
    pairs are epistemic unknowns (not violations), and ``violations`` is
    empty for any world built through ``assert_fact``.
    """

    verified: tuple
    indeterminate: tuple
    violations: tuple


def check_laws(world: World, subjects, vps, tense: Tense | None = None) -> LawReport:
    tense = tense or Tense(PAST_PERFECT)
    if tense.form == FUTURE:
        raise UnsupportedTense("future sentences are plans and are not audited")
    if tense.vague:
        raise UnsupportedTense("plain past audits need an explicit timeframe")
    verified, indeterminate, violations = [], [], []
    for subject in sorted(subjects):
        for vp in sorted(vps, key=lambda v: (v.verb, v.nouns)):
            s = Sentence(subject, tense, vp.core())
            pos = world.status_of(s)
            neg_status = world.status_of(s.negate())
            entry = (s, pos, neg_status)
            if {pos, neg_status} == {FACTUAL, NOT_FACTUAL}:
                verified.append(entry)
            elif pos in (UNKNOWN, PLAN) or neg_status in (UNKNOWN, PLAN):
                indeterminate.append(entry)
            else:
                violations.append(entry)
    return LawReport(tuple(verified), tuple(indeterminate), tuple(violations))
