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
    IntervalOutOfLifetime,
    UnsupportedTense,
    VagueTense,
)
from .phrase import BOTTOM, TOP, VerbPhrase, phrase_leq

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

    def interval_within(self, lifetime: TimeInterval) -> TimeInterval | None:
        """``interval``, refusing a timeframe that leaves the lifetime."""
        interval = self.interval(lifetime)
        if interval is not None and not lifetime.contains(interval):
            raise IntervalOutOfLifetime(
                f"timeframe {interval.text()} outside lifetime {lifetime.text()}"
            )
        return interval

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


def _as_claim(stored: Sentence, status: str) -> tuple[Sentence, str]:
    """A stored fact in "this sentence holds" form, with its class."""
    if status == NOT_FACTUAL:
        return stored.negate(), FACTUAL
    return stored, status


class _Group:
    """The stored claims of one subject with one tense, polarity and arity.

    Bit ``i`` of a mask stands for ``claims[i]``.  ``slots`` holds one map
    per phrase slot (the verb, then each noun) from atom to mask.  A
    positive claim is filed under every generalization of its atom, so the
    claims below a positive query are the AND of the masks of its atoms.
    A negated claim is filed under its own atom only, and negation reverses
    the order, so the claims below a negated query are the AND over slots
    of the OR of the masks over its atom's generalizations.  ``bottom``
    marks the claims that are ``not do*something``.
    """

    __slots__ = ("claims", "slots", "bottom")

    def __init__(self, arity: int):
        self.claims: list[tuple[Sentence, str]] = []
        self.slots: list[dict[str, int]] = [{} for _ in range(arity + 1)]
        self.bottom = 0


def _order_version(kb) -> tuple[int, int]:
    return kb.verbs.version, kb.nouns.version


class _SupportIndex:
    """Candidate supporters of a claim, found without a scan of all claims.

    Claims are grouped by subject, then by ``(tense, polarity, arity)``.
    The interval part of ``supports`` depends only on the group's tense, so
    it is decided once per group; the phrase part is read off the group's
    masks.  The candidates are a superset of the supporters, so callers
    confirm each with ``supports``.  The index is valid for the atom orders
    at ``version``: a new edge may grow the up-sets it was built from.
    """

    def __init__(self, kb, claims):
        self.kb = kb
        self.version = _order_version(kb)
        self._subjects: dict[str, dict[tuple, _Group]] = {}
        self._ups: dict[tuple[str, str], set[str]] = {}
        for known, klass in claims:
            self.add(known, klass)

    def _slots(self, vp: VerbPhrase):
        """(atom, generalizations of the atom) for each slot."""
        kb, ups = self.kb, self._ups
        orders = (kb.verbs,) + (kb.nouns,) * vp.arity
        for order, atom in zip(orders, (vp.verb,) + vp.nouns):
            # Filled by readers too; every thread stores the same set.
            up = ups.get((order.kind, atom))
            if up is None:
                up = ups[order.kind, atom] = order.generalizations(atom)
            yield atom, up

    def add(self, known: Sentence, klass: str) -> None:
        vp = known.vp
        key = (known.tense, vp.negated, vp.arity)
        groups = self._subjects.setdefault(known.subject, {})
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(vp.arity)
        bit = 1 << len(group.claims)
        group.claims.append((known, klass))
        for masks, (atom, up) in zip(group.slots, self._slots(vp)):
            for a in (atom,) if vp.negated else up:
                masks[a] = masks.get(a, 0) | bit
        if vp == BOTTOM:
            group.bottom |= bit

    def _phrase_mask(self, group: _Group, vp: VerbPhrase) -> int:
        mask = -1
        for masks, (atom, up) in zip(group.slots, self._slots(vp)):
            if vp.negated:
                slot_mask = 0
                for a in up:
                    slot_mask |= masks.get(a, 0)
                mask &= slot_mask
            else:
                mask &= masks.get(atom, 0)
            if not mask:
                break
        return mask

    def candidates(self, claim: Sentence):
        """Stored ``(claim, class)`` pairs that may support ``claim``."""
        groups = self._subjects.get(claim.subject)
        if not groups:
            return
        vp = claim.vp
        exists = not vp.negated
        lifetime = self.kb.lifetime(claim.subject)
        want = claim.tense.interval(lifetime)
        for (tense, negated, arity), group in groups.items():
            if negated != vp.negated:
                continue
            # The bounds cross arities: every positive phrase is below
            # do*something, and not do*something below every negated one.
            if vp == TOP:
                mask = (1 << len(group.claims)) - 1
            else:
                mask = group.bottom
                if arity == vp.arity:
                    mask |= self._phrase_mask(group, vp)
            if mask and tense != claim.tense:
                have = tense.interval(lifetime)
                if have is None or want is None or not have.forces(exists, want, exists):
                    continue
            while mask:
                low = mask & -mask
                yield group.claims[low.bit_length() - 1]
                mask ^= low


class World:
    """Fact store for one knowledge base.

    Single writer, many readers: assertions mutate, every query is
    read-only.  An assertion is refused when a stored fact already
    entails its opposite.  That check compares one stored fact at a time,
    so a world with no model can still load and pass the law audit with
    no violation (ROADMAP item 7).  An accepted fact pins its verb's
    arity; queries pin nothing.  Queries find their supporters
    through a support index, which proposes candidates that ``supports``
    confirms.
    """

    def __init__(self, kb):
        self.kb = kb
        self._facts: dict[Sentence, str] = {}
        self._index = _SupportIndex(kb, ())

    def facts(self) -> tuple[tuple[Sentence, str], ...]:
        return tuple(self._facts.items())

    def claims(self):
        """Stored facts normalized to "this sentence holds" form, paired
        with their class (factual or plan)."""
        for stored, status in self._facts.items():
            yield _as_claim(stored, status)

    def _support_index(self) -> _SupportIndex:
        index = self._index
        if index.version != _order_version(self.kb):
            index = self._index = _SupportIndex(self.kb, self.claims())
        return index

    def _supported(self, claim: Sentence):
        """The stored ``(claim, class)`` pairs that support ``claim``."""
        kb = self.kb
        for known, klass in self._support_index().candidates(claim):
            if supports(kb, known, claim):
                yield known, klass

    def supporters(self, claim: Sentence) -> list[Sentence]:
        """Every stored claim that supports ``claim``, found through the
        support index and confirmed by ``supports``."""
        return [known for known, _ in self._supported(claim)]

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
        claim, klass = _as_claim(sentence, status)
        forced = self.status_of(claim)
        if forced == NOT_FACTUAL:
            raise Contradiction(
                f"cannot record {sentence.text()!r} as {status}: "
                "the opposite is already entailed"
            )
        # Re-asserting a stored fact keeps its status: the other status
        # would have been refused above.
        if sentence not in self._facts:
            self._support_index().add(claim, klass)
            self._facts[sentence] = status
        self.kb.pin_arity(sentence.vp)
        return self

    def status_of(self, sentence: Sentence) -> str:
        """Atom-level status under the entailment closure of the facts.

        A timeframe outside the subject's lifetime is refused with
        ``IntervalOutOfLifetime``, as at assertion.
        """
        kb = self.kb
        kb.check_phrase(sentence.vp)
        sentence.tense.interval_within(kb.lifetime(sentence.subject))
        if next(self._supported(sentence.negate()), None) is not None:
            return NOT_FACTUAL
        # Every supporter of one sentence has the same class: future facts
        # are plans and only they support a future sentence.
        found = next(self._supported(sentence), None)
        return UNKNOWN if found is None else found[1]

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
