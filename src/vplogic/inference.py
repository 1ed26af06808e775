"""Entailment between sentences and the deductive closure of a fact.

A positive fact entails everything reachable by generalizing its verb or
any noun slot along declared edges; a negated fact entails the negations
of everything reachable downward (contraposition).  Closures carry
replayable derivations and come back in a deterministic order; one
breadth-first search yields them, and ``vp_chain`` takes the same steps
between two phrases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import NotEntailed, SubjectMismatch, TenseMismatch
from .phrase import BOTTOM, TOP, VerbPhrase, phrase_leq, vp_leq
from .sentence import Leaf, Or, Sentence, SentenceExpr, supports

DEFAULT_CAP = 10_000

VERB_GENERAL = "verb_general"
NOUN_GENERAL = "noun_general"
CONTRAPOSITION = "contraposition"
BOUND = "bound"


@dataclass(frozen=True, slots=True)
class ConditionalRule:
    """If <antecedent> then <consequent>.  The antecedent is an opaque
    text label; only the consequent is reasoned on."""

    antecedent: str
    consequent: Sentence


@dataclass(frozen=True, slots=True)
class Step:
    """One derivation step: the declared edge used and how it was applied.

    ``slot`` is None for verb steps.  ``contraposition`` steps move a
    negated phrase's core downward along the edge.  A ``bound`` step
    records two whole phrases, ordered only by a postulated bound
    (``do*something`` above, its negation below); ``closure`` never
    takes one.
    """

    rule: str
    lower: str
    upper: str
    label: str
    slot: int | None = None

    def premise(self) -> str:
        return f"{self.lower} {self.label} {self.upper}"


@dataclass(frozen=True, slots=True)
class Derivation:
    conclusion: Sentence
    steps: tuple[Step, ...]


@dataclass(frozen=True, slots=True)
class ClosureResult:
    derivations: tuple[Derivation, ...]
    truncated: bool = False

    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(d.conclusion for d in self.derivations)

    def __len__(self) -> int:
        return len(self.derivations)

    def __iter__(self):
        return iter(self.derivations)


@dataclass(frozen=True, slots=True)
class PropagationResult:
    rules: tuple[ConditionalRule, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def entails(kb, frm: Sentence, to: Sentence) -> bool:
    """True iff the first sentence forces the second, by ``supports``.

    Requires the same subject, and the same tense unless both sentences
    are perfect or timeframed past; negated facts entail downward.  A
    timeframe outside the subject's lifetime raises
    ``IntervalOutOfLifetime``.
    """
    kb.check_phrase(frm.vp)
    kb.check_phrase(to.vp)
    if frm.subject != to.subject:
        raise SubjectMismatch(f"subjects differ: {frm.subject!r} vs {to.subject!r}")
    lifetime = kb.lifetime(frm.subject)
    intervals = (frm.tense.interval_within(lifetime), to.tense.interval_within(lifetime))
    if frm.tense != to.tense and None in intervals:
        raise TenseMismatch(f"tenses do not compare: {frm.text()!r} vs {to.text()!r}")
    if supports(kb, frm, to):
        return True
    # Raises ArityMismatch for a pair of one polarity and different arity.
    vp_leq(kb, frm.vp, to.vp)
    return False


def _edge_steps(kb, vp: VerbPhrase):
    """Single generalization steps out of a phrase, deterministic order:
    verb steps first, then each noun slot, neighbors sorted by id."""
    if vp.negated:
        for lower in kb.verbs.direct_lowers(vp.verb):
            label = sorted(kb.verbs.labels_between(lower, vp.verb))[0]
            yield (Step(CONTRAPOSITION, lower, vp.verb, label), vp.replace(verb=lower))
        for slot, noun in enumerate(vp.nouns):
            for lower in kb.nouns.direct_lowers(noun):
                label = sorted(kb.nouns.labels_between(lower, noun))[0]
                yield (
                    Step(CONTRAPOSITION, lower, noun, label, slot),
                    vp.replace(slot=slot, noun=lower),
                )
    else:
        for upper in kb.verbs.direct_uppers(vp.verb):
            label = sorted(kb.verbs.labels_between(vp.verb, upper))[0]
            yield (Step(VERB_GENERAL, vp.verb, upper, label), vp.replace(verb=upper))
        for slot, noun in enumerate(vp.nouns):
            for upper in kb.nouns.direct_uppers(noun):
                label = sorted(kb.nouns.labels_between(noun, upper))[0]
                yield (
                    Step(NOUN_GENERAL, noun, upper, label, slot),
                    vp.replace(slot=slot, noun=upper),
                )


def _search(kb, start: VerbPhrase, keep=None):
    """Breadth-first walk from ``start`` along single edge steps.

    Yields each phrase reached, start excluded, with its shortest step
    tuple, in discovery order.  ``keep`` prunes the phrases not worth
    entering.
    """
    seen: dict[VerbPhrase, tuple[Step, ...]] = {start: ()}
    queue = deque([start])
    while queue:
        vp = queue.popleft()
        steps = seen[vp]
        for step, nxt in _edge_steps(kb, vp):
            if nxt in seen or (keep is not None and not keep(nxt)):
                continue
            seen[nxt] = path = steps + (step,)
            yield nxt, path
            queue.append(nxt)


def closure(kb, fact: Sentence, cap: int = DEFAULT_CAP) -> ClosureResult:
    """Every sentence strictly entailed by the fact, with derivations.

    Enumerates slot-wise generalization combinations (breadth first, so
    each derivation is a shortest one); the postulated phrase bounds are
    not edges and do not appear.  Output is sorted by step count, then
    verb, then noun ids.  If more than ``cap`` conclusions exist the
    result is cut off and flagged.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    kb.check_phrase(fact.vp)
    found = list(islice(_search(kb, fact.vp), cap + 1))
    truncated = len(found) > cap
    derivations = [
        Derivation(Sentence(fact.subject, fact.tense, vp), steps) for vp, steps in found[:cap]
    ]
    derivations.sort(key=lambda d: (len(d.steps), d.conclusion.vp.verb, d.conclusion.vp.nouns))
    return ClosureResult(tuple(derivations), truncated)


def vp_chain(kb, a: VerbPhrase, b: VerbPhrase) -> tuple[Step, ...] | None:
    """A shortest witness that ``a`` lies below ``b``, as steps.

    The steps are the ones ``closure`` derives from ``a``; a pair ordered
    only by a postulated bound takes one ``bound`` step.  ``()`` when the
    phrases are equal, ``None`` when they are not ordered.
    """
    if not vp_leq(kb, a, b):
        return None
    if a == b:
        return ()
    for vp, steps in _search(kb, a, lambda vp: phrase_leq(kb, vp, b)):
        if vp == b:
            return steps
    return (Step(BOUND, a.text(), b.text(), BOUND),)


def apply_step(vp: VerbPhrase, step: Step) -> VerbPhrase:
    """The phrase one step leads to from ``vp``; ``NotEntailed`` when the
    step does not apply there."""
    if step.rule == BOUND:
        negated = step.upper.startswith("not ")
        verb, *nouns = step.upper.removeprefix("not ").split("*")
        upper = VerbPhrase(verb, tuple(nouns), negated)
        bounded = (upper == TOP and not vp.negated) or (vp == BOTTOM and upper.negated)
        if vp.text() != step.lower or not bounded:
            raise NotEntailed(f"step does not apply: {step.premise()}")
        return upper
    if step.rule == CONTRAPOSITION:
        if not vp.negated:
            raise NotEntailed("contraposition step on a positive phrase")
        frm, to = step.upper, step.lower
    elif step.rule in (VERB_GENERAL, NOUN_GENERAL):
        if vp.negated:
            raise NotEntailed(f"step does not apply: {step.premise()}")
        frm, to = step.lower, step.upper
    else:
        raise NotEntailed(f"unknown rule: {step.rule!r}")
    if step.slot is None:
        if vp.verb != frm:
            raise NotEntailed(f"step does not apply: {step.premise()}")
        return vp.replace(verb=to)
    if vp.nouns[step.slot] != frm:
        raise NotEntailed(f"step does not apply: {step.premise()}")
    return vp.replace(slot=step.slot, noun=to)


def replay(kb, source: Sentence, derivation: Derivation) -> Sentence:
    """Re-run a derivation's steps from the source fact."""
    vp = source.vp
    for step in derivation.steps:
        vp = apply_step(vp, step)
    return Sentence(source.subject, source.tense, vp)


def contrapose(kb, implication: tuple[Sentence, Sentence]) -> tuple[Sentence, Sentence]:
    """Turn (A implies B) into (not-B implies not-A)."""
    frm, to = implication
    if not entails(kb, frm, to):
        raise NotEntailed(f"{frm.text()!r} does not entail {to.text()!r}")
    return (to.negate(), frm.negate())


def implication_to_disjunction(kb, implication: tuple[Sentence, Sentence]) -> SentenceExpr:
    """Express an entailed implication as "not-A OR B"."""
    frm, to = implication
    if not entails(kb, frm, to):
        raise NotEntailed(f"{frm.text()!r} does not entail {to.text()!r}")
    return Or(Leaf(frm.negate()), Leaf(to))


def propagate_conditional(kb, rule: ConditionalRule, cap: int = DEFAULT_CAP) -> PropagationResult:
    """One derived rule per closure element of the consequent, with the
    antecedent copied unchanged."""
    result = closure(kb, rule.consequent, cap)
    rules = tuple(
        ConditionalRule(rule.antecedent, derived.conclusion) for derived in result
    )
    return PropagationResult(rules, result.truncated)
