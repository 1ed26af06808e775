"""Question operators and scripted general-to-specific conversations.

Statements flow from specific to general; questions run the other way.
HOW refines the verb, WHICH_PART refines a noun slot along part_of
edges, WHICH_KIND along kind_of edges.  Answers come from what the world
actually supports, not from the whole taxonomy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import (
    Contradiction,
    NotFactual,
    ParseError,
    ResolutionError,
    SlotOutOfRange,
    UnknownAtom,
    VplError,
)
from . import dsl
from .inference import apply_step, closure
from .order import KIND_OF, PART_OF, WAY_OF
from .phrase import phrase_leq
from .sentence import FACTUAL, PLAN, Leaf, Sentence, World

HOW = "how"
WHICH_PART = "which_part"
WHICH_KIND = "which_kind"

# The surface wording varies; both spellings name the kind_of operator.
OPERATOR_ALIASES = {
    "how": HOW,
    "which_part": WHICH_PART,
    "which_kind": WHICH_KIND,
    "what_kind": WHICH_KIND,
}

_NOUN_LABEL = {WHICH_PART: PART_OF, WHICH_KIND: KIND_OF}

NO_REFINEMENT = "no_refinement"


@dataclass(frozen=True, slots=True)
class QuestionResult:
    """Answers to one question; when empty, ``reason`` says why."""

    answers: tuple[Sentence, ...]
    reason: str | None = None

    def __bool__(self) -> bool:
        return bool(self.answers)


@dataclass(frozen=True, slots=True)
class DialogueTurn:
    speaker: str  # "system" or "user"
    text: str
    payload: object  # Sentence for system turns, (operator, slot) for questions


def _held(world: World, sentence: Sentence) -> bool:
    return world.status_of(sentence) in (FACTUAL, PLAN)


def apply_question(world: World, operator: str, sentence: Sentence,
                   slot: int | None = None) -> QuestionResult:
    """All strictly more specific held sentences differing from the input
    only in the targeted slot, specialized along the operator's label."""
    operator = OPERATOR_ALIASES.get(operator, operator)
    if operator not in (HOW, WHICH_PART, WHICH_KIND):
        raise ValueError(f"unknown question operator: {operator!r}")
    kb = world.kb
    kb.check_phrase(sentence.vp)
    if not _held(world, sentence):
        raise NotFactual(f"the world does not support {sentence.text()!r}")
    vp = sentence.vp
    if operator == HOW:
        refined = [
            vp.replace(verb=c)
            for c in _refinements(kb.verbs, vp.verb, vp.negated, WAY_OF)
            # A verb pinned to another arity yields no phrase.
            if kb.arities.get(c, vp.arity) == vp.arity
        ]
    else:
        if slot is None:
            if vp.arity > 1:
                raise SlotOutOfRange(
                    f"phrase has {vp.arity} noun slots, pick one with --slot"
                )
            slot = 0
        if not 0 <= slot < vp.arity:
            raise SlotOutOfRange(f"slot {slot} out of range for arity {vp.arity}")
        label = _NOUN_LABEL[operator]
        refined = [
            vp.replace(slot=slot, noun=c)
            for c in _refinements(kb.nouns, vp.nouns[slot], vp.negated, label)
        ]
    candidates = (Sentence(sentence.subject, sentence.tense, r) for r in refined)
    answers = sorted((c for c in candidates if _held(world, c)), key=lambda s: s.text())
    if not answers:
        return QuestionResult((), NO_REFINEMENT)
    return QuestionResult(tuple(answers))


def _refinements(order, atom: str, negated: bool, label: str) -> set[str]:
    """The atoms other than ``atom`` that refine it along ``label``
    edges: below it in a positive phrase, above it in a negated one,
    because negation reverses the order."""
    walk = order.generalizations if negated else order.specializations
    return walk(atom, label) - {atom}


def _most_specific(kb, sentences) -> Sentence:
    """Minimal elements under the phrase order, lexicographic tie-break.
    Phrases of different arity are incomparable: neither is below."""
    pool = sorted(sentences, key=lambda s: s.text())
    def strictly_below(a, b):
        return phrase_leq(kb, a.vp, b.vp) and not phrase_leq(kb, b.vp, a.vp)
    for cand in pool:
        if not any(other != cand and strictly_below(other, cand) for other in pool):
            return cand
    return pool[0]


def generate_dialogue(world: World, root_fact: Sentence) -> list[DialogueTurn]:
    """Script from the most general consequence down to the ground fact.

    System statements descend one question step at a time, so every
    system answer entails the previous system statement.
    """
    kb = world.kb
    kb.check_phrase(root_fact.vp)
    if not _held(world, root_fact):
        raise NotFactual(f"the world does not support {root_fact.text()!r}")
    ground_pool = world.supporters(root_fact)
    ground = _most_specific(kb, ground_pool) if ground_pool else root_fact
    consequences = closure(kb, ground)
    if not consequences.derivations:
        return [DialogueTurn("system", ground.text(), ground)]
    deepest = max(
        consequences,
        key=lambda d: (len(d.steps), d.conclusion.text()),
    )
    vps = [ground.vp]
    for step in deepest.steps:
        vps.append(apply_step(vps[-1], step))
    statements = [Sentence(ground.subject, ground.tense, vp) for vp in reversed(vps)]
    turns = [DialogueTurn("system", statements[0].text(), statements[0])]
    for step, general, specific in zip(reversed(deepest.steps), statements, statements[1:]):
        if step.slot is None:
            op, text = HOW, "how?"
        else:
            op = WHICH_PART if step.label == PART_OF else WHICH_KIND
            text = f"{op.replace('_', ' ')} of {general.vp.nouns[step.slot]}?"
        turns.append(DialogueTurn("user", text, (op, step.slot)))
        turns.append(DialogueTurn("system", specific.text(), specific))
    return turns


# -- interactive loop ---------------------------------------------------


@dataclass
class ReplState:
    """One interactive session: a world plus the statement in focus."""

    world: World
    focus: Sentence | None = None


def repl_step(state: ReplState, line: str) -> tuple[ReplState, str]:
    """One line of the dialogue protocol.

    ``? <op> [slot]`` refines the focused statement, ``! <sentence>``
    asserts a fact, ``= <expr>`` evaluates.  Answers are prefixed ``A:``,
    errors ``ERR:`` with a machine-readable code in brackets.  The state
    is unchanged whenever an error is reported.
    """
    line = line.strip()
    if not line:
        return state, "ERR: empty input [parse_error]"
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    try:
        if head == "?":
            return _repl_question(state, rest)
        if head == "!":
            sentence = dsl.sentence(state.world.kb, rest)
            state.world.assert_fact(sentence)
            return replace(state, focus=sentence), "A: noted"
        if head == "=":
            expr = dsl.parse_expr(rest, state.world.kb)
            value = state.world.eval(expr)
            if isinstance(expr, Leaf):
                state = replace(state, focus=expr.sentence)
            return state, f"A: {value}"
        return state, "ERR: lines start with ?, ! or = [parse_error]"
    except (ParseError, ResolutionError, UnknownAtom) as exc:
        return state, f"ERR: {exc} [parse_error]"
    except Contradiction:
        return state, (
            "ERR: I cannot accept that, it contradicts what I already hold "
            "[contradiction]"
        )
    except VplError as exc:
        return state, f"ERR: {exc} [{_error_code(exc)}]"


def _error_code(exc: VplError) -> str:
    """The snake_case of the error's class name, e.g. ``arity_mismatch``."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _repl_question(state: ReplState, rest: str) -> tuple[ReplState, str]:
    parts = rest.split()
    if not parts or parts[0] not in OPERATOR_ALIASES:
        return state, "ERR: expected how, which_part or which_kind [parse_error]"
    operator = OPERATOR_ALIASES[parts[0]]
    slot = None
    if len(parts) > 1:
        try:
            slot = int(parts[1])
        except ValueError:
            return state, f"ERR: slot must be an integer, got {parts[1]!r} [parse_error]"
    if len(parts) > 2:
        return state, "ERR: too many arguments to a question [parse_error]"
    if state.focus is None:
        return state, "ERR: no statement in focus, assert or query one first [no_focus]"
    result = apply_question(state.world, operator, state.focus, slot)
    if not result:
        return state, "A: no refinement"
    best = _most_specific(state.world.kb, result.answers)
    return replace(state, focus=best), f"A: {best.text()}"
