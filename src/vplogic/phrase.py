"""The verb-phrase product order.

A phrase is one verb plus an ordered list of noun slots under a single
polarity flag, e.g. ``buy*hybrid_car`` or ``not fly*tokyo*la``.  Positive
phrases compare componentwise (verb against verb, each slot against the
matching slot); negated phrases compare with the components reversed, so
negation is antitone and involutive.  ``do*something`` is the designated
top of all positive phrases and its negation the bottom of all negated
ones; these bounds hold regardless of declared edges and of arity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch

TOP_VERB = "do"
TOP_NOUN = "something"


@dataclass(frozen=True, slots=True)
class VerbPhrase:
    verb: str
    nouns: tuple[str, ...]
    negated: bool = False

    def __post_init__(self):
        if not self.nouns:
            raise ValueError("a verb phrase needs at least one noun slot")
        object.__setattr__(self, "nouns", tuple(self.nouns))

    @property
    def arity(self) -> int:
        return len(self.nouns)

    def negate(self) -> VerbPhrase:
        return VerbPhrase(self.verb, self.nouns, not self.negated)

    def core(self) -> VerbPhrase:
        """The positive phrase under the polarity flag."""
        return VerbPhrase(self.verb, self.nouns, False) if self.negated else self

    def replace(self, verb: str | None = None, slot: int | None = None,
                noun: str | None = None) -> VerbPhrase:
        new_verb = self.verb if verb is None else verb
        nouns = self.nouns
        if slot is not None:
            nouns = nouns[:slot] + (noun,) + nouns[slot + 1:]
        return VerbPhrase(new_verb, nouns, self.negated)

    def text(self) -> str:
        body = "*".join((self.verb,) + self.nouns)
        return ("not " + body) if self.negated else body


def vp_negate(vp: VerbPhrase) -> VerbPhrase:
    return vp.negate()


TOP = VerbPhrase(TOP_VERB, (TOP_NOUN,))
BOTTOM = TOP.negate()


def phrase_leq(kb, a: VerbPhrase, b: VerbPhrase) -> bool:
    """The product order on phrases already checked against ``kb``.

    The postulated bounds hold at every arity; otherwise mixed polarity
    and different arities are simply unrelated.
    """
    if a == b:
        return True
    if not a.negated and b == TOP:
        return True
    if b.negated and a == BOTTOM:
        return True
    if a.negated != b.negated or a.arity != b.arity:
        return False
    if a.negated:
        a, b = b, a
    nouns = kb.nouns
    return kb.verbs.reaches(a.verb, b.verb) and all(
        nouns.reaches(lo, hi) for lo, hi in zip(a.nouns, b.nouns)
    )


def vp_leq(kb, a: VerbPhrase, b: VerbPhrase) -> bool:
    """Product order on phrases, with the postulated bounds.

    Both phrases are checked against ``kb`` first.  Comparing phrases of
    one polarity but different arity outside the bounds is an error.
    """
    kb.check_phrase(a)
    kb.check_phrase(b)
    if phrase_leq(kb, a, b):
        return True
    if a.negated == b.negated and a.arity != b.arity:
        raise ArityMismatch(
            f"cannot compare {a.text()!r} (arity {a.arity}) "
            f"with {b.text()!r} (arity {b.arity})"
        )
    return False


def _atom_path(preorder, start: str, goal: str) -> list[str] | None:
    """Shortest declared-edge path start -> goal, deterministic tie-break."""
    if start == goal:
        return [start]
    parents: dict[str, str] = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for upper in preorder.direct_uppers(node):
                if upper in parents:
                    continue
                parents[upper] = node
                if upper == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                nxt.append(upper)
        frontier = nxt
    return None


def vp_chain(kb, a: VerbPhrase, b: VerbPhrase) -> list[VerbPhrase] | None:
    """A witness chain of single-edge generalization steps from a to b.

    Verb steps come first, then each noun slot in order; adjacent chain
    elements always satisfy ``vp_leq``.  ``None`` signals non-entailment.
    """
    if not vp_leq(kb, a, b):
        return None
    if a == b:
        return [a]
    if a.negated:
        core_chain = vp_chain(kb, b.core(), a.core())
        if core_chain is None:
            return None
        return [vp.negate() for vp in reversed(core_chain)]
    verb_path = _atom_path(kb.verbs, a.verb, b.verb)
    noun_paths = (
        [_atom_path(kb.nouns, lo, hi) for lo, hi in zip(a.nouns, b.nouns)]
        if a.arity == b.arity
        else None
    )
    if verb_path is None or noun_paths is None or any(p is None for p in noun_paths):
        # Only reachable through the postulated bound, not through edges.
        return [a, b]
    chain = [a]
    for verb in verb_path[1:]:
        chain.append(chain[-1].replace(verb=verb))
    for slot, path in enumerate(noun_paths):
        for noun in path[1:]:
            chain.append(chain[-1].replace(slot=slot, noun=noun))
    return chain
