"""The verb-phrase product order.

A phrase is one verb plus an ordered list of noun slots under a single
polarity flag, e.g. ``buy*hybrid_car`` or ``not fly*tokyo*la``.  Positive
phrases compare componentwise (verb against verb, each slot against the
matching slot); negated phrases compare with the components reversed, so
negation is antitone and involutive.  Polarity lives here only: the atom
orders (``order.Preorder``) are positive, and ``phrase_leq`` reads them
backwards for a negated pair.  ``do*something`` is the designated top of
all positive phrases and its negation the bottom of all negated ones;
these bounds hold regardless of declared edges and of arity.
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
