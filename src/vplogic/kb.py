"""The knowledge base: both preorders plus everything keyed off them.

Holds the noun and verb orders, verb arities, the verb/noun-category
isomorphism table with membership degrees, per-subject lifetimes, and
conditional rules.  The designated atoms ``do`` and ``something`` are
registered in every knowledge base so the phrase bounds always exist.
Ids are normalized where text enters (the parser, the CLI): methods
take them as given, except ``phrase``, a helper for library callers.
"""

from __future__ import annotations

from .errors import ArityMismatch, OutOfRange
from .order import NOUN, VERB, Preorder, normalize_id
from .phrase import BOTTOM, TOP, TOP_NOUN, TOP_VERB, VerbPhrase
from .temporal import TimeInterval

DEFAULT_LIFETIME = TimeInterval(0, 100)


class KnowledgeBase:
    # The phrase bounds, the same in every knowledge base.
    top = TOP
    bottom = BOTTOM

    def __init__(self):
        self.nouns = Preorder(NOUN)
        self.verbs = Preorder(VERB)
        self.arities: dict[str, int] = {}
        self._isos: set[tuple[str, str]] = set()
        self._degrees: dict[tuple[str, str, str], float] = {}
        self._lifetimes: dict[str, TimeInterval] = {}
        self.rules: list = []
        self.verbs.add_atom(TOP_VERB)
        self.nouns.add_atom(TOP_NOUN)
        self.arities[TOP_VERB] = 1

    # -- phrase construction and validation ------------------------------

    def phrase(self, verb: str, nouns, negated: bool = False) -> VerbPhrase:
        """Build a validated phrase and pin the verb's arity, as an
        accepted fact does."""
        vp = VerbPhrase(
            normalize_id(verb), tuple(normalize_id(n) for n in nouns), negated
        )
        self.check_phrase(vp)
        self.pin_arity(vp)
        return vp

    def check_phrase(self, vp: VerbPhrase) -> None:
        """Raise unless every atom is registered and the verb's arity, if
        pinned, matches.  Records nothing."""
        self.verbs.atom(vp.verb)
        for noun in vp.nouns:
            self.nouns.atom(noun)
        known = self.arities.get(vp.verb)
        if known is not None and known != vp.arity:
            raise ArityMismatch(
                f"verb {vp.verb!r} takes {known} noun slot(s), got {vp.arity}"
            )

    def pin_arity(self, vp: VerbPhrase) -> None:
        """Fix the verb's arity at the phrase's, unless already pinned.
        Accepted facts and loaded rules pin; queries never do."""
        self.arities.setdefault(vp.verb, vp.arity)

    # -- isomorphisms and degrees ----------------------------------------

    def add_iso(self, verb: str, category: str) -> None:
        self._isos.add((self.verbs.atom(verb), self.nouns.atom(category)))

    def has_iso(self, verb: str, category: str) -> bool:
        return (verb, category) in self._isos

    def iso_categories(self, verb: str) -> tuple[str, ...]:
        return tuple(sorted(cat for v, cat in self._isos if v == verb))

    def add_degree(self, subject: str, item: str, category: str, degree: float) -> None:
        if not 0.0 <= degree <= 1.0:
            raise OutOfRange(f"degree must lie in [0, 1], got {degree}")
        self.nouns.atom(item)
        self.nouns.atom(category)
        self._degrees[(subject, item, category)] = degree

    def degree(self, subject: str, item: str, category: str) -> float | None:
        """Subject-specific entry first, wildcard second, else None."""
        specific = self._degrees.get((subject, item, category))
        if specific is not None:
            return specific
        return self._degrees.get(("*", item, category))

    # -- lifetimes --------------------------------------------------------

    def set_lifetime(self, subject: str, interval: TimeInterval) -> None:
        self._lifetimes[subject] = interval

    def lifetime(self, subject: str) -> TimeInterval:
        return self._lifetimes.get(subject, DEFAULT_LIFETIME)

    # -- rules --------------------------------------------------------------

    def add_rule(self, rule) -> None:
        self.rules.append(rule)
